// accel-registry fixture: 'orphan' is in the table but the golden
// table (accel_golden_bad.inc) never pins it, and the golden table
// pins 'ghost', which no row here names.

#define DLVP_ACCEL(key) key // the marker itself registers nothing

// A doc example like DLVP_ACCEL("comment-key") must not count either.

constexpr AccelRow kFixtureAccelerators[] = {
    {DLVP_ACCEL("alpha"), "first", nullptr},
    {DLVP_ACCEL("beta"), "second", nullptr},
    {DLVP_ACCEL("orphan"), "unpinned", nullptr},
};
