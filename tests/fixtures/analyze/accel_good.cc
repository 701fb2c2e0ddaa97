// accel-registry fixture: every key in the table is pinned by
// accel_golden_good.inc, except 'experimental', whose row carries an
// explicit suppression.

#define DLVP_ACCEL(key) key

constexpr AccelRow kFixtureAccelerators[] = {
    {DLVP_ACCEL("alpha"), "first", nullptr},
    {DLVP_ACCEL("beta"), "second", nullptr},
    // dlvp-analyze: allow(accel-registry)
    {DLVP_ACCEL("experimental"), "wip", nullptr},
};
