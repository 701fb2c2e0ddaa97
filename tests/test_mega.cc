/**
 * @file
 * Mega-trace pipeline tests (ctest label "mega"): the dlvp-trace-v2
 * chunked format (round trips, corruption fuzzing, fault-plan
 * injection, rejection of other format versions), the streaming
 * reader's equivalence with materialized traces and its O(chunk)
 * memory bound, the mega-trace generator's schedule/density contract,
 * and the interval sampler's determinism — bit-identical sampled
 * CoreStats for any job count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>

#include "common/fault_inject.hh"
#include "common/rng.hh"
#include "common/run_error.hh"
#include "core/core.hh"
#include "sim/configs.hh"
#include "sim/sampler.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/kernel_ctx.hh"
#include "trace/mega.hh"
#include "trace/trace_v2.hh"
#include "trace/workloads.hh"

namespace
{

using namespace dlvp;
using namespace dlvp::trace;

/** Temp-file helper that cleans up on scope exit. */
struct TempPath
{
    explicit TempPath(const char *name)
        : path(std::string("/tmp/dlvp_mega_test_") + name)
    {
    }
    ~TempPath() { std::remove(path.c_str()); }
    std::string path;
};

void
expectSameInsts(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc) << i;
        EXPECT_EQ(a[i].cls, b[i].cls) << i;
        EXPECT_EQ(a[i].loadKind, b[i].loadKind) << i;
        EXPECT_EQ(a[i].memAddr, b[i].memAddr) << i;
        EXPECT_EQ(a[i].memSize, b[i].memSize) << i;
        EXPECT_EQ(a[i].storeValue, b[i].storeValue) << i;
        EXPECT_EQ(a[i].destValue, b[i].destValue) << i;
        EXPECT_EQ(a[i].numSrcs, b[i].numSrcs) << i;
        EXPECT_EQ(a[i].numDests, b[i].numDests) << i;
        EXPECT_EQ(a[i].taken, b[i].taken) << i;
        EXPECT_EQ(a[i].branchTarget, b[i].branchTarget) << i;
        if (::testing::Test::HasFailure())
            break;
    }
}

// ---------------------------------------------------------------------
// dlvp-trace-v2 format
// ---------------------------------------------------------------------

TEST(TraceV2, RoundTripIsBitIdenticalToSource)
{
    const auto orig = WorkloadRegistry::build("crafty", 9000);

    // The v2 serialization must decode to the in-memory source's
    // instructions and image.
    std::stringstream buf;
    ASSERT_TRUE(saveTraceV2(orig, buf, 2048));

    Trace loaded;
    loadTraceV2OrThrow(loaded, buf);
    EXPECT_EQ(loaded.name, orig.name);
    EXPECT_EQ(loaded.suite, orig.suite);
    expectSameInsts(orig, loaded);
    EXPECT_EQ(loaded.initialImage.numPages(),
              orig.initialImage.numPages());
    EXPECT_EQ(loaded.verifyReplay(), loaded.size());
}

TEST(TraceV2, ConvertedTraceSimulatesIdentically)
{
    const auto orig = WorkloadRegistry::build("mcf", 12000);
    TempPath p("convert.dt2");
    ASSERT_TRUE(saveTraceFileV2(orig, p.path, 4096));
    Trace loaded;
    loadTraceFileOrThrow(loaded, p.path);

    sim::Simulator s(sim::baselineCore(), orig.size());
    const auto a = s.run(orig, sim::dlvpConfig());
    const auto b = s.run(loaded, sim::dlvpConfig());
    EXPECT_TRUE(a == b) << "v2 round trip changed CoreStats";
}

TEST(TraceV2, StreamedRunMatchesMaterialized)
{
    const auto orig = WorkloadRegistry::build("vpr", 20000);
    TempPath p("streamed.dt2");
    ASSERT_TRUE(saveTraceFileV2(orig, p.path, 1024));

    Trace streamed;
    streamed.attachStream(ChunkedTraceFile::open(p.path));
    ASSERT_TRUE(streamed.streamed());
    ASSERT_EQ(streamed.size(), orig.size());
    EXPECT_EQ(streamed.verifyReplay(), streamed.size());

    sim::Simulator s(sim::baselineCore(), orig.size());
    const auto a = s.run(orig, sim::dlvpConfig());
    const auto b = s.run(streamed, sim::dlvpConfig());
    EXPECT_TRUE(a == b) << "streaming changed CoreStats";

    // O(chunk) bound: the reader may pin the in-flight window's chunks
    // plus the fetch lookahead, never anything close to the whole
    // trace (20 chunks at 1024 insts each).
    EXPECT_LE(streamed.stream()->peakCachedChunks(), 6u);
}

TEST(TraceV2, WriterRejectsCountMismatch)
{
    const auto t = WorkloadRegistry::build("viterb", 1000);
    std::stringstream os;
    ChunkedTraceWriter w(os, t.name, t.suite, t.initialImage,
                         t.size() + 1);
    for (std::size_t i = 0; i < t.size(); ++i)
        w.add(t[i]);
    EXPECT_FALSE(w.finish()) << "declared count not reached";
}

// ---------------------------------------------------------------------
// v2 corruption fuzzing (fail cleanly with io_corrupt, never crash;
// DESIGN.md §9's io_corrupt taxonomy)
// ---------------------------------------------------------------------

std::string
serializedV2(std::size_t insts = 3000, std::uint32_t chunk = 512)
{
    const auto orig = WorkloadRegistry::build("viterb", insts);
    std::stringstream buf;
    if (!saveTraceV2(orig, buf, chunk))
        ADD_FAILURE() << "saveTraceV2 failed";
    return buf.str();
}

/**
 * The io_corrupt message loadTraceV2OrThrow gives for @p bytes, or ""
 * if they loaded (any other error kind fails the test).
 */
std::string
streamLoadError(const std::string &bytes)
{
    std::stringstream buf(bytes);
    Trace t;
    try {
        loadTraceV2OrThrow(t, buf);
        return "";
    } catch (const common::RunError &e) {
        EXPECT_EQ(e.kind(), common::ErrorKind::IoCorrupt) << e.what();
        return e.what();
    }
}

/**
 * The io_corrupt message loadTraceFileOrThrow, then decoding every
 * chunk, gives for a file holding @p bytes, or "" if all of it loaded.
 */
std::string
fileLoadError(const std::string &bytes)
{
    // Named after the running test: ctest runs tests in parallel.
    const std::string name =
        std::string(::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()) +
        ".dt2";
    TempPath p(name.c_str());
    {
        std::ofstream os(p.path, std::ios::binary);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size()));
    }
    Trace t;
    try {
        loadTraceFileOrThrow(t, p.path);
        t.forEachInst([](const TraceInst &) {});
        return "";
    } catch (const common::RunError &e) {
        EXPECT_EQ(e.kind(), common::ErrorKind::IoCorrupt) << e.what();
        return e.what();
    }
}

/**
 * Bytes of @p t's v2 header before its image pages: the offset of the
 * first page address, or of chunk 0 when the image is empty.
 */
std::size_t
headerBytes(const Trace &t)
{
    // magic | u32 chunkInsts | u64 instCount | name | suite | u64 pages
    return 8 + 4 + 8 + 4 + t.name.size() + 4 + t.suite.size() + 8;
}

TEST(CorruptionFuzz, ThrowingLoaderReportsIoCorrupt)
{
    const std::string err = fileLoadError("definitely not a trace");
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
}

TEST(CorruptionFuzz, WrongVersionByteRejected)
{
    // The retired v1 magic and a future v3 both fail as io_corrupt
    // naming the version found, from either loader.
    for (const char version : {'1', '3'}) {
        std::string bytes = serializedV2(500);
        bytes[7] = version; // "DLVPTRC" intact, version changed
        const std::string want = std::string("version ") + version;
        for (const std::string &err :
             {fileLoadError(bytes), streamLoadError(bytes)})
            EXPECT_NE(err.find(want), std::string::npos) << err;
    }
}

TEST(CorruptionFuzz, HugeInstructionCountFailsFastWithoutOom)
{
    // The u64 instCount follows the magic and the u32 chunk size.
    // 2^33 passes the plausibility cap, so only the remaining-bytes
    // check stands between it and a multi-TB reserve(); under ASan an
    // attempted allocation of that size would abort the test binary.
    // The all-ones count trips the cap itself.
    for (const std::uint64_t count :
         {std::uint64_t{1} << 33, ~std::uint64_t{0}}) {
        std::string bytes = serializedV2(500);
        std::memcpy(bytes.data() + 12, &count, sizeof(count));
        EXPECT_NE(streamLoadError(bytes), "") << count;
        EXPECT_NE(fileLoadError(bytes), "") << count;
    }
}

TEST(CorruptionFuzz, MisalignedPageAddressRejected)
{
    const auto orig = WorkloadRegistry::build("viterb", 500);
    ASSERT_GT(orig.initialImage.numPages(), 0u)
        << "fuzz target needs a memory image";
    std::stringstream buf;
    ASSERT_TRUE(saveTraceV2(orig, buf, 512));
    std::string bytes = buf.str();
    const std::size_t addr_off = headerBytes(orig);
    bytes[addr_off] = static_cast<char>(
        static_cast<unsigned char>(bytes[addr_off]) | 1);
    const std::string err = fileLoadError(bytes);
    EXPECT_NE(err.find("aligned"), std::string::npos) << err;
}

TEST(TraceIo, MissingFileFails)
{
    Trace t;
    try {
        loadTraceFileOrThrow(t, "/nonexistent/path/x.dt2");
        FAIL() << "a missing file must not load";
    } catch (const common::RunError &e) {
        EXPECT_EQ(e.kind(), common::ErrorKind::IoCorrupt);
    }
}

TEST(TraceV2Fuzz, EveryTruncationPointFailsCleanly)
{
    const std::string full = serializedV2();
    ASSERT_GT(full.size(), 512u);
    std::vector<std::size_t> cuts;
    for (std::size_t n = 0; n <= 256 && n < full.size(); ++n)
        cuts.push_back(n);
    for (std::size_t n = 257; n < full.size(); n += 131)
        cuts.push_back(n);
    cuts.push_back(full.size() - 1);
    for (const std::size_t n : cuts)
        EXPECT_NE(streamLoadError(full.substr(0, n)), "")
            << "cut at " << n;
}

TEST(TraceV2Fuzz, RandomBitFlipsNeverCrash)
{
    const std::string full = serializedV2();
    std::mt19937_64 rng(0xc0ffee5eedULL);
    std::size_t rejected = 0;
    for (int trial = 0; trial < 200; ++trial) {
        std::string bytes = full;
        const int nflips = 1 + static_cast<int>(rng() % 4);
        for (int f = 0; f < nflips; ++f) {
            const std::size_t byte = rng() % bytes.size();
            bytes[byte] = static_cast<char>(
                static_cast<unsigned char>(bytes[byte]) ^
                (1u << (rng() % 8)));
        }
        if (!streamLoadError(bytes).empty())
            ++rejected;
    }
    // Payload bytes are checksummed, so the reject rate must be high
    // (image-page flips may still load).
    EXPECT_GT(rejected, 150u);
}

TEST(TraceV2Fuzz, PayloadFlipReportsChecksumMismatch)
{
    const auto orig = WorkloadRegistry::build("viterb", 1000);
    Trace pageless = orig;
    pageless.initialImage = MemoryImage(); // put chunk 0 right after
                                           // the fixed-size header
    std::stringstream buf;
    ASSERT_TRUE(saveTraceV2(pageless, buf, 256));
    std::string bytes = buf.str();
    const std::size_t headerEnd = headerBytes(pageless);
    // Flip a byte well inside chunk 0's payload (past its 16-byte
    // count/encLen/checksum header).
    bytes[headerEnd + 16 + 40] ^= 0x10;
    const std::string err = streamLoadError(bytes);
    EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

/** FNV-1a 64, the v2 chunk checksum, computed independently. */
std::uint64_t
testFnv1a(const char *data, std::size_t len)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= static_cast<unsigned char>(data[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(TraceV2Decode, ChecksumMismatchOutranksFieldError)
{
    const auto orig = WorkloadRegistry::build("viterb", 1000);
    Trace pageless = orig;
    pageless.initialImage = MemoryImage();
    std::stringstream buf;
    ASSERT_TRUE(saveTraceV2(pageless, buf, 256));
    std::string bytes = buf.str();
    // Chunk 0: u32 count | u32 encLen | u64 checksum | payload, whose
    // first byte is record 0's op class.
    const std::size_t chunk0 = headerBytes(pageless);
    std::uint32_t enc_len = 0;
    std::memcpy(&enc_len, bytes.data() + chunk0 + 4, sizeof(enc_len));
    const std::size_t payload = chunk0 + 16;
    ASSERT_LE(payload + enc_len, bytes.size());
    bytes[payload] = static_cast<char>(0xff);

    // Checksum left stale: the mismatch is what is reported.
    for (const std::string &err :
         {streamLoadError(bytes), fileLoadError(bytes)})
        EXPECT_NE(err.find("chunk checksum mismatch"), std::string::npos)
            << err;

    // Checksum recomputed over the edited payload: the field error.
    const std::uint64_t h = testFnv1a(bytes.data() + payload, enc_len);
    std::memcpy(bytes.data() + chunk0 + 8, &h, sizeof(h));
    for (const std::string &err :
         {streamLoadError(bytes), fileLoadError(bytes)}) {
        EXPECT_NE(err.find("op class out of range"), std::string::npos)
            << err;
        EXPECT_EQ(err.find("checksum"), std::string::npos) << err;
    }
}

TEST(TraceV2Fuzz, FaultPlanCorruptsStreamingOpen)
{
    const auto orig = WorkloadRegistry::build("viterb", 2000);
    TempPath p("fault.dt2");
    ASSERT_TRUE(saveTraceFileV2(orig, p.path, 256));

    // Clean open streams fine.
    EXPECT_EQ(ChunkedTraceFile::open(p.path)->numInsts(), orig.size());

    // DLVP_FAULT_INJECT-style truncation: open() must throw
    // io_corrupt, not crash on the short file.
    common::FaultPlan::setGlobal("trunc:512");
    try {
        ChunkedTraceFile::open(p.path);
        FAIL() << "truncated v2 stream must not open";
    } catch (const common::RunError &e) {
        EXPECT_EQ(e.kind(), common::ErrorKind::IoCorrupt);
    }

    // A bit flip in the version byte dies at header validation.
    common::FaultPlan::setGlobal("flip:7.0");
    try {
        ChunkedTraceFile::open(p.path);
        FAIL() << "flipped magic must not open";
    } catch (const common::RunError &e) {
        EXPECT_EQ(e.kind(), common::ErrorKind::IoCorrupt);
    }
    common::FaultPlan::clearGlobal();

    // Clean again after the plan clears (no sticky state).
    Trace t;
    t.attachStream(ChunkedTraceFile::open(p.path));
    EXPECT_EQ(t.verifyReplay(), t.size());
}

// ---------------------------------------------------------------------
// Mega-trace generator
// ---------------------------------------------------------------------

MegaSpec
smallMega()
{
    MegaSpec spec;
    spec.name = "mini-mega";
    spec.phases = {"mcf", "gzip"};
    spec.totalInsts = 60000;
    spec.phaseInsts = 8000;
    spec.conflictDensity = 0.25;
    spec.chunkInsts = 4096;
    return spec;
}

TEST(Mega, ScheduleSpreadsStormsByErrorDiffusion)
{
    MegaSpec spec = smallMega();
    const auto sched = megaSchedule(spec);
    // ceil(60000 / 8000) = 8 occurrences; density 0.25 puts a storm
    // at every 4th (error diffusion: indices 3 and 7).
    ASSERT_EQ(sched.size(), 8u);
    std::size_t storms = 0;
    for (std::size_t i = 0; i < sched.size(); ++i) {
        if (sched[i] == "storm") {
            ++storms;
            EXPECT_EQ(i % 4, 3u) << "storm misplaced at " << i;
        }
    }
    EXPECT_EQ(storms, 2u);

    spec.conflictDensity = 0.0;
    for (const auto &name : megaSchedule(spec))
        EXPECT_NE(name, "storm");

    spec.conflictDensity = 1.0;
    for (const auto &name : megaSchedule(spec))
        EXPECT_EQ(name, "storm");
}

TEST(Mega, RejectsInvalidSpecs)
{
    MegaSpec bad = smallMega();
    bad.phases = {"no-such-workload"};
    EXPECT_THROW(megaSchedule(bad), common::RunError);

    bad = smallMega();
    bad.phases.clear();
    EXPECT_THROW(megaSchedule(bad), common::RunError);

    bad = smallMega();
    bad.conflictDensity = 1.5;
    EXPECT_THROW(megaSchedule(bad), common::RunError);

    // Composed workloads may not nest (customBuild recursion guard).
    bad = smallMega();
    bad.phases = {"mega-mix"};
    EXPECT_THROW(buildMega(bad), common::RunError);
}

TEST(Mega, BuildReplaysAndMatchesSchedule)
{
    const MegaSpec spec = smallMega();
    const Trace t = buildMega(spec);
    EXPECT_EQ(t.size(), spec.totalInsts);
    EXPECT_EQ(t.name, spec.name);
    EXPECT_EQ(t.verifyReplay(), t.size())
        << "relocation must be replay-isomorphic";
}

TEST(Mega, StreamedFileMatchesMaterializedBuild)
{
    const MegaSpec spec = smallMega();
    TempPath p("mega.dt2");
    writeMegaV2(spec, p.path);

    Trace streamed;
    streamed.attachStream(ChunkedTraceFile::open(p.path));
    const Trace built = buildMega(spec);
    ASSERT_EQ(streamed.size(), built.size());

    // Bit-identical instruction streams (streamed decode vs direct
    // composition)...
    Trace materialized = streamed;
    materialized.materialize();
    expectSameInsts(materialized, built);

    // ...and bit-identical CoreStats through the detailed core.
    sim::Simulator s(sim::baselineCore(), built.size());
    const auto a = s.run(built, sim::dlvpConfig());
    const auto b = s.run(streamed, sim::dlvpConfig());
    EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------
// Trace windows and the core's functional image (the sampler's units)
// ---------------------------------------------------------------------

/** @p t's instructions via forEachInst, as a materialized trace. */
Trace
collected(const Trace &t)
{
    Trace out;
    t.forEachInst(
        [&out](const TraceInst &inst) { out.insts.push_back(inst); });
    return out;
}

core::CoreStats
runCore(const Trace &t)
{
    core::OoOCore core(sim::baselineCore(), sim::dlvpConfig(), t);
    return core.run(500);
}

TEST(TraceWindow, StreamedWindowMatchesSlice)
{
    const MegaSpec spec = smallMega();
    TempPath p("window.dt2");
    writeMegaV2(spec, p.path);
    Trace streamed;
    streamed.attachStream(ChunkedTraceFile::open(p.path));
    const std::size_t n = streamed.size();

    struct Range
    {
        std::size_t begin, count, expect;
    };
    // Unaligned begin inside chunk 0, across several 4096-inst chunks,
    // and clipped at the trace end.
    for (const Range r : {Range{1000, 3000, 3000},
                          Range{4000, 9000, 9000},
                          Range{n - 700, 5000, 700}}) {
        MemoryImage image = streamed.initialImage;
        advanceImage(image, streamed, 0, r.begin);
        const Trace window = streamed.window(r.begin, r.count, image);
        const Trace slice = streamed.slice(r.begin, r.count, image);
        ASSERT_TRUE(window.streamed());
        ASSERT_FALSE(slice.streamed());
        ASSERT_EQ(window.size(), r.expect);
        expectSameInsts(collected(window), slice);
        Trace materialized = window;
        materialized.materialize();
        expectSameInsts(materialized, slice);
        EXPECT_TRUE(runCore(window) == runCore(slice)) << r.begin;
    }

    // A window of a window is the window of the summed range.
    const Trace outer = streamed.window(1000, 20000, MemoryImage());
    expectSameInsts(collected(outer.window(300, 5000, MemoryImage())),
                    streamed.slice(1300, 5000, MemoryImage()));
}

TEST(TraceWindow, MaterializedWindowCopiesLikeSlice)
{
    const Trace t = WorkloadRegistry::build("mcf", 5000);
    const Trace window = t.window(1234, 10000, t.initialImage);
    ASSERT_FALSE(window.streamed());
    EXPECT_EQ(window.size(), t.size() - 1234);
    expectSameInsts(window, t.slice(1234, 10000, t.initialImage));
}

/**
 * A loop over a few hot slots: a store and an atomic to random slots,
 * then a load of every slot from a fixed site. The load addresses are
 * predictable, their values go stale under the in-flight stores, so
 * value predictions flush.
 */
Trace
hotSlotProgram(std::size_t length)
{
    Trace t;
    t.name = "hot-slots";
    KernelCtx ctx(t, 7);
    Rng rng(0x51075);
    const Addr arena = 0x3000000;
    const unsigned slots = 8;
    for (unsigned i = 0; i < slots; ++i)
        ctx.mem().write(arena + i * 8, rng.next64(), 8);
    ctx.sealInitialImage();
    const Val base = ctx.imm(0, arena);
    while (ctx.emitted() < length) {
        ctx.store(1, arena + rng.below(slots) * 8, rng.next64() & 0xff,
                  base, base);
        ctx.atomic(2, arena + rng.below(slots) * 8, rng.next64() & 0xff,
                   base);
        for (unsigned i = 0; i < slots; ++i)
            ctx.load(3 + static_cast<int>(i), arena + i * 8, base);
    }
    t.insts.resize(length);
    return t;
}

std::map<Addr, std::vector<std::uint8_t>>
pagesOf(const MemoryImage &image)
{
    std::map<Addr, std::vector<std::uint8_t>> out;
    image.forEachPage([&out](Addr a, const std::uint8_t *bytes) {
        out[a].assign(bytes, bytes + MemoryImage::kPageSize);
    });
    return out;
}

TEST(CoreArchImage, TakeArchImageEqualsAdvanceImage)
{
    const Trace t = hotSlotProgram(6000);
    ASSERT_EQ(t.verifyReplay(), t.size());
    std::size_t stores = 0, atomics = 0;
    t.forEachInst([&](const TraceInst &inst) {
        stores += inst.isStore();
        atomics += inst.cls == OpClass::Atomic;
    });
    ASSERT_GT(stores, 0u);
    ASSERT_GT(atomics, 0u);

    auto vp = sim::dlvpConfig();
    vp.useLscd = false; // let conflicting stores flush
    core::OoOCore core(sim::baselineCore(), vp, t);
    const core::CoreStats stats = core.run();
    // Refetch after each of these flushes must not re-apply stores.
    EXPECT_GT(stats.vpFlushes, 0u);

    MemoryImage expect = t.initialImage;
    advanceImage(expect, t, 0, t.size());
    EXPECT_TRUE(pagesOf(core.takeArchImage()) == pagesOf(expect));
}

// ---------------------------------------------------------------------
// Interval sampler determinism: bit-identical sampled CoreStats under
// any job count
// ---------------------------------------------------------------------

sim::SampleSpec
smallSample()
{
    sim::SampleSpec sample;
    sample.enabled = true;
    sample.warmupInsts = 2000;
    sample.measureInsts = 3000;
    sample.periodInsts = 10000;
    return sample;
}

TEST(Sampler, RejectsInvalidSpecs)
{
    const auto t = WorkloadRegistry::build("mcf", 5000);
    sim::SampleSpec bad = smallSample();
    bad.measureInsts = 0;
    EXPECT_THROW(sim::runSampled(sim::baselineCore(),
                                 sim::dlvpConfig(), t, bad),
                 common::RunError);
    bad = smallSample();
    bad.periodInsts = bad.warmupInsts + bad.measureInsts - 1;
    EXPECT_THROW(sim::runSampled(sim::baselineCore(),
                                 sim::dlvpConfig(), t, bad),
                 common::RunError);
}

TEST(Sampler, DeterministicAndCoversEveryPeriod)
{
    const Trace t = buildMega(smallMega());
    const auto sample = smallSample();
    const auto a = sim::runSampled(sim::baselineCore(),
                                   sim::dlvpConfig(), t, sample);
    const auto b = sim::runSampled(sim::baselineCore(),
                                   sim::dlvpConfig(), t, sample);
    EXPECT_TRUE(a.stats == b.stats);
    EXPECT_EQ(a.intervals, 6u); // 60000 / 10000
    EXPECT_GT(a.sampledInsts(), 0u);
    EXPECT_LT(a.sampledInsts(), t.size());
    EXPECT_GT(a.cpi(), 0.0);
}

TEST(Sampler, CpiErrorAgainstFullRunIsFinite)
{
    const Trace t = buildMega(smallMega());
    const auto sampled = sim::runSampled(
        sim::baselineCore(), sim::dlvpConfig(), t, smallSample());
    sim::Simulator s(sim::baselineCore(), t.size());
    const auto full = s.run(t, sim::dlvpConfig());
    const double err = sim::cpiError(sampled, full);
    EXPECT_GE(err, 0.0);
    EXPECT_LT(err, 1.0) << "sampled CPI off by more than 100%";
}

/**
 * A small mega trace saved with a chunk size that divides neither the
 * period nor any interval start, and a length that clips the last
 * interval (start 60000, 3500 of warmup + measure's 5000 left).
 */
MegaSpec
unalignedMega()
{
    MegaSpec spec = smallMega();
    spec.totalInsts = 63500;
    spec.chunkInsts = 1536;
    return spec;
}

TEST(Sampler, StreamedMatchesMaterialized)
{
    const MegaSpec spec = unalignedMega();
    TempPath p("sampled_unaligned.dt2");
    writeMegaV2(spec, p.path);
    Trace streamed;
    streamed.attachStream(ChunkedTraceFile::open(p.path));
    Trace materialized = streamed;
    materialized.materialize();
    ASSERT_TRUE(streamed.streamed());
    ASSERT_FALSE(materialized.streamed());

    const auto sample = smallSample();
    for (const auto &vp : {sim::baselineVp(), sim::dlvpConfig()}) {
        const auto a = sim::runSampled(sim::baselineCore(), vp,
                                       materialized, sample);
        const auto b =
            sim::runSampled(sim::baselineCore(), vp, streamed, sample);
        EXPECT_EQ(a.intervals, 7u); // six full + the clipped tail
        EXPECT_EQ(a.intervals, b.intervals);
        EXPECT_TRUE(a.stats == b.stats) << vp.accel;
    }
}

/** Sampled sweep over the mega workload, parameterized by jobs. */
sim::SweepResult
sampledSweep(unsigned jobs)
{
    sim::SweepSpec spec;
    spec.workloads = {"mega-mix"};
    spec.insts = 60000;
    spec.core = sim::baselineCore();
    spec.baseline = sim::baselineVp();
    for (const char *n : {"dlvp", "stride-dlvp"}) {
        core::VpConfig vp;
        sim::configByName(n, vp);
        spec.configs.push_back({n, vp});
    }
    spec.jobs = jobs;
    spec.sample = smallSample();
    spec.sample.check = true; // exercise the cpi_error path too
    spec.store = nullptr;
    return sim::runSweep(spec);
}

TEST(Sampler, SweepIsBitIdenticalForAnyJobCountAndScheduling)
{
    const auto serial = sampledSweep(1);
    const auto parallel = sampledSweep(8);
    ASSERT_EQ(serial.rows.size(), 1u);
    ASSERT_EQ(parallel.rows.size(), 1u);
    const auto &r1 = serial.rows[0];
    const auto &r2 = parallel.rows[0];
    ASSERT_TRUE(r1.baselineOutcome.ok() && r2.baselineOutcome.ok());
    EXPECT_TRUE(r1.baseline == r2.baseline);
    ASSERT_EQ(r1.results.size(), r2.results.size());
    for (std::size_t ci = 0; ci < r1.results.size(); ++ci) {
        ASSERT_TRUE(r1.cellOk(ci) && r2.cellOk(ci));
        EXPECT_TRUE(r1.results[ci] == r2.results[ci]);
        EXPECT_EQ(r1.samples[ci].intervals, r2.samples[ci].intervals);
        EXPECT_EQ(r1.samples[ci].sampledInsts,
                  r2.samples[ci].sampledInsts);
        EXPECT_DOUBLE_EQ(r1.samples[ci].cpiError,
                         r2.samples[ci].cpiError);
    }
    EXPECT_EQ(r1.baselineSample.intervals, r2.baselineSample.intervals);
    EXPECT_DOUBLE_EQ(r1.baselineSample.cpiError,
                     r2.baselineSample.cpiError);
    // check=true must have produced real error numbers.
    EXPECT_GE(r1.baselineSample.cpiError, 0.0);
    EXPECT_GE(r1.samples[0].cpiError, 0.0);
}

} // namespace
