/**
 * @file
 * Tests for the extension predictors: LVP, D-VTAGE, the
 * computation-based stride address predictor, and the partitioned
 * tournament.
 */

#include <gtest/gtest.h>

#include "pred/dvtage.hh"
#include "pred/lvp.hh"
#include "pred/stride_ap.hh"
#include "sim/addr_pred_driver.hh"
#include "sim/configs.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

namespace
{

using namespace dlvp;
using namespace dlvp::pred;

trace::TraceInst
makeLoad(Addr pc)
{
    trace::TraceInst i;
    i.pc = pc;
    i.cls = trace::OpClass::Load;
    i.loadKind = trace::LoadKind::Simple;
    i.numDests = 1;
    i.memSize = 8;
    return i;
}

// ---- LVP ----

TEST(Lvp, LearnsStableValue)
{
    Lvp lvp({});
    for (int i = 0; i < 400; ++i)
        lvp.train(0x400100, 42);
    const auto p = lvp.predict(0x400100);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.value, 42u);
}

TEST(Lvp, SlowConfidence)
{
    Lvp lvp({});
    for (int i = 0; i < 10; ++i)
        lvp.train(0x400100, 42);
    EXPECT_FALSE(lvp.predict(0x400100).valid)
        << "the 64-observation FPC cannot saturate in 10";
}

TEST(Lvp, ConflictingStoreGoesStale)
{
    Lvp lvp({});
    for (int i = 0; i < 400; ++i)
        lvp.train(0x400100, 42);
    ASSERT_TRUE(lvp.predict(0x400100).valid);
    lvp.train(0x400100, 43); // Challenge #1 in one line
    EXPECT_FALSE(lvp.predict(0x400100).valid);
}

TEST(Lvp, TagsPreventAliasing)
{
    Lvp lvp({});
    for (int i = 0; i < 400; ++i)
        lvp.train(0x400100, 42);
    // A colliding PC (same index, different tag) must not predict 42.
    const Addr alias = 0x400100 + (1ull << 12) * 4;
    const auto p = lvp.predict(alias);
    EXPECT_FALSE(p.valid && p.value == 42);
}

// ---- D-VTAGE ----

TEST(Dvtage, LearnsStride)
{
    Dvtage d({});
    const auto inst = makeLoad(0x400100);
    std::uint64_t v = 100;
    for (int i = 0; i < 600; ++i) {
        d.train(inst, 0, 0, v);
        v += 8;
    }
    const auto p = d.predictSpec(inst, 0, 0);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.value, v) << "last + stride";
}

TEST(Dvtage, SpeculativeChainAcrossInflight)
{
    // Two back-to-back predictions without an intervening train must
    // step the stride twice (the speculative window).
    Dvtage d({});
    const auto inst = makeLoad(0x400100);
    std::uint64_t v = 0;
    for (int i = 0; i < 600; ++i) {
        d.train(inst, 0, 0, v);
        v += 4;
    }
    const auto p1 = d.predictSpec(inst, 0, 0);
    const auto p2 = d.predictSpec(inst, 0, 0);
    ASSERT_TRUE(p1.valid && p2.valid);
    EXPECT_EQ(p2.value, p1.value + 4);
}

TEST(Dvtage, StrideWrapsModulo2To64)
{
    // Consecutive values 0, 0x8000000000000001, 2, ... lie 2^63 + 1
    // apart: the delta must wrap modulo 2^64 (no signed overflow, so
    // this runs clean under UBSan) and still be learned as a stride.
    Dvtage d({});
    const auto inst = makeLoad(0x400100);
    constexpr std::uint64_t kStride = 0x8000000000000001ULL;
    std::uint64_t v = 0;
    for (int i = 0; i < 600; ++i) {
        d.train(inst, 0, 0, v);
        v += kStride;
    }
    const auto p = d.predictSpec(inst, 0, 0);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.value, v) << "last + stride, modulo 2^64";
}

TEST(Dvtage, FlushResyncDropsChains)
{
    Dvtage d({});
    const auto inst = makeLoad(0x400100);
    std::uint64_t v = 0;
    for (int i = 0; i < 600; ++i) {
        d.train(inst, 0, 0, v);
        v += 4;
    }
    ASSERT_TRUE(d.predictSpec(inst, 0, 0).valid);
    d.flushResync();
    EXPECT_FALSE(d.predictSpec(inst, 0, 0).valid)
        << "chains stay down until training resyncs";
    d.train(inst, 0, 0, v);
    v += 4;
    EXPECT_TRUE(d.predictSpec(inst, 0, 0).valid);
}

TEST(Dvtage, ZeroStrideIsLastValue)
{
    Dvtage d({});
    const auto inst = makeLoad(0x400100);
    for (int i = 0; i < 600; ++i)
        d.train(inst, 0, 0, 42);
    const auto p = d.predictSpec(inst, 0, 0);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.value, 42u);
}

TEST(Dvtage, StorageAudit)
{
    Dvtage d({});
    // LVT 256 x 80 + 3 x 256 x 35 bits.
    EXPECT_EQ(d.storageBits(), 256ULL * (16 + 64) + 3ULL * 256 * 35);
}

// ---- stride address predictor ----

TEST(StrideAp, LearnsStride)
{
    StrideAp ap({});
    Addr a = 0x1000;
    for (int i = 0; i < 10; ++i) {
        ap.train(0x400100, a);
        a += 64;
    }
    const auto p = ap.predict(0x400100);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.addr, a);
}

TEST(StrideAp, ChainsAcrossInflight)
{
    StrideAp ap({});
    Addr a = 0x1000;
    for (int i = 0; i < 10; ++i) {
        ap.train(0x400100, a);
        a += 64;
    }
    const auto p1 = ap.predict(0x400100);
    const auto p2 = ap.predict(0x400100);
    ASSERT_TRUE(p1.valid && p2.valid);
    EXPECT_EQ(p2.addr, p1.addr + 64);
}

TEST(StrideAp, FixedAddressIsZeroStride)
{
    StrideAp ap({});
    for (int i = 0; i < 10; ++i)
        ap.train(0x400100, 0x2000);
    const auto p = ap.predict(0x400100);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.addr, 0x2000u);
}

TEST(StrideAp, StrideChangeResets)
{
    StrideAp ap({});
    Addr a = 0x1000;
    for (int i = 0; i < 10; ++i) {
        ap.train(0x400100, a);
        a += 64;
    }
    ASSERT_TRUE(ap.predict(0x400100).valid);
    ap.train(0x400100, a + 999);
    EXPECT_FALSE(ap.predict(0x400100).valid);
}

// ---- drivers and core integration ----

TEST(PredExt, StrideApCoversSweepsPapCannot)
{
    const auto t = trace::WorkloadRegistry::build("hmmer", 60000);
    const auto stride = sim::driveStrideAp(t, StrideApParams{});
    EXPECT_GT(stride.coverage(), 0.1)
        << "the walker's x loads stride through memory";
    EXPECT_GT(stride.accuracy(), 0.9);
}

TEST(PredExt, DvtageBeatsVtageOnWalker)
{
    const auto t = trace::WorkloadRegistry::build("nat", 80000);
    const auto v = sim::driveValuePred(t, sim::ValuePredKind::Vtage);
    const auto d = sim::driveValuePred(t, sim::ValuePredKind::Dvtage);
    EXPECT_GT(d.coverage(), v.coverage() * 0.9)
        << "stride deltas subsume last-value repetition";
}

TEST(PredExt, LvpDriverRuns)
{
    const auto t = trace::WorkloadRegistry::build("crafty", 60000);
    const auto r = sim::driveValuePred(t, sim::ValuePredKind::Lvp);
    EXPECT_GT(r.loads, 0u);
    EXPECT_GT(r.accuracy(), 0.9);
}

TEST(PredExt, DvtageSchemeRunsInCore)
{
    sim::Simulator s(sim::baselineCore(), 60000);
    const auto base = s.run("nat", sim::baselineVp());
    const auto d = s.run("nat", sim::dvtageConfig());
    EXPECT_EQ(d.committedInsts, base.committedInsts);
    EXPECT_GT(d.coverage(), 0.2);
    EXPECT_GT(d.accuracy(), 0.95);
    EXPECT_GE(sim::speedup(base, d), 1.0);
}

TEST(PredExt, StrideDlvpSchemeRunsInCore)
{
    sim::Simulator s(sim::baselineCore(), 60000);
    const auto base = s.run("hmmer", sim::baselineVp());
    const auto d = s.run("hmmer", sim::strideDlvpConfig());
    EXPECT_EQ(d.committedInsts, base.committedInsts);
    // The stride AP extrapolates across value-run boundaries, so its
    // in-core accuracy is structurally poor — the predictor-zoo
    // finding that motivates PAP's no-extrapolation design. The
    // invariant here is completion and sane accounting, not accuracy.
    EXPECT_LE(d.vpCorrectLoads, d.vpPredictedLoads);
}

TEST(PartitionedTournament, RunsAndCoversAtLeastAsMuch)
{
    sim::Simulator s(sim::baselineCore(), 80000);
    const auto naive = s.run("pdfjs", sim::tournamentConfig());
    const auto part =
        s.run("pdfjs", sim::partitionedTournamentConfig());
    EXPECT_EQ(naive.committedInsts, part.committedInsts);
    // Partitioning frees VTAGE capacity; combined coverage must not
    // collapse (it usually grows on overlap-heavy workloads).
    EXPECT_GT(part.coverage(), naive.coverage() * 0.9);
    EXPECT_GT(part.accuracy(), 0.95);
}

} // namespace
