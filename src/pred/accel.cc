/**
 * @file
 * Every LoadAccelerator adapter and the one constant table of keys
 * that names them (see accel.hh for the interface contract).
 *
 * Each adapter owns its concrete predictor(s) and translates the
 * interface hooks into the predictor's native calls; every stats
 * increment matches the pre-registry core dispatch exactly (golden
 * CoreStats pin this). The tournament is composed of the PAP-DLVP and
 * VTAGE adapters themselves, so the two stay one implementation.
 */

#include "pred/accel.hh"

#include <algorithm>
#include <memory>

#include "common/run_error.hh"
#include "pred/chooser.hh"

namespace dlvp::pred
{

namespace
{

/**
 * PAP groups loads by 16-byte fetch group; every PAP call site uses
 * the same group address derivation.
 */
Addr
papGroupPc(Addr pc)
{
    return pc & ~Addr{15};
}

/**
 * Fetch-time value prediction of every destination of @p inst:
 * @p predict(d) is one table lookup returning a {valid, value}
 * prediction for destination d. Marks @p out eligible.
 */
template <typename Predict>
void
predictDests(const trace::TraceInst &inst, AccelValuePredictions &out,
             AccelStats &stats, Predict predict)
{
    out.eligible = true;
    const unsigned n = std::max<unsigned>(1, inst.numDests);
    for (unsigned d = 0; d < n; ++d) {
        const auto p = predict(d);
        ++stats.lookups;
        if (p.valid) {
            out.mask |= static_cast<std::uint16_t>(1u << d);
            out.values[d] = p.value;
        }
    }
}

/** The no-acceleration baseline: every capability off. */
class NoneAccel final : public LoadAccelerator
{
  public:
    explicit NoneAccel(const AccelParams &params) { (void)params; }

    const char *key() const override { return "none"; }
};

/** The paper's scheme: PAP address prediction feeding the L1D probe. */
class PapDlvpAccel final : public LoadAccelerator
{
  public:
    explicit PapDlvpAccel(const AccelParams &params) : pap_(params.pap)
    {
    }

    const char *key() const override { return "pap-dlvp"; }
    bool predictsAddresses() const override { return true; }
    bool trainsAtExecute() const override { return true; }

    AccelAddrPrediction
    predictAddress(const trace::TraceInst &inst, unsigned slot,
                   const AccelFetchContext &ctx,
                   AccelStats &stats) override
    {
        const auto p = pap_.predict(papGroupPc(inst.pc), slot, ctx.lph);
        ++stats.lookups;
        return {p.valid, p.addr, p.size, p.way};
    }

    void
    trainAtExecute(const AccelExecInfo &ei, AccelStats &stats) override
    {
        if (!ei.addrTrainable)
            return;
        const trace::TraceInst &inst = *ei.inst;
        pap_.train(papGroupPc(inst.pc), ei.slot, ei.lph, inst.memAddr,
                   inst.memSize, ei.l1dWay);
        ++stats.writes;
    }

    void
    invalidateAddress(Addr pc, unsigned slot, std::uint64_t lph) override
    {
        pap_.invalidate(papGroupPc(pc), slot, lph);
    }

    void
    reseedRng(std::uint64_t seed) override
    {
        pap_.reseedRng(seed ^ 0x7061700000000000ULL);
    }

  private:
    Pap pap_;
};

/** DLVP microarchitecture with the CAP correlated address predictor. */
class CapDlvpAccel final : public LoadAccelerator
{
  public:
    explicit CapDlvpAccel(const AccelParams &params) : cap_(params.cap)
    {
    }

    const char *key() const override { return "cap-dlvp"; }
    bool predictsAddresses() const override { return true; }

    AccelAddrPrediction
    predictAddress(const trace::TraceInst &inst, unsigned slot,
                   const AccelFetchContext &ctx,
                   AccelStats &stats) override
    {
        (void)slot;
        (void)ctx;
        // CAP predicts and trains at fetch: idealized zero-latency
        // per-load history management (see pred/cap.hh).
        const auto cp = cap_.predict(inst.pc);
        cap_.train(inst.pc, inst.memAddr);
        ++stats.writes;
        ++stats.lookups;
        return {cp.valid, cp.addr, inst.memSize, -1};
    }

  private:
    Cap cap_;
};

/** DLVP microarchitecture with a computation-based stride predictor. */
class StrideDlvpAccel final : public LoadAccelerator
{
  public:
    explicit StrideDlvpAccel(const AccelParams &params)
        : stride_(params.strideAp)
    {
    }

    const char *key() const override { return "stride-dlvp"; }
    bool predictsAddresses() const override { return true; }
    bool trainsAtExecute() const override { return true; }

    AccelAddrPrediction
    predictAddress(const trace::TraceInst &inst, unsigned slot,
                   const AccelFetchContext &ctx,
                   AccelStats &stats) override
    {
        (void)slot;
        (void)ctx;
        const auto sp = stride_.predict(inst.pc);
        ++stats.lookups;
        return {sp.valid, sp.addr, inst.memSize, -1};
    }

    void
    trainAtExecute(const AccelExecInfo &ei, AccelStats &stats) override
    {
        if (!ei.addrTrainable)
            return;
        stride_.train(ei.inst->pc, ei.inst->memAddr);
        ++stats.writes;
    }

    void flushResync() override { stride_.flushResync(); }

  private:
    StrideAp stride_;
};

/**
 * VTAGE value prediction. Inside the tournament it may partition the
 * loads: one DLVP handled correctly does not compete for VTAGE
 * capacity (SS5.2.3).
 */
class VtageAccel final : public LoadAccelerator
{
  public:
    explicit VtageAccel(const AccelParams &params, bool partition = false)
        : vtage_(params.vtage), partition_(partition)
    {
    }

    const char *key() const override { return "vtage"; }
    bool predictsValues() const override { return true; }
    bool trainsAtCommit() const override { return true; }

    void
    predictValues(const trace::TraceInst &inst,
                  const AccelFetchContext &ctx,
                  AccelValuePredictions &out, AccelStats &stats) override
    {
        if (!vtage_.eligible(inst))
            return;
        predictDests(inst, out, stats, [&](unsigned d) {
            return vtage_.predict(inst, d, ctx.ghr);
        });
    }

    void
    trainAtCommit(const AccelCommitInfo &ci, AccelStats &stats) override
    {
        const trace::TraceInst &inst = *ci.inst;
        const unsigned nd = std::max<unsigned>(1, inst.numDests);
        const bool was_pred = ci.valueMask != 0;
        bool was_correct = was_pred;
        for (unsigned d = 0; was_correct && d < nd; ++d)
            if (ci.valueMask & (1u << d))
                was_correct = (*ci.values)[d] == (*ci.actualValues)[d];
        bool dlvp_owned = false;
        if (partition_ && inst.isLoad() && ci.probeHit) {
            dlvp_owned = true;
            for (unsigned d = 0; dlvp_owned && d < nd; ++d)
                dlvp_owned = (*ci.probeValues)[d] == (*ci.actualValues)[d];
        }
        if (dlvp_owned || !(vtage_.eligible(inst) || was_pred))
            return;
        for (unsigned d = 0; d < nd; ++d) {
            vtage_.train(inst, d, ci.ghr, (*ci.actualValues)[d], was_pred,
                         was_correct);
            ++stats.writes;
        }
    }

    void
    reseedRng(std::uint64_t seed) override
    {
        vtage_.reseedRng(seed ^ 0x7674616765000000ULL);
    }

  private:
    Vtage vtage_;
    bool partition_;
};

/** D-VTAGE: last values + stride deltas, speculative history. */
class DvtageAccel final : public LoadAccelerator
{
  public:
    explicit DvtageAccel(const AccelParams &params)
        : dvtage_(params.dvtage)
    {
    }

    const char *key() const override { return "dvtage"; }
    bool predictsValues() const override { return true; }
    bool trainsAtCommit() const override { return true; }

    void
    predictValues(const trace::TraceInst &inst,
                  const AccelFetchContext &ctx,
                  AccelValuePredictions &out, AccelStats &stats) override
    {
        if (!dvtage_.eligible(inst))
            return;
        predictDests(inst, out, stats, [&](unsigned d) {
            return dvtage_.predictSpec(inst, d, ctx.ghr);
        });
    }

    void
    trainAtCommit(const AccelCommitInfo &ci, AccelStats &stats) override
    {
        const trace::TraceInst &inst = *ci.inst;
        if (!dvtage_.eligible(inst))
            return;
        const unsigned nd = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < nd; ++d) {
            dvtage_.train(inst, d, ci.ghr, (*ci.actualValues)[d]);
            ++stats.writes;
        }
    }

    void flushResync() override { dvtage_.flushResync(); }

    void
    reseedRng(std::uint64_t seed) override
    {
        dvtage_.reseedRng(seed ^ 0x6476746167650000ULL);
    }

  private:
    Dvtage dvtage_;
};

/**
 * DLVP + VTAGE with a per-PC tournament chooser (Figure 8): the two
 * standalone adapters, called directly, plus the chooser.
 */
class TournamentAccel final : public LoadAccelerator
{
  public:
    explicit TournamentAccel(const AccelParams &params)
        : dlvp_(params), vtage_(params, params.tournamentPartition)
    {
    }

    const char *key() const override { return "tournament"; }
    bool predictsAddresses() const override { return true; }
    bool predictsValues() const override { return true; }
    bool trainsAtExecute() const override { return true; }
    bool trainsAtCommit() const override { return true; }

    void
    predictValues(const trace::TraceInst &inst,
                  const AccelFetchContext &ctx,
                  AccelValuePredictions &out, AccelStats &stats) override
    {
        vtage_.predictValues(inst, ctx, out, stats);
    }

    AccelAddrPrediction
    predictAddress(const trace::TraceInst &inst, unsigned slot,
                   const AccelFetchContext &ctx,
                   AccelStats &stats) override
    {
        return dlvp_.predictAddress(inst, slot, ctx, stats);
    }

    AccelChoice
    choose(Addr pc, bool addr_avail, bool value_avail) override
    {
        bool use_dlvp;
        if (addr_avail && value_avail)
            use_dlvp = chooser_.preferDlvp(pc);
        else
            use_dlvp = addr_avail;
        return use_dlvp ? AccelChoice::Address : AccelChoice::Value;
    }

    void
    trainAtExecute(const AccelExecInfo &ei, AccelStats &stats) override
    {
        dlvp_.trainAtExecute(ei, stats);
        // The chooser learns only when both candidates competed.
        if (!ei.probeHit || !ei.valueMask)
            return;
        const unsigned n = std::max<unsigned>(1, ei.inst->numDests);
        bool dl_ok = true;
        for (unsigned d = 0; dl_ok && d < n; ++d)
            dl_ok = (*ei.probeValues)[d] == (*ei.actualValues)[d];
        bool vt_ok = true;
        for (unsigned d = 0; vt_ok && d < n; ++d)
            if (ei.valueMask & (1u << d))
                vt_ok = (*ei.values)[d] == (*ei.actualValues)[d];
        chooser_.update(ei.inst->pc, dl_ok, vt_ok);
    }

    void
    trainAtCommit(const AccelCommitInfo &ci, AccelStats &stats) override
    {
        vtage_.trainAtCommit(ci, stats);
    }

    void
    invalidateAddress(Addr pc, unsigned slot, std::uint64_t lph) override
    {
        dlvp_.invalidateAddress(pc, slot, lph);
    }

    void
    reseedRng(std::uint64_t seed) override
    {
        dlvp_.reseedRng(seed);
        vtage_.reseedRng(seed);
    }

  private:
    PapDlvpAccel dlvp_;
    VtageAccel vtage_;
    TournamentChooser chooser_;
};

/** BALCVP: commit-written value table + equality predictor. */
class BalcvpAccel final : public LoadAccelerator
{
  public:
    explicit BalcvpAccel(const AccelParams &params)
        : balcvp_(params.balcvp)
    {
    }

    const char *key() const override { return "balcvp"; }
    bool predictsValues() const override { return true; }
    bool trainsAtCommit() const override { return true; }

    void
    predictValues(const trace::TraceInst &inst,
                  const AccelFetchContext &ctx,
                  AccelValuePredictions &out, AccelStats &stats) override
    {
        (void)ctx;
        if (!inst.isLoad())
            return;
        predictDests(inst, out, stats, [&](unsigned d) {
            return balcvp_.predict(inst.pc, d);
        });
    }

    void
    trainAtCommit(const AccelCommitInfo &ci, AccelStats &stats) override
    {
        const trace::TraceInst &inst = *ci.inst;
        if (!inst.isLoad())
            return;
        const unsigned nd = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < nd; ++d) {
            balcvp_.train(inst.pc, d, (*ci.actualValues)[d]);
            ++stats.writes;
            if (ci.valueMask & (1u << d))
                balcvp_.resolve();
        }
    }

    void flushResync() override { balcvp_.flushResync(); }

    std::uint64_t specStateToken() const override
    {
        return balcvp_.snapshotSpecDepth();
    }

    void
    restoreSpecState(std::uint64_t token) override
    {
        balcvp_.restoreSpecDepth(static_cast<std::uint32_t>(token));
    }

  private:
    Balcvp balcvp_;
};

/** Hermes-style off-chip perceptron gating a last value predictor. */
class HermesAccel final : public LoadAccelerator
{
  public:
    explicit HermesAccel(const AccelParams &params)
        : hermes_(params.hermes)
    {
    }

    const char *key() const override { return "hermes"; }
    bool predictsValues() const override { return true; }
    bool trainsAtExecute() const override { return true; }
    bool trainsAtCommit() const override { return true; }

    void
    predictValues(const trace::TraceInst &inst,
                  const AccelFetchContext &ctx,
                  AccelValuePredictions &out, AccelStats &stats) override
    {
        if (!inst.isLoad())
            return;
        out.eligible = true;
        // One perceptron read classifies the load; the value tables
        // are only consulted for predicted-slow loads.
        ++stats.lookups;
        if (!hermes_.predictSlow(inst.pc, ctx.ghr, ctx.lph))
            return;
        predictDests(inst, out, stats, [&](unsigned d) {
            return hermes_.predictValue(inst.pc, d);
        });
    }

    void
    trainAtExecute(const AccelExecInfo &ei, AccelStats &stats) override
    {
        const trace::TraceInst &inst = *ei.inst;
        if (!inst.isLoad())
            return;

        // The perceptron trains on observed latency at execute; no
        // architectural value is needed.
        if (hermes_.trainLatency(inst.pc, ei.ghr, ei.lph,
                                 static_cast<unsigned>(ei.latency)))
            ++stats.writes;
    }

    void
    trainAtCommit(const AccelCommitInfo &ci, AccelStats &stats) override
    {
        const trace::TraceInst &inst = *ci.inst;
        if (!inst.isLoad())
            return;
        const unsigned nd = std::max<unsigned>(1, inst.numDests);
        for (unsigned d = 0; d < nd; ++d) {
            hermes_.trainValue(inst.pc, d, (*ci.actualValues)[d]);
            ++stats.writes;
            if (ci.valueMask & (1u << d))
                hermes_.resolve();
        }
    }

    void flushResync() override { hermes_.flushResync(); }

    void
    reseedRng(std::uint64_t seed) override
    {
        hermes_.reseedRng(seed ^ 0x6865726d65730000ULL);
    }

    std::uint64_t specStateToken() const override
    {
        return hermes_.snapshotSpecInflight();
    }

    void
    restoreSpecState(std::uint64_t token) override
    {
        hermes_.restoreSpecInflight(static_cast<std::uint32_t>(token));
    }

  private:
    Hermes hermes_;
};

template <typename T>
std::unique_ptr<LoadAccelerator>
make(const AccelParams &params)
{
    return std::make_unique<T>(params);
}

struct AccelRow
{
    const char *key;
    const char *description;
    AccelFactory factory;
};

/** Every accelerator, sorted by key (tests/test_accel_zoo.cc checks). */
constexpr AccelRow kAccelerators[] = {
    {DLVP_ACCEL("balcvp"),
     "BALCVP: last-committed-value + equality prediction, immune to "
     "in-flight conflicting stores",
     &make<BalcvpAccel>},
    {DLVP_ACCEL("cap-dlvp"),
     "DLVP microarchitecture with the CAP correlated address predictor "
     "(Bekerman+, ISCA 1999)",
     &make<CapDlvpAccel>},
    {DLVP_ACCEL("dvtage"),
     "D-VTAGE: last values + stride deltas (Perais & Seznec, HPCA 2015)",
     &make<DvtageAccel>},
    {DLVP_ACCEL("hermes"),
     "Hermes-style perceptron off-chip filter gating a last value "
     "predictor (Bera+, MICRO 2022)",
     &make<HermesAccel>},
    {DLVP_ACCEL("none"), "no load acceleration (baseline core)",
     &make<NoneAccel>},
    {DLVP_ACCEL("pap-dlvp"),
     "DLVP: path-based address prediction + L1D probe (the paper)",
     &make<PapDlvpAccel>},
    {DLVP_ACCEL("stride-dlvp"),
     "DLVP microarchitecture with a stride address predictor",
     &make<StrideDlvpAccel>},
    {DLVP_ACCEL("tournament"),
     "DLVP + VTAGE behind a per-PC tournament chooser (Figure 8)",
     &make<TournamentAccel>},
    {DLVP_ACCEL("vtage"),
     "VTAGE context-based value prediction (Perais & Seznec, HPCA 2014)",
     &make<VtageAccel>},
};

const AccelRow *
findRow(const std::string &key)
{
    for (const AccelRow &row : kAccelerators)
        if (key == row.key)
            return &row;
    return nullptr;
}

} // namespace

bool
acceleratorRegistered(const std::string &key)
{
    return findRow(key) != nullptr;
}

std::unique_ptr<LoadAccelerator>
makeAccelerator(const std::string &key, const AccelParams &params)
{
    const AccelRow *row = findRow(key);
    if (row == nullptr) {
        throw common::RunError(common::ErrorKind::Internal,
                               "unknown accelerator key '" + key + "'");
    }
    return row->factory(params);
}

std::vector<AccelInfo>
acceleratorCatalog()
{
    std::vector<AccelInfo> out;
    for (const AccelRow &row : kAccelerators)
        out.push_back({row.key, row.description, row.factory});
    return out;
}

} // namespace dlvp::pred
