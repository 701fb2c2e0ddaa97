/**
 * @file
 * Interval-based sampled simulation (SimPoint-style systematic
 * sampling) for mega traces.
 *
 * A full detailed run of a 10M-instruction trace costs ~100x a 100k
 * run; sampling recovers almost all of the CPI signal for a fraction
 * of that. The trace is divided into fixed periods of periodInsts;
 * each period's first (warmupInsts + measureInsts) instructions run
 * through the detailed core — warmup primes caches and predictors and
 * is discarded (CoreStats reset, exactly run(warmup)'s contract) and
 * the measured region is accumulated field-wise into the aggregate.
 * The gap to the next period is skipped *functionally*: only the
 * committed stores are replayed into the memory image
 * (trace::advanceImage), so every interval starts from the
 * architecturally correct memory state. The detailed core's own
 * functional image (OoOCore::takeArchImage) carries that state across
 * the interval itself.
 *
 * Determinism: interval boundaries are instruction indices derived
 * from (trace size, SampleSpec) alone — never wall time — and each
 * interval simulates a Trace::window seeded only by the spec, so
 * sampled CoreStats are bit-identical across job counts (ctest label
 * `mega`).
 *
 * Streaming: a streamed trace's window shares its v2 file, so the
 * core decodes the interval's chunks on demand and each instruction
 * is decoded once per run; sampling never materializes the
 * instruction stream.
 */

#ifndef DLVP_SIM_SAMPLER_HH
#define DLVP_SIM_SAMPLER_HH

#include <cstddef>
#include <cstdint>

#include "core/core_stats.hh"
#include "core/params.hh"
#include "sim/sample_spec.hh"
#include "trace/trace.hh"

namespace dlvp::sim
{

/** Aggregated outcome of one sampled run. */
struct SampledRun
{
    /** Field-wise sum of every interval's measured-region stats. */
    core::CoreStats stats;

    /** Intervals simulated (>= 1 for any non-empty trace). */
    std::size_t intervals = 0;

    /** Committed instructions inside measured regions. */
    std::uint64_t
    sampledInsts() const
    {
        return stats.committedInsts;
    }

    /** Cycles-per-instruction estimate over the measured regions. */
    double
    cpi() const
    {
        return stats.committedInsts == 0
                   ? 0.0
                   : static_cast<double>(stats.cycles) /
                         static_cast<double>(stats.committedInsts);
    }
};

/** |sampled - full| / full CPI; 0 when the full run committed nothing. */
double cpiError(const SampledRun &sampled, const core::CoreStats &full);

/**
 * Run @p vp over @p trace under interval sampling. Deterministic for
 * a given (trace, params, vp, sample); throws common::RunError for
 * invalid specs (period < warmup + measure, zero measure) and
 * propagates core RunErrors (deadlock, injected faults) to the caller
 * like Simulator::run does.
 */
SampledRun runSampled(const core::CoreParams &params,
                      const core::VpConfig &vp,
                      const trace::Trace &trace,
                      const SampleSpec &sample);

} // namespace dlvp::sim

#endif // DLVP_SIM_SAMPLER_HH
