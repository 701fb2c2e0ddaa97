/**
 * @file
 * Interval sampling parameters, kept apart from sampler.hh so that
 * SweepSpec / SweepResult (sim/sweep.hh) can embed a SampleSpec
 * without depending on the sampler's run API.
 */

#ifndef DLVP_SIM_SAMPLE_SPEC_HH
#define DLVP_SIM_SAMPLE_SPEC_HH

#include <cstddef>

namespace dlvp::sim
{

/**
 * Interval sampling parameters (see sim/sampler.hh).
 *
 * The defaults are tuned for phase-composed mega traces
 * (trace/mega.hh, 60k-uop phase occurrences): the period is an
 * occurrence-aligned stride of 3 occurrences — coprime to the 4-phase
 * rotation, so consecutive samples hit different workloads — and
 * warmup + measure fit inside one occurrence, so the measured region
 * never crosses into a phase whose PC-indexed predictor state the
 * warmup did not train (restarting a core cold costs ~40k cycles of
 * retraining; letting that transient into the measured region is the
 * dominant sampling error, see EXPERIMENTS.md).
 */
struct SampleSpec
{
    /** Master switch (sweeps carry a SampleSpec unconditionally). */
    bool enabled = false;

    /** Detailed-warmup instructions per interval (stats discarded). */
    std::size_t warmupInsts = 40000;

    /** Measured instructions per interval (stats accumulated). */
    std::size_t measureInsts = 20000;

    /** Distance between interval starts; must cover warmup+measure. */
    std::size_t periodInsts = 180000;

    /**
     * Also run the full trace and record the sampled-vs-full CPI
     * error. Costs a full detailed run — for validation sweeps
     * (EXPERIMENTS.md), not production sampling.
     */
    bool check = false;
};

} // namespace dlvp::sim

#endif // DLVP_SIM_SAMPLE_SPEC_HH
