/**
 * @file
 * Shared plumbing for the per-figure/table bench harnesses, built on
 * the parallel sweep engine (sim/sweep.hh): baseline + N configs × M
 * workloads become jobs on a thread pool (DLVP_JOBS env var, default
 * all hardware threads), with per-row output bit-identical to a
 * serial run. Traces are built once in the shared store and evicted
 * as soon as a workload's last job finishes to bound memory.
 *
 * Set DLVP_BENCH_JSON=<path> to also write the machine-readable
 * sweep report (schema dlvp-sweep-v1) for trajectory tracking.
 */

#ifndef DLVP_BENCH_BENCH_COMMON_HH
#define DLVP_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "core/core_stats.hh"
#include "sim/configs.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/workloads.hh"

namespace dlvp::bench
{

/** Instructions per workload for the experiment harnesses. */
inline constexpr std::size_t kBenchInsts = 300000;

/** Named configuration to evaluate. */
using Config = sim::SweepConfig;

/** One workload's results across all configurations. */
using WorkloadRow = sim::SweepRow;

/**
 * Run baseline + configs over @p workloads (all registered workloads
 * if empty) in parallel. Progress is reported as "k/N" lines on
 * stderr from an atomic completed-job counter — safe under
 * concurrency, unlike the old per-workload dot.
 */
inline std::vector<WorkloadRow>
runSuite(const std::vector<Config> &configs,
         std::vector<std::string> workloads = {},
         std::size_t insts = kBenchInsts)
{
    sim::SweepSpec spec;
    spec.configs = configs;
    spec.workloads = std::move(workloads);
    spec.insts = insts;
    spec.core = sim::baselineCore();
    spec.baseline = sim::baselineVp();
    spec.progress = [](std::size_t done, std::size_t total) {
        // One fputs per event: atomic at the stdio level, and the
        // count comes from the engine's shared counter, so lines are
        // monotonic per worker and max out at total/total.
        char buf[64];
        std::snprintf(buf, sizeof buf, "\r%zu/%zu jobs", done, total);
        std::fputs(buf, stderr);
        if (done == total)
            std::fputc('\n', stderr);
        std::fflush(stderr);
    };
    auto result = sim::runSweep(spec);
    // Per-job isolation (DESIGN.md §9): a failed cell is reported and
    // excluded from the means below, not fatal to the whole figure.
    if (result.failedJobs() != 0) {
        for (const auto &row : result.rows) {
            if (!row.baselineOutcome.ok())
                std::fprintf(stderr, "warn: %s/baseline: %s\n",
                             row.workload.c_str(),
                             row.baselineOutcome.error.c_str());
            for (std::size_t ci = 0; ci < row.outcomes.size(); ++ci)
                if (!row.outcomes[ci].ok())
                    std::fprintf(
                        stderr, "warn: %s/%s: %s\n",
                        row.workload.c_str(),
                        result.configNames[ci].c_str(),
                        row.outcomes[ci].error.c_str());
        }
        std::fprintf(stderr, "warn: %zu/%zu jobs failed\n",
                     result.failedJobs(),
                     result.rows.size() * (configs.size() + 1));
    }
    if (const char *path = std::getenv("DLVP_BENCH_JSON")) {
        std::ofstream os(path);
        if (os)
            sim::writeSweepJson(os, result);
        else
            std::fprintf(stderr,
                         "warn: cannot write DLVP_BENCH_JSON=%s\n",
                         path);
    }
    return std::move(result.rows);
}

/** Arithmetic-mean speedup of config @p idx across completed rows. */
inline double
meanSpeedup(const std::vector<WorkloadRow> &rows, std::size_t idx)
{
    std::vector<double> v;
    for (const auto &r : rows)
        if (r.cellOk(idx))
            v.push_back(sim::speedup(r.baseline, r.results[idx]));
    return sim::amean(v);
}

/** Arithmetic-mean of an arbitrary per-row metric. */
inline double
meanOf(const std::vector<WorkloadRow> &rows,
       const std::function<double(const WorkloadRow &)> &f)
{
    std::vector<double> v;
    for (const auto &r : rows)
        v.push_back(f(r));
    return sim::amean(v);
}

} // namespace dlvp::bench

#endif // DLVP_BENCH_BENCH_COMMON_HH
