/**
 * @file
 * Shared plumbing of the benchmark driver: clocks, outside-in spans,
 * the metric report, operation/failure accounting, and the helpers
 * that turn CoreStats totals into per-layer metrics.
 *
 * The driver links the simulator's libraries and calls their public
 * functions directly. Every span is recorded here, in benchmark code,
 * around such a call; nothing inside the simulator is instrumented.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/core_stats.hh"
#include "sim/simulator.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);

/** user+sys CPU seconds of this process (all threads). */
double processCpuSeconds();

/** CPU seconds of the calling thread. */
double threadCpuSeconds();

/** Peak resident set of this process in MB (ru_maxrss). */
double selfPeakRssMb();

/** Median (0 for an empty sample). */
double median(std::vector<double> v);

/** Linear-interpolated quantile @p q in [0, 1]. */
double quantile(std::vector<double> v, double q);

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for traces, caches and sockets. */
    std::string workDir;
    /** Path of the dlvp_serve daemon binary. */
    std::string serveBin;
    /** Worker threads / client connections: nproc - 1 in [1, 4]. */
    unsigned jobs = 1;
};

/** splitmix64: the driver's only source of seeded choices. */
std::uint64_t mix64(std::uint64_t x);

/** Deterministic Fisher-Yates shuffle driven by @p seed. */
template <typename T>
void
shuffle(std::vector<T> &v, std::uint64_t seed)
{
    for (std::size_t i = v.size(); i > 1; --i) {
        seed = mix64(seed);
        std::swap(v[i - 1], v[seed % i]);
    }
}

/**
 * In-memory span log. A span is one call from benchmark code into a
 * module (layer = trace, pred, mem, core, sim, serve) or one measured
 * round (layer = bench). Spans nest through a per-thread stack, or
 * through an explicit parent for work handed to another thread.
 * Disabled, time() is a plain call: the untraced run pays nothing.
 */
class Spans
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        std::uint64_t parent = 0; ///< 0 = top level
        std::string layer;
        std::string name;
        double start = 0.0; ///< seconds since the log's epoch
        double end = 0.0;
        unsigned thread = 0;
    };

    void setEnabled(bool on) { enabled_ = on; }

    /** Innermost open span on this thread (0 if none). */
    std::uint64_t current() const;

    /** Open a span; returns its id (0 when disabled). */
    std::uint64_t open(const char *layer, const std::string &name,
                       std::uint64_t parent);
    void close(std::uint64_t id);

    /** Run @p f inside a span whose parent is this thread's current. */
    template <typename F>
    decltype(auto)
    time(const char *layer, const std::string &name, F &&f)
    {
        return timeUnder(current(), layer, name, std::forward<F>(f));
    }

    /** Run @p f inside a span under an explicit @p parent. */
    template <typename F>
    decltype(auto)
    timeUnder(std::uint64_t parent, const char *layer,
              const std::string &name, F &&f)
    {
        struct Guard
        {
            Spans *log;
            std::uint64_t id;
            ~Guard()
            {
                if (id != 0)
                    log->close(id);
            }
        } guard{this, enabled_ ? open(layer, name, parent) : 0};
        return f();
    }

    /** Sum of durations of closed spans of @p layer. */
    double layerSeconds(const std::string &layer) const;

    /** Closed spans (copy). */
    std::vector<Span> snapshot() const;

    /** Write every span as one JSON object per line. */
    bool writeJsonl(const std::string &path) const;

  private:
    bool enabled_ = false;
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex m_;
    std::vector<Span> spans_;      ///< by id - 1
    std::atomic<std::uint64_t> nextId_{1};
};

/** A metric value with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * What one run reports. `endToEnd` and `layers` become the JSON
 * result (untraced and traced run respectively); `info` lines are
 * workload-specific figures printed by name and unit but not part of
 * the gated result; `exact` holds deterministic simulated counts that
 * must repeat bit-identically across runs and builds.
 */
struct Report
{
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> layers;
    std::vector<std::pair<std::string, Metric>> info;
    std::map<std::string, double> exact;
    /** Free-form report lines (simulated-results block etc.). */
    std::vector<std::string> notes;

    void e2e(const std::string &n, double v, const std::string &u)
    {
        endToEnd[n] = {v, u};
    }
    void layer(const std::string &n, double v, const std::string &u)
    {
        layers[n] = {v, u};
    }
    void add(const std::string &n, double v, const std::string &u)
    {
        info.emplace_back(n, Metric{v, u});
    }
};

/** Attempted/failed operation counter with the first few reasons. */
class Ops
{
  public:
    void ok() { ++attempted_; }
    void fail(const std::string &why);
    /** ok() when @p good, else fail(@p why). */
    void check(bool good, const std::string &why)
    {
        good ? ok() : fail(why);
    }

    std::uint64_t attempted() const { return attempted_.load(); }
    std::uint64_t failed() const { return failed_.load(); }
    std::vector<std::string> reasons() const;

  private:
    std::atomic<std::uint64_t> attempted_{0};
    std::atomic<std::uint64_t> failed_{0};
    mutable std::mutex m_;
    std::vector<std::string> reasons_;
};

/** FNV-1a over every CoreStats field (X-macro driven). */
std::uint64_t statsDigest(const dlvp::core::CoreStats &s);

/** Baseline first, then the eight schemes `dlvp_cli suite` runs. */
const std::vector<std::string> &schemeNames();

/** VpConfig for a scheme name (baseline included). */
dlvp::core::VpConfig schemeVp(const std::string &name);

/** Full-detail runs of one scheme, summed over a workload's inputs. */
struct SchemeRuns
{
    dlvp::core::CoreStats sum;
    double wallMs = 0.0;
    std::uint64_t uops = 0;
    std::uint64_t cyclesSkipped = 0;
    /** Per input: baseline cycles / this scheme's cycles. */
    std::vector<double> speedups;
};

using SchemeTable = std::map<std::string, SchemeRuns>;

/**
 * Add one input's runs to @p table: @p stats and @p perf keyed by
 * scheme, @p uops the input's trace length.
 */
void addInputRuns(SchemeTable &table,
                  const std::map<std::string, dlvp::core::CoreStats> &stats,
                  const std::map<std::string, dlvp::sim::RunPerf> &perf,
                  std::uint64_t uops);

/**
 * Per-layer metrics derived from full-detail runs: core.run_ns_per_uop
 * and core.ipc / core.speedup per scheme, the exact pred.* and mem.*
 * counts, flush and skipped-cycle ratios. Deterministic ones also go
 * to report.exact.
 */
void deriveSchemeMetrics(Report &report, const SchemeTable &table,
                         double cpuNsPerUop);

/** Exact summed counts of @p table's schemes into report.exact. */
void exactTotals(Report &report, const std::string &prefix,
                 const SchemeTable &table);

/**
 * Mean speedup of dlvp/vtage/cap/tournament beside the paper's
 * figures, as report notes. @p source names the inputs.
 */
void simulatedResultsBlock(Report &report, const SchemeTable &table,
                           const std::string &source);

/**
 * Rounds of a measured operation until @p seconds elapse (at least
 * @p minRounds). @p round returns the measured wall seconds of the
 * round, which may exclude its own output checks.
 */
template <typename F>
std::vector<double>
runRounds(double seconds, unsigned minRounds, F &&round)
{
    std::vector<double> walls;
    const auto t0 = Clock::now();
    while (walls.size() < minRounds || secondsSince(t0) < seconds)
        walls.push_back(round());
    return walls;
}

/** Run @p fn(i) for i in [0, n) on @p jobs threads, next index first. */
template <typename F>
void
parallelFor(std::size_t n, unsigned jobs, F &&fn)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < jobs; ++t)
        threads.emplace_back([&] {
            for (std::size_t i = next++; i < n; i = next++)
                fn(i);
        });
    for (auto &t : threads)
        t.join();
}

/**
 * Set-up budget of a run: set-up repeats until a quarter of the
 * measured time has passed (at least three times) and reports the
 * median, so a slow first repetition does not decide set-up time.
 */
inline double
setupSeconds(const Options &opt)
{
    return 0.25 * opt.seconds;
}

/** Walls of the traced run's rounds, by whether spans were recorded. */
struct TracedWalls
{
    std::vector<double> off; ///< spans disabled
    std::vector<double> on;  ///< spans recorded
};

/**
 * The traced run's rounds: @p round(on) runs one round of the same
 * code, alternately with spans disabled and recorded, until @p seconds
 * elapse (at least two of each). Alternating keeps a drift in host
 * speed out of the difference of the two medians, which is the
 * tracing overhead.
 */
template <typename F>
TracedWalls
runTracedRounds(Spans &spans, double seconds, F &&round)
{
    TracedWalls walls;
    const auto t0 = Clock::now();
    while (walls.on.size() < 2 || secondsSince(t0) < seconds) {
        const bool on = walls.off.size() > walls.on.size();
        spans.setEnabled(on);
        (on ? walls.on : walls.off).push_back(round(on));
    }
    spans.setEnabled(false);
    return walls;
}

/**
 * Fill the span-derived per-layer metrics of a traced run: the self
 * time of each of @p layers (those the rounds call into) as a share of
 * the recorded rounds' thread-time, the part no span covers (`other`),
 * and the tracing overhead (median recorded round minus median round
 * of the same code with spans off).
 */
void spanMetrics(Report &report, const Spans &spans, unsigned threads,
                 const TracedWalls &walls,
                 const std::vector<std::string> &layers);

/**
 * (cache key, row) for the result-cache probe: @p key is
 * "workload/scheme", the row its dlvp-sweep-v1 cell fields.
 */
std::pair<std::string, std::string>
cacheRow(const std::string &key, const dlvp::core::CoreStats &stats,
         const dlvp::sim::RunPerf &perf);

/** Every workload entry point. */
void runGrid(const Options &opt, Report &report, Ops &ops, Spans &spans);
void runMegaStream(const Options &opt, Report &report, Ops &ops,
                   Spans &spans);
void runServe(const Options &opt, Report &report, Ops &ops,
              Spans &spans);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
