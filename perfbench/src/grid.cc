/**
 * @file
 * Workload `grid`: the `dlvp_cli suite` grid through sim::runSweep —
 * every registered non-mega workload × baseline + the suite's eight
 * schemes, full detail, per-cell jobs on nproc - 1 threads (1 to 4).
 *
 * Set-up builds every trace into a private TraceStore. The measured
 * round is one runSweep over that store. The traced run drives the
 * same cells from benchmark code (TraceStore::acquire, then
 * Simulator::run per cell on the same number of threads) so each
 * cell's core time is a span; its rows must equal the runSweep rows.
 * Its rounds alternate between spans off and on, so the tracing
 * overhead compares two runs of that one loop.
 */

#include <algorithm>
#include <filesystem>
#include <memory>

#include "bench.hh"
#include "probes.hh"
#include "sim/configs.hh"
#include "sim/sweep.hh"
#include "trace/workloads.hh"

namespace perfbench
{

namespace
{

using dlvp::sim::TraceStore;

constexpr std::size_t kGridInsts = 60000;

std::vector<std::string>
gridWorkloads(std::uint64_t seed)
{
    std::vector<std::string> names;
    for (const auto &w : dlvp::trace::WorkloadRegistry::all())
        if (w.suite != "Mega")
            names.push_back(w.name);
    // The seed only reorders the grid: cells and results are fixed,
    // the schedule the pool sees is not.
    shuffle(names, seed);
    return names;
}

std::unique_ptr<TraceStore>
buildStore(const std::vector<std::string> &names, unsigned jobs,
           Spans &spans)
{
    auto store = std::make_unique<TraceStore>();
    const std::uint64_t parent = spans.current();
    parallelFor(names.size(), jobs, [&](std::size_t i) {
        try {
            spans.timeUnder(parent, "trace", "TraceStore::acquire",
                            [&] { store->acquire(names[i], kGridInsts); });
        } catch (const std::exception &) {
            // The cell rows of this workload report the failure.
        }
    });
    return store;
}

std::string
cellKey(const std::string &workload, const std::string &scheme)
{
    return workload + "/" + scheme;
}

struct Cell
{
    dlvp::core::CoreStats stats;
    dlvp::sim::RunPerf perf;
};

} // namespace

void
runGrid(const Options &opt, Report &report, Ops &ops, Spans &spans)
{
    const std::vector<std::string> names = gridWorkloads(opt.seed);
    const std::vector<std::string> &schemes = schemeNames();
    spans.setEnabled(opt.trace);

    // -- set-up: every trace, built again until the set-up budget ends -
    std::unique_ptr<TraceStore> store;
    const std::vector<double> setupWalls =
        runRounds(setupSeconds(opt), 3, [&] {
            store.reset();
            const auto t0 = Clock::now();
            store = buildStore(names, opt.jobs, spans);
            return secondsSince(t0);
        });
    const double buildSpanS = spans.layerSeconds("trace");
    spans.setEnabled(false);

    // -- untraced rounds: runSweep ------------------------------------
    dlvp::sim::SweepSpec spec;
    for (std::size_t i = 1; i < schemes.size(); ++i)
        spec.configs.push_back({schemes[i], schemeVp(schemes[i])});
    spec.workloads = names;
    spec.insts = kGridInsts;
    spec.core = dlvp::sim::baselineCore();
    spec.baseline = dlvp::sim::baselineVp();
    spec.jobs = opt.jobs;
    spec.store = store.get();
    spec.batch = false;

    std::map<std::string, std::uint64_t> digests; // first round's cells
    std::map<std::string, Cell> firstCells;
    std::vector<double> mips, cpus, busy, slowest;
    const double untracedBudget = opt.trace ? opt.seconds / 3 : opt.seconds;
    const std::vector<double> walls = runRounds(untracedBudget, 3, [&] {
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        const dlvp::sim::SweepResult res = dlvp::sim::runSweep(spec);
        const double wall = secondsSince(t0);
        cpus.push_back(processCpuSeconds() - cpu0);

        std::uint64_t uops = 0;
        double cellMs = 0.0, maxMs = 0.0;
        for (const auto &row : res.rows) {
            for (std::size_t s = 0; s < schemes.size(); ++s) {
                const bool isBase = s == 0;
                const auto &outcome =
                    isBase ? row.baselineOutcome : row.outcomes[s - 1];
                const auto &stats = isBase ? row.baseline : row.results[s - 1];
                const auto &perf = isBase ? row.baselinePerf : row.perf[s - 1];
                const std::string key = cellKey(row.workload, schemes[s]);
                if (!outcome.ok()) {
                    ops.fail(key + ": " +
                             dlvp::sim::jobStatusName(outcome.status) + " " +
                             outcome.error);
                    continue;
                }
                const std::uint64_t d = statsDigest(stats);
                const auto [it, fresh] = digests.emplace(key, d);
                if (fresh)
                    firstCells[key] = {stats, perf};
                ops.check(it->second == d,
                          key + ": CoreStats differ between repeats");
                uops += kGridInsts;
                cellMs += perf.wallMs;
                maxMs = std::max(maxMs, perf.wallMs);
            }
        }
        mips.push_back(1e-6 * static_cast<double>(uops) / wall);
        busy.push_back(cellMs / 1e3 / (opt.jobs * wall));
        slowest.push_back(maxMs);
        return wall;
    });

    report.e2e("setup_s", median(setupWalls), "s");
    report.e2e("wall_s", median(walls), "s");
    report.e2e("sim_mips", median(mips), "MIPS");
    report.e2e("cpu_s", median(cpus), "s");
    report.e2e("peak_rss_mb", selfPeakRssMb(), "MB");
    report.add("grid.cells_per_round",
               static_cast<double>(names.size() * schemes.size()), "count");
    report.add("grid.rounds", static_cast<double>(walls.size()), "count");

    // Exact counts and the simulated-results block from round one.
    SchemeTable table;
    for (const std::string &w : names) {
        std::map<std::string, dlvp::core::CoreStats> stats;
        std::map<std::string, dlvp::sim::RunPerf> perf;
        for (const std::string &s : schemes)
            if (const auto it = firstCells.find(cellKey(w, s));
                it != firstCells.end()) {
                stats[s] = it->second.stats;
                perf[s] = it->second.perf;
            }
        if (stats.size() == schemes.size())
            addInputRuns(table, stats, perf, kGridInsts);
    }
    exactTotals(report, "grid", table);
    simulatedResultsBlock(report, table,
                          std::to_string(names.size()) + " grid workloads x " +
                              std::to_string(kGridInsts) + " uops, mean");
    if (!opt.trace) {
        deriveSchemeMetrics(report, table, 0.0);
        return;
    }

    // -- traced rounds: the same cells driven from benchmark code ------
    const dlvp::sim::Simulator simulator(dlvp::sim::baselineCore(),
                                         kGridInsts, store.get());
    std::vector<std::pair<std::string, std::string>> cells;
    for (const std::string &w : names)
        for (const std::string &s : schemes)
            cells.emplace_back(w, s);
    SchemeTable traced;
    double tracedCpu = 0.0;
    std::uint64_t tracedUops = 0;
    const TracedWalls tracedWalls =
        runTracedRounds(spans, 2 * opt.seconds / 3, [&](bool on) {
            std::vector<Cell> out(cells.size());
            std::vector<char> good(cells.size(), 0);
            const double cpu0 = processCpuSeconds();
            const auto t0 = Clock::now();
            const std::uint64_t round =
                on ? spans.open("bench", "grid round", 0) : 0;
            parallelFor(cells.size(), opt.jobs, [&](std::size_t i) {
                const auto &[w, s] = cells[i];
                try {
                    const auto trace = spans.timeUnder(
                        round, "trace", "TraceStore::acquire",
                        [&] { return store->acquire(w, kGridInsts); });
                    const dlvp::core::VpConfig vp = schemeVp(s);
                    spans.timeUnder(round, "core", "Simulator::run", [&] {
                        out[i].stats = simulator.run(*trace, vp, &out[i].perf);
                    });
                    good[i] = 1;
                } catch (const std::exception &) {
                    // good[i] stays 0: counted as a failed cell below.
                }
            });
            if (on)
                spans.close(round);
            const double wall = secondsSince(t0);
            if (!on) {
                tracedCpu += processCpuSeconds() - cpu0;
                tracedUops += cells.size() * kGridInsts;
            }

            traced.clear();
            std::map<std::string, dlvp::core::CoreStats> stats;
            std::map<std::string, dlvp::sim::RunPerf> perf;
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const std::string key = cellKey(cells[i].first,
                                                cells[i].second);
                const auto d = digests.find(key);
                ops.check(good[i] && d != digests.end() &&
                              d->second == statsDigest(out[i].stats),
                          key + ": traced cell differs from runSweep");
                if (good[i]) {
                    stats[cells[i].second] = out[i].stats;
                    perf[cells[i].second] = out[i].perf;
                }
                if (cells[i].second == schemes.back()) {
                    if (stats.size() == schemes.size())
                        addInputRuns(traced, stats, perf, kGridInsts);
                    stats.clear();
                    perf.clear();
                }
            }
            return wall;
        });
    spanMetrics(report, spans, opt.jobs, tracedWalls, {"trace", "core"});
    report.add("grid.driver_delta_s",
               median(tracedWalls.off) - median(walls), "s");
    deriveSchemeMetrics(report, traced,
                        tracedUops == 0 ? 0.0
                                        : 1e9 * tracedCpu /
                                              static_cast<double>(tracedUops));
    report.layer("trace.build_ns_per_uop",
                 1e9 * buildSpanS /
                     static_cast<double>(setupWalls.size() * names.size() *
                                         kGridInsts),
                 "ns");
    report.layer("sim.pool_busy_ratio", median(busy), "ratio");
    report.layer("sim.slowest_cell_ms", median(slowest), "ms");

    // -- layer probes over the grid's own traces -----------------------
    std::vector<std::shared_ptr<const dlvp::trace::Trace>> pinned;
    TraceList traces;
    for (const std::string &w : names) {
        pinned.push_back(store->acquire(w, kGridInsts));
        traces.push_back(pinned.back().get());
    }
    probeReplay(report, spans, traces);
    const std::string v2dir = opt.workDir + "/grid-v2";
    probeV2Decode(report, spans, probeV2Write(report, spans, traces, v2dir),
                  0);
    std::filesystem::remove_all(v2dir);
    probeSampled(report, spans, traces);
    std::vector<std::pair<std::string, std::string>> rows;
    for (const auto &[key, cell] : firstCells) {
        if (rows.size() == 64)
            break;
        rows.push_back(cacheRow(key, cell.stats, cell.perf));
    }
    probeResultCache(report, spans, rows, opt.workDir + "/grid-cache");
}

} // namespace perfbench
