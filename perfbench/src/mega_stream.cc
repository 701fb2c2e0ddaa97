/**
 * @file
 * Workload `mega-stream`: the registry's mega-mix and mega-storm
 * recipes composed to dlvp-trace-v2 files in set-up, then streamed
 * from disk under interval sampling (baseline and dlvp) — the
 * `dlvp_cli runfile <file> --sample` path. A round makes each of the
 * four runs kRoundCopies times, on nproc - 1 threads (1 to 4) taking
 * the next run as they finish one: on a shared 4-vCPU VM each vCPU's
 * speed drifts on its own, and a single thread's round wall followed
 * one vCPU (IQR/median 0.30 over ten runs while the threaded grid read
 * 0.06).
 *
 * The traced run replays sim::runSampled's interval loop from
 * benchmark code (advanceImage, Trace::slice, OoOCore::run) so decode
 * and fast-forward time separate from detailed-core time; its stats
 * must equal runSampled's. Its rounds alternate between spans off and
 * on, so the tracing overhead compares two runs of that one loop.
 */

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>

#include "bench.hh"
#include "common/run_error.hh"
#include "core/core.hh"
#include "probes.hh"
#include "serve/cache.hh"
#include "sim/configs.hh"
#include "sim/sampler.hh"
#include "trace/mega.hh"
#include "trace/trace_v2.hh"

namespace perfbench
{

namespace
{

using dlvp::trace::ChunkedTraceFile;
using dlvp::trace::MegaSpec;
using dlvp::trace::Trace;

constexpr std::size_t kMegaInsts = 2000000;
/** Uops per mega trace the core and replay probes materialize. */
constexpr std::size_t kProbeInsts = 200000;
constexpr unsigned kRoundCopies = 6;

struct MegaInput
{
    MegaSpec spec;
    std::string path;
};

/** The registry's mega-mix / mega-storm recipes (trace/workloads.cc). */
std::vector<MegaInput>
megaInputs(const std::string &dir)
{
    auto recipe = [&](const char *name, std::vector<std::string> phases,
                      double density) {
        MegaInput in;
        in.spec.name = name;
        in.spec.suite = "Mega";
        in.spec.phases = std::move(phases);
        in.spec.totalInsts = kMegaInsts;
        in.spec.phaseInsts = std::max<std::size_t>(20000, kMegaInsts / 16);
        in.spec.conflictDensity = density;
        in.path = dir + "/" + name + ".v2";
        return in;
    };
    return {recipe("mega-mix", {"mcf", "perlbmk", "gzip", "crafty"}, 0.25),
            recipe("mega-storm", {"vpr", "vortex"}, 0.5)};
}

struct Run
{
    const MegaInput *input;
    std::string scheme;
};

/** Open @p path as a streamed trace, in a span under @p parent. */
std::shared_ptr<Trace>
openStreamed(Spans &spans, std::uint64_t parent, const std::string &path)
{
    return spans.timeUnder(parent, "trace", "ChunkedTraceFile::open", [&] {
        auto t = std::make_shared<Trace>();
        t->attachStream(ChunkedTraceFile::open(path));
        return t;
    });
}

/**
 * sim::runSampled's interval loop, one span under @p parent per module
 * call.
 */
dlvp::core::CoreStats
tracedSampled(Spans &spans, std::uint64_t parent, const Trace &trace,
              const dlvp::core::VpConfig &vp)
{
    const dlvp::sim::SampleSpec sample = defaultSample();
    const dlvp::core::CoreParams params = dlvp::sim::baselineCore();
    dlvp::core::CoreStats total;
    dlvp::trace::MemoryImage image = trace.initialImage;
    std::size_t pos = 0;
    for (std::size_t start = 0; start < trace.size();
         start += sample.periodInsts) {
        spans.timeUnder(parent, "trace", "advanceImage", [&] {
            dlvp::trace::advanceImage(image, trace, pos, start);
        });
        pos = start;
        const std::size_t avail = trace.size() - start;
        if (avail <= sample.warmupInsts)
            break;
        const std::size_t count =
            std::min(avail, sample.warmupInsts + sample.measureInsts);
        const Trace slice = spans.timeUnder(
            parent, "trace", "Trace::slice",
            [&] { return trace.slice(start, count, image); });
        spans.timeUnder(parent, "core", "OoOCore::run", [&] {
            dlvp::core::OoOCore core(params, vp, slice);
            total.accumulate(core.run(sample.warmupInsts));
        });
    }
    return total;
}

bool
sameInst(const dlvp::trace::TraceInst &a, const dlvp::trace::TraceInst &b)
{
    return a.pc == b.pc && a.cls == b.cls && a.loadKind == b.loadKind &&
           a.numSrcs == b.numSrcs &&
           std::equal(a.srcs, a.srcs + dlvp::trace::kMaxSrcs, b.srcs) &&
           a.numDests == b.numDests && a.destBase == b.destBase &&
           a.memSize == b.memSize && a.memAddr == b.memAddr &&
           a.storeValue == b.storeValue && a.destValue == b.destValue &&
           a.branchTarget == b.branchTarget && a.taken == b.taken;
}

std::map<dlvp::Addr, std::uint64_t>
pageHashes(const dlvp::trace::MemoryImage &image)
{
    std::map<dlvp::Addr, std::uint64_t> out;
    image.forEachPage([&](dlvp::Addr addr, const std::uint8_t *bytes) {
        out[addr] = dlvp::serve::fnv1a64(
            reinterpret_cast<const char *>(bytes),
            dlvp::trace::MemoryImage::kPageSize);
    });
    return out;
}

/** Does the decoded v2 file equal the in-memory buildMega trace? */
std::string
compareWithBuild(Spans &spans, const MegaInput &in)
{
    const Trace built = spans.time("trace", "buildMega",
                                   [&] { return dlvp::trace::buildMega(in.spec); });
    const auto file = ChunkedTraceFile::open(in.path);
    if (file->numInsts() != built.size())
        return "instruction count differs";
    if (pageHashes(file->initialImage()) != pageHashes(built.initialImage))
        return "initial memory image differs";
    for (std::uint64_t ci = 0; ci < file->numChunks(); ++ci) {
        const auto chunk = file->chunk(ci);
        const std::size_t base = file->chunkStart(ci);
        for (std::size_t j = 0; j < chunk->size(); ++j)
            if (!sameInst((*chunk)[j], built.insts[base + j]))
                return "instruction " + std::to_string(base + j) + " differs";
    }
    return {};
}

} // namespace

void
runMegaStream(const Options &opt, Report &report, Ops &ops, Spans &spans)
{
    const std::string dir = opt.workDir + "/mega";
    std::filesystem::create_directories(dir);
    const std::vector<MegaInput> inputs = megaInputs(dir);
    spans.setEnabled(opt.trace);

    // -- set-up: compose both traces to v2 until the budget ends -------
    const std::vector<double> setupWalls =
        runRounds(setupSeconds(opt), 3, [&] {
            const auto t0 = Clock::now();
            for (const MegaInput &in : inputs)
                spans.time("trace", "writeMegaV2", [&] {
                    dlvp::trace::writeMegaV2(in.spec, in.path);
                });
            return secondsSince(t0);
        });
    const double writeSpanS = spans.layerSeconds("trace");
    spans.setEnabled(false);

    std::vector<Run> runs;
    for (const MegaInput &in : inputs)
        for (const char *scheme : {"baseline", "dlvp"})
            runs.push_back({&in, scheme});
    shuffle(runs, opt.seed);
    std::vector<const Run *> tasks;
    for (unsigned c = 0; c < kRoundCopies; ++c)
        for (const Run &r : runs)
            tasks.push_back(&r);
    shuffle(tasks, opt.seed);

    // -- untraced rounds: stream + runSampled --------------------------
    const dlvp::sim::SampleSpec sample = defaultSample();
    const dlvp::core::CoreParams params = dlvp::sim::baselineCore();
    std::map<std::string, dlvp::core::CoreStats> first;
    std::vector<double> mips, cpus, busy, slowest, runNsPerUop;
    std::size_t peakCached = 0;
    double detailed = 0.0, streamed = 0.0;
    const double untracedBudget = opt.trace ? opt.seconds / 3 : opt.seconds;
    std::mutex m; // guards the tallies below across the round's threads
    const std::vector<double> walls = runRounds(untracedBudget, 3, [&] {
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        std::uint64_t uops = 0;
        double runS = 0.0, maxS = 0.0;
        parallelFor(tasks.size(), opt.jobs, [&](std::size_t i) {
            const Run &r = *tasks[i];
            const std::string key = r.input->spec.name + "/" + r.scheme;
            const auto r0 = Clock::now();
            try {
                const auto trace = openStreamed(spans, 0, r.input->path);
                const dlvp::sim::SampledRun out = dlvp::sim::runSampled(
                    params, schemeVp(r.scheme), *trace, sample);
                std::lock_guard<std::mutex> lock(m);
                peakCached = std::max(peakCached,
                                      trace->stream()->peakCachedChunks());
                const auto [it, fresh] = first.emplace(key, out.stats);
                ops.check(it->second == out.stats,
                          key + ": sampled stats differ between repeats");
                uops += trace->size();
                if (fresh) {
                    detailed += detailedUops(trace->size(), out.intervals,
                                             sample);
                    streamed += static_cast<double>(trace->size());
                }
            } catch (const dlvp::common::RunError &e) {
                ops.fail(key + ": " + e.describe());
            } catch (const std::exception &e) {
                ops.fail(key + ": " + e.what());
            }
            const double s = secondsSince(r0);
            std::lock_guard<std::mutex> lock(m);
            runS += s;
            maxS = std::max(maxS, s);
        });
        const double wall = secondsSince(t0);
        cpus.push_back(processCpuSeconds() - cpu0);
        mips.push_back(1e-6 * static_cast<double>(uops) / wall);
        busy.push_back(runS / (opt.jobs * wall));
        runNsPerUop.push_back(uops == 0 ? 0.0
                                        : 1e9 * runS /
                                              static_cast<double>(uops));
        slowest.push_back(1e3 * maxS);
        return wall;
    });

    report.e2e("setup_s", median(setupWalls), "s");
    report.e2e("wall_s", median(walls), "s");
    report.e2e("sim_mips", median(mips), "MIPS");
    report.e2e("cpu_s", median(cpus), "s");
    report.e2e("peak_rss_mb", selfPeakRssMb(), "MB");
    report.add("mega.uops_per_trace", static_cast<double>(kMegaInsts), "count");
    report.add("mega.rounds", static_cast<double>(walls.size()), "count");

    // -- correctness: decoded v2 stream == in-memory buildMega ---------
    spans.setEnabled(opt.trace);
    const double buildBefore = spans.layerSeconds("trace");
    for (const MegaInput &in : inputs) {
        std::string diff;
        try {
            diff = compareWithBuild(spans, in);
        } catch (const dlvp::common::RunError &e) {
            diff = e.describe();
        }
        ops.check(diff.empty(),
                  in.spec.name + ": decoded v2 differs from buildMega: " + diff);
    }
    const double buildSpanS = spans.layerSeconds("trace") - buildBefore;
    spans.setEnabled(false);

    SchemeTable sampled;
    for (const MegaInput &in : inputs) {
        const auto b = first.find(in.spec.name + "/baseline");
        const auto d = first.find(in.spec.name + "/dlvp");
        if (b == first.end() || d == first.end())
            continue;
        addInputRuns(sampled, {{"baseline", b->second}, {"dlvp", d->second}},
                     {}, kMegaInsts);
    }
    exactTotals(report, "mega", sampled);
    simulatedResultsBlock(report, sampled,
                          "mega-mix + mega-storm, sampled, mean");
    if (!opt.trace)
        return;

    // -- traced rounds: the sampler's loop from benchmark code ----------
    const TracedWalls tracedWalls =
        runTracedRounds(spans, 2 * opt.seconds / 3, [&](bool on) {
            const auto t0 = Clock::now();
            const std::uint64_t round =
                on ? spans.open("bench", "mega round", 0) : 0;
            parallelFor(tasks.size(), opt.jobs, [&](std::size_t i) {
                const Run &r = *tasks[i];
                const std::string key = r.input->spec.name + "/" + r.scheme;
                try {
                    const auto trace =
                        openStreamed(spans, round, r.input->path);
                    const dlvp::core::CoreStats s = tracedSampled(
                        spans, round, *trace, schemeVp(r.scheme));
                    const auto it = first.find(key);
                    ops.check(it != first.end() && it->second == s,
                              key + ": traced sampler differs from "
                                    "runSampled");
                } catch (const dlvp::common::RunError &e) {
                    ops.fail(key + ": " + e.describe());
                } catch (const std::exception &e) {
                    ops.fail(key + ": " + e.what());
                }
            });
            if (on)
                spans.close(round);
            return secondsSince(t0);
        });
    spanMetrics(report, spans, opt.jobs, tracedWalls, {"trace", "core"});
    report.add("mega.driver_delta_s",
               median(tracedWalls.off) - median(walls), "s");

    std::uint64_t fileBytes = 0;
    for (const MegaInput &in : inputs)
        fileBytes += std::filesystem::file_size(in.path);
    report.layer("trace.v2_write_mb_s",
                 writeSpanS > 0 ? 1e-6 *
                                      static_cast<double>(setupWalls.size() *
                                                          fileBytes) /
                                      writeSpanS
                                : 0.0,
                 "MB/s");
    report.layer("trace.build_ns_per_uop",
                 1e9 * buildSpanS /
                     static_cast<double>(inputs.size() * kMegaInsts),
                 "ns");
    std::vector<std::string> paths;
    for (const MegaInput &in : inputs)
        paths.push_back(in.path);
    probeV2Decode(report, spans, paths, peakCached);
    report.layer("sim.sampled_ns_per_uop", median(runNsPerUop), "ns");
    report.layer("sim.detail_fraction",
                 streamed > 0 ? detailed / streamed : 0.0, "ratio");
    report.layer("sim.pool_busy_ratio", median(busy), "ratio");
    report.layer("sim.slowest_cell_ms", median(slowest), "ms");

    // -- layer probes over materialized prefixes of both traces ---------
    std::vector<Trace> slices;
    for (const MegaInput &in : inputs) {
        const auto t = openStreamed(spans, spans.current(), in.path);
        slices.push_back(t->slice(0, kProbeInsts, t->initialImage));
    }
    TraceList traces;
    for (const Trace &t : slices)
        traces.push_back(&t);
    probeReplay(report, spans, traces);
    SchemeTable full;
    const double cpuNs = probeCore(spans, traces, full);
    deriveSchemeMetrics(report, full, cpuNs);
    std::vector<std::pair<std::string, std::string>> rows;
    for (const auto &[key, stats] : first)
        rows.push_back(cacheRow(key, stats, {}));
    probeResultCache(report, spans, rows, opt.workDir + "/mega-cache");
}

} // namespace perfbench
