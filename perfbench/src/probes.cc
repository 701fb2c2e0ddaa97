#include "probes.hh"

#include <algorithm>
#include <filesystem>

#include "mem/hierarchy.hh"
#include "serve/cache.hh"
#include "sim/addr_pred_driver.hh"
#include "sim/configs.hh"
#include "sim/sampler.hh"
#include "trace/trace_v2.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using dlvp::trace::OpClass;
using dlvp::trace::Trace;
using dlvp::trace::TraceInst;

namespace
{

/** Seconds spent in @p f, inside a span of @p layer. */
template <typename F>
double
timed(Spans &spans, const char *layer, const std::string &name, F &&f)
{
    const auto t0 = Clock::now();
    spans.time(layer, name, std::forward<F>(f));
    return secondsSince(t0);
}

double
perOp(double seconds, std::uint64_t ops, double scale)
{
    return ops == 0 ? 0.0 : scale * seconds / static_cast<double>(ops);
}

/** Keeps replayed values observable so the loops are not elided. */
volatile std::uint64_t g_sink = 0;

} // namespace

dlvp::sim::SampleSpec
defaultSample()
{
    dlvp::sim::SampleSpec s;
    s.enabled = true;
    return s;
}

void
probeReplay(Report &report, Spans &spans, const TraceList &traces)
{
    double readS = 0, writeS = 0, papS = 0, capS = 0, vtageS = 0;
    double loadS = 0, probeS = 0;
    std::uint64_t reads = 0, writes = 0, pages = 0, papLoads = 0;
    std::uint64_t capLoads = 0, vtageLoads = 0, accesses = 0, probes = 0;
    const dlvp::core::CoreParams params = dlvp::sim::baselineCore();
    for (const Trace *t : traces) {
        // MemoryImage: the trace's own load stream, then its stores.
        dlvp::trace::MemoryImage image = t->initialImage;
        readS += timed(spans, "trace", "MemoryImage::read", [&] {
            std::uint64_t sum = 0;
            for (const TraceInst &inst : t->insts)
                if (inst.isLoad())
                    for (unsigned d = 0; d < inst.numDests; ++d) {
                        sum += image.read(inst.memAddr + d * inst.memSize,
                                          std::min<unsigned>(inst.memSize, 8));
                        ++reads;
                    }
            g_sink = g_sink + sum;
        });
        writeS += timed(spans, "trace", "MemoryImage::write", [&] {
            for (const TraceInst &inst : t->insts)
                if (inst.isStore() || inst.cls == OpClass::Atomic) {
                    image.write(inst.memAddr, inst.storeValue, inst.memSize);
                    ++writes;
                }
        });
        pages += image.numPages();

        papS += timed(spans, "pred", "drivePap", [&] {
            papLoads += dlvp::sim::drivePap(*t).loads;
        });
        capS += timed(spans, "pred", "driveCap", [&] {
            capLoads += dlvp::sim::driveCap(*t, dlvp::pred::CapParams{}).loads;
        });
        vtageS += timed(spans, "pred", "driveValuePred(vtage)", [&] {
            vtageLoads += dlvp::sim::driveValuePred(
                              *t, dlvp::sim::ValuePredKind::Vtage)
                              .loads;
        });

        // Hierarchy: demand loads and committed stores in program
        // order at one instruction per cycle, then DLVP probes of the
        // same load addresses against the warmed L1D.
        dlvp::mem::MemoryHierarchy hier(params.memory);
        loadS += timed(spans, "mem", "loadAccess/storeCommit", [&] {
            dlvp::Cycle now = 0;
            std::uint64_t lat = 0;
            for (const TraceInst &inst : t->insts) {
                ++now;
                if (inst.isLoad()) {
                    lat += hier.loadAccess(inst.pc, inst.memAddr, now).latency;
                    ++accesses;
                } else if (inst.isStore()) {
                    hier.storeCommit(inst.memAddr, now);
                    ++accesses;
                }
            }
            g_sink = g_sink + lat;
        });
        probeS += timed(spans, "mem", "probe", [&] {
            std::uint64_t hits = 0;
            for (const TraceInst &inst : t->insts)
                if (inst.isLoad()) {
                    hits += hier.probe(inst.memAddr, -1).hit;
                    ++probes;
                }
            g_sink = g_sink + hits;
        });
    }
    report.layer("trace.image_read_ns", perOp(readS, reads, 1e9), "ns");
    report.layer("trace.image_write_ns", perOp(writeS, writes, 1e9), "ns");
    report.layer("trace.pages_touched", static_cast<double>(pages), "count");
    report.exact["trace.pages_touched"] = static_cast<double>(pages);
    report.layer("pred.pap_ns_per_load", perOp(papS, papLoads, 1e9), "ns");
    report.layer("pred.cap_ns_per_load", perOp(capS, capLoads, 1e9), "ns");
    report.layer("pred.vtage_ns_per_load", perOp(vtageS, vtageLoads, 1e9),
                 "ns");
    report.layer("mem.load_access_ns", perOp(loadS, accesses, 1e9), "ns");
    report.layer("mem.probe_ns", perOp(probeS, probes, 1e9), "ns");
}

std::vector<std::string>
probeV2Write(Report &report, Spans &spans, const TraceList &traces,
             const std::string &dir)
{
    fs::create_directories(dir);
    std::vector<std::string> paths;
    double seconds = 0.0;
    std::uint64_t bytes = 0;
    for (const Trace *t : traces) {
        const std::string path =
            dir + "/" + std::to_string(paths.size()) + ".v2";
        seconds += timed(spans, "trace", "saveTraceFileV2", [&] {
            if (!dlvp::trace::saveTraceFileV2(*t, path))
                throw std::runtime_error("cannot write " + path);
        });
        bytes += fs::file_size(path);
        paths.push_back(path);
    }
    report.layer("trace.v2_write_mb_s",
                 seconds > 0 ? 1e-6 * static_cast<double>(bytes) / seconds
                             : 0.0,
                 "MB/s");
    return paths;
}

void
probeV2Decode(Report &report, Spans &spans,
              const std::vector<std::string> &paths, std::size_t peakCached)
{
    double seconds = 0.0;
    std::uint64_t encoded = 0, fileBytes = 0, insts = 0;
    for (const std::string &path : paths) {
        const auto file = dlvp::trace::ChunkedTraceFile::open(path);
        seconds += timed(spans, "trace", "ChunkedTraceFile::chunk", [&] {
            std::uint64_t n = 0;
            for (std::uint64_t ci = 0; ci < file->numChunks(); ++ci)
                n += file->chunk(ci)->size();
            g_sink = g_sink + n;
        });
        encoded += file->encodedBytes();
        fileBytes += file->fileBytes();
        insts += file->numInsts();
        peakCached = std::max(peakCached, file->peakCachedChunks());
    }
    report.layer("trace.v2_decode_mb_s",
                 seconds > 0 ? 1e-6 * static_cast<double>(encoded) / seconds
                             : 0.0,
                 "MB/s");
    const double bpu = insts == 0 ? 0.0
                                  : static_cast<double>(fileBytes) /
                                        static_cast<double>(insts);
    report.layer("trace.v2_bytes_per_uop", bpu, "B");
    report.exact["trace.v2_bytes_per_uop"] = bpu;
    report.layer("trace.peak_cached_chunks", static_cast<double>(peakCached),
                 "count");
}

void
probeResultCache(Report &report, Spans &spans,
                 const std::vector<std::pair<std::string, std::string>> &rows,
                 const std::string &dir)
{
    fs::remove_all(dir);
    double putS = 0.0, getS = 0.0, recoverS = 0.0;
    {
        dlvp::serve::ResultCache cache(dir);
        for (const auto &[key, row] : rows)
            putS += timed(spans, "serve", "ResultCache::put",
                          [&] { cache.put(key, row); });
        for (const auto &[key, row] : rows)
            getS += timed(spans, "serve", "ResultCache::lookup", [&] {
                const auto hit = cache.lookup(key);
                if (hit.payload != row)
                    throw std::runtime_error("result cache lost a row");
            });
    }
    recoverS = timed(spans, "serve", "ResultCache(recover)", [&] {
        dlvp::serve::ResultCache reopened(dir);
        if (reopened.stats().recoveredEntries != rows.size())
            throw std::runtime_error("result cache recovery lost entries");
    });
    report.layer("serve.cache_put_us", perOp(putS, rows.size(), 1e6), "us");
    report.layer("serve.cache_get_us", perOp(getS, rows.size(), 1e6), "us");
    report.layer("serve.recover_ms", 1e3 * recoverS, "ms");
    fs::remove_all(dir);
}

double
probeCore(Spans &spans, const TraceList &traces, SchemeTable &table)
{
    const dlvp::sim::Simulator simulator(dlvp::sim::baselineCore(), 0);
    const double cpu0 = threadCpuSeconds();
    std::uint64_t uops = 0;
    for (const Trace *t : traces) {
        std::map<std::string, dlvp::core::CoreStats> stats;
        std::map<std::string, dlvp::sim::RunPerf> perf;
        for (const std::string &name : schemeNames()) {
            const dlvp::core::VpConfig vp = schemeVp(name);
            spans.time("core", "Simulator::run", [&] {
                stats[name] = simulator.run(*t, vp, &perf[name]);
            });
            uops += t->size();
        }
        addInputRuns(table, stats, perf, t->size());
    }
    return uops == 0 ? 0.0
                     : 1e9 * (threadCpuSeconds() - cpu0) /
                           static_cast<double>(uops);
}

double
detailedUops(std::size_t n, std::size_t intervals,
             const dlvp::sim::SampleSpec &s)
{
    return static_cast<double>(
        std::min(n, intervals * (s.warmupInsts + s.measureInsts)));
}

void
probeSampled(Report &report, Spans &spans, const TraceList &traces)
{
    const dlvp::sim::SampleSpec sample = defaultSample();
    const dlvp::core::VpConfig vp = schemeVp("dlvp");
    const dlvp::core::CoreParams params = dlvp::sim::baselineCore();
    double seconds = 0.0, detailed = 0.0, uops = 0.0;
    for (const Trace *t : traces) {
        std::size_t intervals = 0;
        seconds += timed(spans, "sim", "runSampled", [&] {
            const dlvp::sim::SampledRun run =
                dlvp::sim::runSampled(params, vp, *t, sample);
            g_sink = g_sink + run.stats.cycles;
            intervals = run.intervals;
        });
        detailed += detailedUops(t->size(), intervals, sample);
        uops += static_cast<double>(t->size());
    }
    report.layer("sim.sampled_ns_per_uop", uops > 0 ? 1e9 * seconds / uops : 0.0,
                 "ns");
    report.layer("sim.detail_fraction", uops > 0 ? detailed / uops : 0.0,
                 "ratio");
}

} // namespace perfbench
