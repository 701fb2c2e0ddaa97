/**
 * @file
 * Layer probes of the traced run: fixed passes over a workload's own
 * traces that time one module's public functions at a time (memory
 * image replay, predictor drivers, cache hierarchy replay, v2
 * write/decode, result-cache put/get/recover, full-detail and sampled
 * simulation). Each call sits inside a span of its layer.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <string>
#include <utility>
#include <vector>

#include "bench.hh"
#include "sim/sample_spec.hh"
#include "trace/trace.hh"

namespace perfbench
{

using TraceList = std::vector<const dlvp::trace::Trace *>;

/**
 * trace.image_read_ns / image_write_ns / pages_touched,
 * pred.{pap,cap,vtage}_ns_per_load, mem.load_access_ns / probe_ns.
 */
void probeReplay(Report &report, Spans &spans, const TraceList &traces);

/** v2-save every trace under @p dir; returns the file paths. */
std::vector<std::string> probeV2Write(Report &report, Spans &spans,
                                      const TraceList &traces,
                                      const std::string &dir);

/**
 * trace.v2_decode_mb_s (ChunkedTraceFile::chunk over every chunk),
 * trace.v2_bytes_per_uop, trace.peak_cached_chunks over @p paths.
 * @p peakCached seeds the chunk high-water mark (streamed runs).
 */
void probeV2Decode(Report &report, Spans &spans,
                   const std::vector<std::string> &paths,
                   std::size_t peakCached);

/**
 * serve.cache_put_us / cache_get_us / recover_ms: put every
 * (key, row) into a fresh ResultCache under @p dir, look each up, then
 * reopen the cache (crash recovery over every entry).
 */
void probeResultCache(Report &report, Spans &spans,
                      const std::vector<std::pair<std::string, std::string>>
                          &rows,
                      const std::string &dir);

/**
 * Full-detail Simulator::run of every scheme over @p traces. Adds the
 * runs to @p table and returns the CPU ns per simulated uop.
 */
double probeCore(Spans &spans, const TraceList &traces, SchemeTable &table);

/**
 * Uops a sampled run of @p n uops simulated in detail: warm-up +
 * measure per interval runSampled reports, capped at @p n (exact
 * unless the trace's end cuts the last interval short).
 */
double detailedUops(std::size_t n, std::size_t intervals,
                    const dlvp::sim::SampleSpec &s);

/** sim.sampled_ns_per_uop / sim.detail_fraction: dlvp over @p traces. */
void probeSampled(Report &report, Spans &spans, const TraceList &traces);

/** The interval-sampling spec `dlvp_cli --sample` uses. */
dlvp::sim::SampleSpec defaultSample();

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
