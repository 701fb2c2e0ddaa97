#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <sstream>

#include <sys/resource.h>

#include "serve/cache.hh"
#include "sim/configs.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

namespace
{

thread_local std::vector<std::uint64_t> t_openSpans;

unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local const unsigned index = next++;
    return index;
}

} // namespace

std::uint64_t
Spans::current() const
{
    return t_openSpans.empty() ? 0 : t_openSpans.back();
}

std::uint64_t
Spans::open(const char *layer, const std::string &name,
            std::uint64_t parent)
{
    Span s;
    s.id = nextId_++;
    const std::uint64_t id = s.id;
    s.parent = parent;
    s.layer = layer;
    s.name = name;
    s.thread = threadIndex();
    s.start = secondsSince(epoch_);
    {
        std::lock_guard<std::mutex> lock(m_);
        if (spans_.size() < s.id)
            spans_.resize(s.id);
        spans_[s.id - 1] = std::move(s);
    }
    t_openSpans.push_back(id);
    return id;
}

void
Spans::close(std::uint64_t id)
{
    const double end = secondsSince(epoch_);
    {
        std::lock_guard<std::mutex> lock(m_);
        spans_[id - 1].end = end;
    }
    if (!t_openSpans.empty() && t_openSpans.back() == id)
        t_openSpans.pop_back();
}

double
Spans::layerSeconds(const std::string &layer) const
{
    std::lock_guard<std::mutex> lock(m_);
    double total = 0.0;
    for (const Span &s : spans_)
        if (s.id != 0 && s.layer == layer && s.end >= s.start)
            total += s.end - s.start;
    return total;
}

std::vector<Spans::Span>
Spans::snapshot() const
{
    std::lock_guard<std::mutex> lock(m_);
    std::vector<Span> out;
    for (const Span &s : spans_)
        if (s.id != 0)
            out.push_back(s);
    return out;
}

bool
Spans::writeJsonl(const std::string &path) const
{
    std::ofstream os(path);
    os << std::setprecision(9);
    for (const Span &s : snapshot())
        os << "{\"id\": " << s.id << ", \"parent\": " << s.parent
           << ", \"layer\": \"" << s.layer << "\", \"name\": \"" << s.name
           << "\", \"thread\": " << s.thread << ", \"start_s\": "
           << s.start << ", \"end_s\": " << s.end << "}\n";
    return static_cast<bool>(os);
}

void
spanMetrics(Report &report, const Spans &spans, unsigned threads,
            const TracedWalls &walls, const std::vector<std::string> &layers)
{
    const std::vector<Spans::Span> all = spans.snapshot();
    std::map<std::uint64_t, const Spans::Span *> byId;
    std::map<std::uint64_t, double> childSeconds;
    for (const auto &s : all) {
        byId[s.id] = &s;
        childSeconds[s.parent] += s.end - s.start;
    }
    // A span counts when it is a round or descends from one; layer
    // self time = own duration minus its direct children's.
    auto inRound = [&](const Spans::Span &s) {
        for (const Spans::Span *p = &s; p != nullptr;) {
            if (p->layer == "bench")
                return true;
            const auto it = byId.find(p->parent);
            p = it == byId.end() ? nullptr : it->second;
        }
        return false;
    };
    std::map<std::string, double> self;
    double threadTime = 0.0;
    std::size_t rounds = 0;
    for (const auto &s : all) {
        if (!inRound(s))
            continue;
        double dur = s.end - s.start;
        if (s.layer == "bench") {
            dur *= threads;
            threadTime += dur;
            ++rounds;
        }
        self[s.layer] += dur - childSeconds[s.id];
    }
    if (threadTime <= 0.0)
        return;
    for (const std::string &layer : layers)
        report.layer("span." + layer + "_share", self[layer] / threadTime,
                     "ratio");
    report.layer("span.other_share", self["bench"] / threadTime, "ratio");
    report.layer("span.other_s",
                 self["bench"] / threads / static_cast<double>(rounds),
                 "s");
    report.layer("tracing_overhead_s",
                 median(walls.on) - median(walls.off), "s");
}

// ---------------------------------------------------------------------
// Ops
// ---------------------------------------------------------------------

void
Ops::fail(const std::string &why)
{
    ++attempted_;
    ++failed_;
    std::lock_guard<std::mutex> lock(m_);
    if (reasons_.size() < 8)
        reasons_.push_back(why);
}

std::vector<std::string>
Ops::reasons() const
{
    std::lock_guard<std::mutex> lock(m_);
    return reasons_;
}

// ---------------------------------------------------------------------
// CoreStats helpers
// ---------------------------------------------------------------------

std::uint64_t
statsDigest(const dlvp::core::CoreStats &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto feed = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
#define PERFBENCH_DIGEST_FIELD(f) feed(static_cast<std::uint64_t>(s.f));
    DLVP_CORE_STATS_FIELDS(PERFBENCH_DIGEST_FIELD)
#undef PERFBENCH_DIGEST_FIELD
    return h;
}

const std::vector<std::string> &
schemeNames()
{
    static const std::vector<std::string> names = {
        "baseline", "dlvp",       "cap",    "stride-dlvp", "vtage",
        "dvtage",   "tournament", "balcvp", "hermes"};
    return names;
}

dlvp::core::VpConfig
schemeVp(const std::string &name)
{
    if (name == "baseline")
        return dlvp::sim::baselineVp();
    dlvp::core::VpConfig vp;
    dlvp::sim::configByName(name, vp);
    return vp;
}

void
addInputRuns(SchemeTable &table,
             const std::map<std::string, dlvp::core::CoreStats> &stats,
             const std::map<std::string, dlvp::sim::RunPerf> &perf,
             std::uint64_t uops)
{
    const auto base = stats.find("baseline");
    for (const auto &[name, s] : stats) {
        SchemeRuns &r = table[name];
        r.sum.accumulate(s);
        r.uops += uops;
        if (const auto p = perf.find(name); p != perf.end()) {
            r.wallMs += p->second.wallMs;
            r.cyclesSkipped += p->second.cyclesSkipped;
        }
        if (base != stats.end() && s.cycles > 0)
            r.speedups.push_back(dlvp::sim::speedup(base->second, s));
    }
}

std::pair<std::string, std::string>
cacheRow(const std::string &key, const dlvp::core::CoreStats &stats,
         const dlvp::sim::RunPerf &perf)
{
    std::ostringstream os;
    os << std::setprecision(12) << "{\"cell\": \""
       << dlvp::sim::jsonEscape(key) << "\", ";
    dlvp::sim::writeCellFieldsJson(os, dlvp::sim::JobOutcome{}, stats, perf,
                                   nullptr);
    os << "}";
    return {dlvp::serve::hex16(dlvp::serve::fnv1a64(key.data(), key.size())),
            os.str()};
}

namespace
{

double
ratio(std::uint64_t num, std::uint64_t den, double scale = 1.0)
{
    return den == 0 ? 0.0
                    : scale * static_cast<double>(num) /
                          static_cast<double>(den);
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

} // namespace

void
deriveSchemeMetrics(Report &report, const SchemeTable &table,
                    double cpuNsPerUop)
{
    auto exactLayer = [&report](const std::string &n, double v,
                                const std::string &u) {
        report.layer(n, v, u);
        report.exact[n] = v;
    };
    std::uint64_t skipped = 0, uops = 0;
    for (const std::string &name : schemeNames()) {
        const auto it = table.find(name);
        if (it == table.end())
            continue;
        const SchemeRuns &r = it->second;
        report.layer("core.run_ns_per_uop." + name,
                     r.uops == 0 ? 0.0
                                 : 1e6 * r.wallMs /
                                       static_cast<double>(r.uops),
                     "ns");
        exactLayer("core.ipc." + name, r.sum.ipc(), "ipc");
        if (name != "baseline")
            exactLayer("core.speedup." + name, mean(r.speedups), "x");
        skipped += r.cyclesSkipped;
        uops += r.uops;
    }
    report.layer("core.run_cpu_ns_per_uop", cpuNsPerUop, "ns");
    // RunPerf counts skipped cycles over the whole run, warm-up
    // included, so they are normalised by every simulated uop.
    exactLayer("core.skipped_cycles_per_uop", ratio(skipped, uops),
               "cycles/uop");

    const auto dl = table.find("dlvp");
    const auto bl = table.find("baseline");
    if (dl == table.end() || bl == table.end())
        return;
    const dlvp::core::CoreStats &d = dl->second.sum;
    const dlvp::core::CoreStats &b = bl->second.sum;
    const std::uint64_t kd = d.committedInsts;
    exactLayer("core.flushes_per_kuop",
               ratio(d.vpFlushes + d.branchFlushes + d.memOrderFlushes, kd,
                     1000.0),
               "1/kuop");
    exactLayer("pred.pap_coverage", d.coverage(), "ratio");
    exactLayer("pred.pap_accuracy",
               ratio(d.addrPredCorrect, d.addrPredCorrect + d.addrPredWrong),
               "ratio");
    exactLayer("pred.vp_accuracy", d.accuracy(), "ratio");
    exactLayer("pred.lookups_per_kuop", ratio(d.predictorLookups, kd, 1000.0),
               "1/kuop");
    exactLayer("pred.writes_per_kuop", ratio(d.predictorWrites, kd, 1000.0),
               "1/kuop");
    exactLayer("pred.probe_hit_ratio", ratio(d.probeHits, d.probes),
               "ratio");
    exactLayer("pred.paq_drop_ratio", ratio(d.paqDrops, d.paqAllocs),
               "ratio");
    exactLayer("pred.lscd_blocked_per_kuop", ratio(d.lscdBlocked, kd, 1000.0),
               "1/kuop");
    const std::uint64_t kb = b.committedInsts;
    exactLayer("mem.l1d_miss_ratio", ratio(b.l1dMisses, b.l1dAccesses),
               "ratio");
    exactLayer("mem.l2_per_kuop", ratio(b.l2Accesses, kb, 1000.0), "1/kuop");
    exactLayer("mem.l3_per_kuop", ratio(b.l3Accesses, kb, 1000.0), "1/kuop");
    exactLayer("mem.dram_per_kuop", ratio(b.memAccesses, kb, 1000.0),
               "1/kuop");
    exactLayer("mem.tlb_miss_per_kuop", ratio(b.tlbMisses, kb, 1000.0),
               "1/kuop");
}

void
exactTotals(Report &report, const std::string &prefix,
            const SchemeTable &table)
{
    for (const auto &[name, r] : table) {
        const std::string p = prefix + "." + name + ".";
        report.exact[p + "cycles"] = static_cast<double>(r.sum.cycles);
        report.exact[p + "committed_insts"] =
            static_cast<double>(r.sum.committedInsts);
        report.exact[p + "vp_predicted_loads"] =
            static_cast<double>(r.sum.vpPredictedLoads);
        report.exact[p + "vp_correct_loads"] =
            static_cast<double>(r.sum.vpCorrectLoads);
        report.exact[p + "vp_flushes"] = static_cast<double>(r.sum.vpFlushes);
    }
}

void
simulatedResultsBlock(Report &report, const SchemeTable &table,
                      const std::string &source)
{
    // Paper figures: EXPERIMENTS.md, Figure 6 / Figure 8 tables.
    static const std::vector<std::pair<std::string, std::string>> paper = {
        {"dlvp", "+4.8%"},
        {"vtage", "+2.1%"},
        {"cap", "+2.3%"},
        {"tournament", "small gain over DLVP alone (no figure)"},
    };
    report.notes.push_back(
        "simulated results (" + source +
        "): the gap to the paper, not a validation");
    std::map<std::string, double> got;
    for (const auto &[name, fig] : paper) {
        const auto it = table.find(name);
        if (it == table.end() || it->second.speedups.empty())
            continue;
        got[name] = mean(it->second.speedups);
        std::ostringstream line;
        line << std::fixed << std::setprecision(2) << "  core.speedup."
             << std::left << std::setw(11) << name << std::right
             << std::showpos << std::setw(7)
             << 100.0 * (got[name] - 1.0) << "%" << std::noshowpos
             << "   paper: " << fig;
        report.notes.push_back(line.str());
    }
    if (got.count("dlvp") && got.count("vtage") && got.count("cap")) {
        const bool holds =
            got["dlvp"] > got["vtage"] && got["dlvp"] > got["cap"];
        report.notes.push_back(
            std::string("  claim DLVP > VTAGE and DLVP > CAP: ") +
            (holds ? "holds" : "DOES NOT HOLD"));
    }
}

} // namespace perfbench
