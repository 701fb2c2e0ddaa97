/**
 * @file
 * perfbench driver: runs one workload and prints its report.
 *
 *   perfbench --workload grid|mega-stream|serve --seed N --seconds S
 *             --trace 0|1 --work-dir DIR --serve-bin PATH
 *
 * Output: human-readable report lines, then three machine lines
 * `@context {...}`, `@exact {...}` and `@result {...}` that run.py
 * turns into the final JSON line. Exit 0 when every operation passed
 * its output check, 3 when any failed (the result is still printed,
 * with correct=false), 1 on a set-up error (no result), 2 on usage.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hh"

namespace
{

using namespace perfbench;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload grid|mega-stream|serve "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "--serve-bin PATH\n");
    return 2;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::map<std::string, Metric> &metrics)
{
    std::string out = "{";
    for (const auto &[name, m] : metrics) {
        if (out.size() > 1)
            out += ", ";
        out += jsonString(name) + ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return out + "}";
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    for (std::string line; std::getline(is, line);)
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

std::string
contextJson(const Options &opt)
{
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("g++ ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
#ifdef DLVP_NATIVE_BUILD
    const bool native = true;
#else
    const bool native = false;
#endif
    std::ostringstream os;
    os << "{\"cpu\": " << jsonString(cpuModel())
       << ", \"compiler\": " << jsonString(compiler)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"jobs\": " << opt.jobs
       << ", \"native\": " << (native ? "true" : "false")
       << ", \"seed\": " << opt.seed
       << ", \"workload\": " << jsonString(opt.workload)
       << ", \"seconds\": " << jsonNumber(opt.seconds)
       << ", \"trace\": " << (opt.trace ? "true" : "false") << "}";
    return os.str();
}

void
printMetrics(const char *title, const std::map<std::string, Metric> &m)
{
    std::printf("%s\n", title);
    for (const auto &[name, metric] : m)
        std::printf("  %-34s %14.6g %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i];
        const char *v = argv[i + 1];
        if (a == "--workload")
            opt.workload = v;
        else if (a == "--seed")
            opt.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::atof(v);
        else if (a == "--trace")
            opt.trace = std::strcmp(v, "0") != 0;
        else if (a == "--work-dir")
            opt.workDir = v;
        else if (a == "--serve-bin")
            opt.serveBin = v;
        else
            return usage();
    }
    if (argc % 2 != 1 || opt.workDir.empty() || opt.serveBin.empty() ||
        opt.seconds <= 0.0)
        return usage();
    // One hardware thread stays free: on a shared VM, host steal on a
    // fully busy guest stalls the critical path. Interleaved serve runs
    // on 4 vCPUs stayed within 8% of each other at 3 jobs; at 4, one
    // high-steal run took 40% longer.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    opt.jobs = std::clamp(hw - 1, 1u, 4u);

    Report report;
    Ops ops;
    Spans spans;
    try {
        std::filesystem::create_directories(opt.workDir);
        if (opt.workload == "grid")
            runGrid(opt, report, ops, spans);
        else if (opt.workload == "mega-stream")
            runMegaStream(opt, report, ops, spans);
        else if (opt.workload == "serve")
            runServe(opt, report, ops, spans);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 1;
    }

    const std::string context = contextJson(opt);
    std::printf("perfbench %s: seed %llu, %s run, %.0f s measured\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "traced" : "untraced", opt.seconds);
    std::printf("context: %s\n", context.c_str());
    printMetrics("end-to-end (medians over rounds, tracing off):",
                 report.endToEnd);
    std::printf("workload figures:\n");
    for (const auto &[name, m] : report.info)
        std::printf("  %-34s %14.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    const double failedRatio =
        ops.attempted() == 0
            ? 1.0
            : static_cast<double>(ops.failed()) /
                  static_cast<double>(ops.attempted());
    std::printf("  %-34s %14.6g ratio (%llu failed of %llu operations)\n",
                "failed_ops_ratio", failedRatio,
                static_cast<unsigned long long>(ops.failed()),
                static_cast<unsigned long long>(ops.attempted()));
    for (const std::string &why : ops.reasons())
        std::printf("  FAILED: %s\n", why.c_str());
    for (const std::string &note : report.notes)
        std::printf("%s\n", note.c_str());
    if (opt.trace) {
        printMetrics("per-layer (traced run):", report.layers);
        const std::string path = opt.workDir + "/spans.jsonl";
        if (spans.writeJsonl(path))
            std::printf("spans: %s\n", path.c_str());
    }

    std::string exact = "{";
    for (const auto &[name, v] : report.exact) {
        if (exact.size() > 1)
            exact += ", ";
        exact += jsonString(name) + ": " + jsonNumber(v);
    }
    exact += "}";
    const bool correct = ops.failed() == 0 && ops.attempted() > 0;
    std::printf("@context %s\n", context.c_str());
    std::printf("@exact %s\n", exact.c_str());
    std::printf("@result {\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    1, ops.attempted())),
                static_cast<unsigned long long>(ops.failed()),
                metricsJson(opt.trace ? report.layers : report.endToEnd)
                    .c_str());
    std::fflush(stdout);
    return correct ? 0 : 3;
}
