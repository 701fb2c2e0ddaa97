/**
 * @file
 * Workload `serve`: a dlvp-serve daemon under a closed loop of
 * nproc - 1 (1 to 4) client connections, each sending its next request
 * only after the reply.
 *
 * Set-up starts a daemon (default configuration but for socket, cache,
 * workers and trace length) on an empty cache, fills the fixed warm
 * key set with cold misses, stops it, and starts it again so it
 * recovers that cache from its journal. In each measured round every
 * client sends kRequestsPerClient requests: 24 in 25 are warm hits
 * drawn from the key set (the read path: lookup, re-verify, reply),
 * one in 25 a fresh key (a new predictor seed) that the daemon must
 * simulate, fsync and journal (the write path). The seed draws the hit
 * keys, the fresh keys' workloads/configs and their predictor seeds.
 *
 * The mix is a choice, not taken from a recorded request log: mostly
 * hits, and fresh keys short enough (kMissInsts) that simulating them
 * does not swamp the read and write paths. Each run measures the share
 * of the daemon's CPU that miss simulation takes
 * (serve.miss_sim_cpu_share) so the claim is checked, not assumed.
 */

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "probes.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/json.hh"
#include "sim/configs.hh"
#include "trace/workloads.hh"

extern char **environ;

namespace perfbench
{

namespace
{

namespace fs = std::filesystem;
using dlvp::serve::JsonValue;
using dlvp::serve::ServeClient;

/** Trace length of the warm key set (the daemon's --insts). */
constexpr std::size_t kServeInsts = 20000;
/** Trace length of a fresh key (the request's "insts"). */
constexpr std::size_t kMissInsts = 2000;
constexpr unsigned kRequestsPerClient = 2000;
constexpr unsigned kMissEvery = 25;
/** Client 0 polls the daemon's queue depth every this many requests. */
constexpr unsigned kStatsEvery = 100;
/** Fresh-key rows re-simulated in-process to check the daemon. */
constexpr std::size_t kVerifiedMisses = 16;

const std::vector<std::string> kWorkloads = {
    "mcf", "perlbmk", "gzip", "crafty", "vpr", "vortex", "astar", "omnetpp"};
const std::vector<std::string> kConfigs = {"dlvp", "vtage", "cap",
                                           "tournament"};

struct Key
{
    std::string workload;
    std::string config;
    std::uint64_t seed = 0; ///< 0 = the warm set (no seed field)
};

std::string
runRequest(const Key &k, const std::string &client)
{
    std::string req = "{\"cmd\": \"run\", \"workload\": \"" + k.workload +
                      "\", \"config\": \"" + k.config + "\", \"client\": \"" +
                      client + "\"";
    if (k.seed != 0)
        req += ", \"seed\": " + std::to_string(k.seed) +
               ", \"insts\": " + std::to_string(kMissInsts);
    return req + "}";
}

/** The row JSON inside a row envelope (its last member). */
std::string
rowBytes(const std::string &envelope)
{
    const std::size_t at = envelope.find("\"row\": ");
    if (at == std::string::npos || envelope.empty())
        return {};
    return envelope.substr(at + 7, envelope.size() - at - 8);
}

/** A running dlvp_serve process; stopped and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const Options &opt, const std::string &cacheDir,
           const std::string &socket)
        : socket_(socket)
    {
        fs::remove(socket);
        const std::string workers = std::to_string(opt.jobs);
        const std::string insts = std::to_string(kServeInsts);
        const std::string log = opt.workDir + "/daemon.log";
        std::vector<std::string> args = {
            opt.serveBin, "--socket",  socket, "--cache", cacheDir,
            "--workers",  workers,     "--insts", insts};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        const int rc =
            posix_spawn(&pid_, opt.serveBin.c_str(), &fa, nullptr,
                        argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            throw std::runtime_error("cannot start " + opt.serveBin);
        waitReady();
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t pid() const { return pid_; }

    /** Ask the daemon to shut down and reap it (SIGKILL as last resort). */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        try {
            ServeClient c(socket_, 5000);
            c.requestRaw("{\"cmd\": \"shutdown\"}");
        } catch (const std::exception &) {
            ::kill(pid_, SIGTERM);
        }
        for (int i = 0; i < 10000; ++i) {
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
    }

  private:
    void
    waitReady()
    {
        const auto t0 = Clock::now();
        while (secondsSince(t0) < 60.0) {
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("dlvp_serve exited at start-up");
            }
            try {
                ServeClient c(socket_, 2000);
                if (c.requestRaw("{\"cmd\": \"ping\"}").find("\"pong\"") !=
                    std::string::npos)
                    return;
            } catch (const std::exception &) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        throw std::runtime_error("dlvp_serve did not become ready");
    }

    pid_t pid_ = -1;
    std::string socket_;
};

/** user+sys CPU seconds of process @p pid (/proc, clock ticks). */
double
procCpuSeconds(pid_t pid)
{
    std::ifstream is("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    std::getline(is, line);
    std::istringstream fields(line.substr(line.rfind(')') + 2));
    std::string f;
    double ticks = 0.0;
    // Fields after "(comm)": state is field 3, utime 14, stime 15.
    for (int i = 3; i <= 15 && fields >> f; ++i)
        if (i >= 14)
            ticks += std::stod(f);
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/** Peak RSS (VmHWM) of process @p pid in MB. */
double
procPeakRssMb(pid_t pid)
{
    std::ifstream is("/proc/" + std::to_string(pid) + "/status");
    for (std::string line; std::getline(is, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

/** One client's record of a fresh-key reply, kept for verification. */
struct MissRow
{
    Key key;
    std::string cacheKey;
    std::string row;
};

/** Everything the clients of one run observed. */
struct Observed
{
    std::mutex m;
    std::vector<double> hitMs, missMs;
    std::vector<MissRow> misses;
    double queueDepthMax = 0.0;
    double requestSeconds = 0.0; ///< summed client request time
};

struct ServeLoad
{
    const Options &opt;
    Ops &ops;
    Spans &spans;
    std::vector<Key> warm;
    std::map<std::size_t, std::string> coldRows; ///< by warm index
    Observed seen;
    std::vector<std::uint64_t> missCounter; ///< per client

    /** What one client saw in one round; merged into `seen` after. */
    struct Tally
    {
        std::vector<double> hitMs, missMs;
        std::vector<MissRow> misses;
        double depthMax = 0.0;
        double busy = 0.0;
    };

    /**
     * Client @p c's share of one round over its own connection; with
     * @p round != 0 every call into the serve module is a span.
     */
    void
    clientRound(ServeClient &conn, unsigned c, std::uint64_t round,
                std::uint64_t &draw)
    {
        Tally tally;
        for (unsigned k = 0; k < kRequestsPerClient; ++k) {
            draw = mix64(draw);
            try {
                request(conn, c, k, round, draw, tally);
            } catch (const std::exception &e) {
                ops.fail("c" + std::to_string(c) +
                         ": request failed: " + e.what());
            }
        }
        std::lock_guard<std::mutex> lock(seen.m);
        seen.hitMs.insert(seen.hitMs.end(), tally.hitMs.begin(),
                          tally.hitMs.end());
        seen.missMs.insert(seen.missMs.end(), tally.missMs.begin(),
                           tally.missMs.end());
        for (auto &r : tally.misses)
            seen.misses.push_back(std::move(r));
        seen.queueDepthMax = std::max(seen.queueDepthMax, tally.depthMax);
        seen.requestSeconds += tally.busy;
    }

    /** Request @p k of client @p c: send, time, check the reply. */
    void
    request(ServeClient &conn, unsigned c, unsigned k, std::uint64_t round,
            std::uint64_t draw, Tally &tally)
    {
        const std::string client = "c" + std::to_string(c);
        const bool fresh = k % kMissEvery == kMissEvery - 1;
        Key key;
        std::size_t warmIndex = 0;
        if (fresh) {
            key.workload = kWorkloads[draw % kWorkloads.size()];
            key.config = kConfigs[(draw >> 8) % kConfigs.size()];
            // Unique per (run seed, client, counter) and below the 1e15
            // the daemon accepts as an integer.
            key.seed = ((mix64(opt.seed) & 0xffff) << 32) |
                       (std::uint64_t{c} << 24) | ++missCounter[c];
        } else {
            warmIndex = draw % warm.size();
            key = warm[warmIndex];
        }
        const auto t0 = Clock::now();
        const std::string reply =
            spans.timeUnder(round, "serve", "ServeClient::requestRaw", [&] {
                return conn.requestRaw(runRequest(key, client));
            });
        const double ms = 1e3 * secondsSince(t0);
        tally.busy += ms / 1e3;
        const JsonValue resp = spans.timeUnder(
            round, "serve", "parseJson",
            [&] { return dlvp::serve::parseJson(reply); });
        const JsonValue *st = resp.find("status");
        const JsonValue *cache = resp.find("cache");
        const std::string status = st ? st->asString() : "";
        const std::string disposition = cache ? cache->asString() : "";
        if (fresh) {
            tally.missMs.push_back(ms);
            const JsonValue *row = resp.find("row");
            const JsonValue *rowStatus = row ? row->find("status") : nullptr;
            const bool good = status == "ok" && disposition == "miss" &&
                              rowStatus && rowStatus->asString() == "ok";
            ops.check(good, client + ": fresh key " + key.workload + "/" +
                                key.config + " -> " + reply.substr(0, 160));
            if (good) {
                const JsonValue *ck = resp.find("key");
                tally.misses.push_back(
                    {key, ck ? ck->asString() : "", rowBytes(reply)});
            }
        } else {
            tally.hitMs.push_back(ms);
            const auto cold = coldRows.find(warmIndex);
            ops.check(status == "ok" && disposition == "hit" &&
                          cold != coldRows.end() &&
                          cold->second == rowBytes(reply),
                      client + ": warm hit " + key.workload + "/" +
                          key.config + " is not its cold reply");
        }
        if (c == 0 && k % kStatsEvery == 0) {
            const JsonValue stats = dlvp::serve::parseJson(
                conn.requestRaw("{\"cmd\": \"stats\"}"));
            if (const JsonValue *sv = stats.find("stats"))
                if (const JsonValue *q = sv->find("queue_depth"))
                    tally.depthMax = std::max(tally.depthMax, q->asNumber());
        }
    }

    /** Fill the warm key set with cold misses; records the cold rows. */
    void
    prepopulate(const std::string &socket)
    {
        coldRows.clear();
        std::mutex m;
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < opt.jobs; ++c)
            threads.emplace_back([&, c] {
                for (std::size_t i = c; i < warm.size(); i += opt.jobs) {
                    std::string reply;
                    try {
                        ServeClient conn(socket, 60000);
                        reply = conn.requestRaw(runRequest(warm[i], "setup"));
                    } catch (const std::exception &e) {
                        ops.fail("set-up request failed: " +
                                 std::string(e.what()));
                        continue;
                    }
                    const bool good =
                        reply.find("\"status\": \"ok\", \"cache\": \"miss\"") !=
                            std::string::npos &&
                        rowBytes(reply).find("\"status\": \"ok\"") !=
                            std::string::npos;
                    ops.check(good, "cold fill of " + warm[i].workload + "/" +
                                        warm[i].config + " -> " +
                                        reply.substr(0, 160));
                    std::lock_guard<std::mutex> lock(m);
                    coldRows[i] = rowBytes(reply);
                }
            });
        for (auto &t : threads)
            t.join();
    }
};

/**
 * Re-simulate sampled fresh-key rows in-process and compare the stats.
 * Returns the mean CPU seconds of simulating one fresh key (baseline
 * and scheme, the two runs the daemon makes for it).
 */
double
verifyMisses(ServeLoad &load)
{
    auto &rows = load.seen.misses;
    if (rows.empty())
        return 0.0;
    const dlvp::sim::Simulator simulator(dlvp::sim::baselineCore(),
                                         kMissInsts);
    std::map<std::string, dlvp::trace::Trace> traces;
    double simCpu = 0.0;
    std::size_t simulated = 0;
    const std::size_t stride =
        std::max<std::size_t>(1, rows.size() / kVerifiedMisses);
    for (std::size_t i = load.opt.seed % stride; i < rows.size();
         i += stride) {
        const MissRow &r = rows[i];
        auto it = traces.find(r.key.workload);
        if (it == traces.end())
            it = traces
                     .emplace(r.key.workload,
                              dlvp::trace::WorkloadRegistry::build(
                                  r.key.workload, kMissInsts))
                     .first;
        dlvp::core::VpConfig vp = schemeVp(r.key.config);
        vp.rngSeed = r.key.seed;
        const double cpu0 = threadCpuSeconds();
        const dlvp::core::CoreStats base =
            simulator.run(it->second, dlvp::sim::baselineVp());
        const dlvp::core::CoreStats s = simulator.run(it->second, vp);
        simCpu += threadCpuSeconds() - cpu0;
        ++simulated;
        const JsonValue row = dlvp::serve::parseJson(r.row);
        const JsonValue *stats = row.find("stats");
        auto field = [&](const char *name) {
            const JsonValue *v = stats ? stats->find(name) : nullptr;
            return v ? v->asNumber(-1.0) : -1.0;
        };
        const JsonValue *sp = row.find("speedup");
        const double speedup = dlvp::sim::speedup(base, s);
        load.ops.check(
            field("cycles") == static_cast<double>(s.cycles) &&
                field("committed_insts") ==
                    static_cast<double>(s.committedInsts) &&
                field("vp_flushes") == static_cast<double>(s.vpFlushes) &&
                sp && std::abs(sp->asNumber() - speedup) <= 1e-9 * speedup,
            "serve row " + r.key.workload + "/" + r.key.config + " seed " +
                std::to_string(r.key.seed) +
                " differs from an in-process Simulator::run");
    }
    return simCpu / static_cast<double>(simulated);
}

} // namespace

void
runServe(const Options &opt, Report &report, Ops &ops, Spans &spans)
{
    const std::string dir = opt.workDir + "/serve";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string socket = dir + "/d.sock";
    ServeLoad load{opt, ops, spans, {}, {}, {}, std::vector<std::uint64_t>(opt.jobs, 0)};
    for (const std::string &w : kWorkloads)
        for (const std::string &c : kConfigs)
            load.warm.push_back({w, c, 0});

    // -- set-up: fill the warm set, restart, recover; until the budget
    // ends, each time on a fresh cache ----------------------------------
    std::unique_ptr<Daemon> daemon;
    const std::string cacheDir = dir + "/cache";
    const std::vector<double> setupWalls =
        runRounds(setupSeconds(opt), 3, [&] {
            daemon.reset();
            fs::remove_all(cacheDir);
            const auto t0 = Clock::now();
            {
                Daemon cold(opt, cacheDir, socket);
                load.prepopulate(socket);
            }
            daemon = std::make_unique<Daemon>(opt, cacheDir, socket);
            return secondsSince(t0);
        });

    // -- measured rounds -------------------------------------------------
    std::vector<std::unique_ptr<ServeClient>> conns;
    std::vector<std::uint64_t> draws;
    for (unsigned c = 0; c < opt.jobs; ++c) {
        conns.push_back(std::make_unique<ServeClient>(socket, 60000));
        draws.push_back(mix64(opt.seed * 0x100 + c));
    }
    const std::uint64_t missesPerRound =
        opt.jobs * (kRequestsPerClient / kMissEvery);
    // Spans are recorded only in the traced run's alternate rounds.
    auto round = [&](bool traced) {
        const auto t0 = Clock::now();
        const std::uint64_t id =
            traced ? spans.open("bench", "serve round", 0) : 0;
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < opt.jobs; ++c)
            threads.emplace_back([&, c] {
                load.clientRound(*conns[c], c, id, draws[c]);
            });
        for (auto &t : threads)
            t.join();
        if (traced)
            spans.close(id);
        return secondsSince(t0);
    };

    const double cpu0 = procCpuSeconds(daemon->pid());
    TracedWalls tracedWalls;
    if (opt.trace)
        tracedWalls = runTracedRounds(spans, opt.seconds, round);
    else
        tracedWalls.off =
            runRounds(opt.seconds, 3, [&] { return round(false); });
    const std::vector<double> &walls = tracedWalls.off;
    const double daemonCpu = procCpuSeconds(daemon->pid()) - cpu0;
    const double peakRss = procPeakRssMb(daemon->pid());
    Observed &seen = load.seen;
    const std::size_t rounds = walls.size() + tracedWalls.on.size();
    const double requests =
        static_cast<double>(rounds * opt.jobs * kRequestsPerClient);
    double totalWall = 0.0;
    for (double w : walls)
        totalWall += w;
    for (double w : tracedWalls.on)
        totalWall += w;
    std::vector<double> mips;
    for (double w : walls)
        mips.push_back(1e-6 * static_cast<double>(missesPerRound * 2 *
                                                  kMissInsts) /
                       w);

    report.e2e("setup_s", median(setupWalls), "s");
    report.e2e("wall_s", median(walls), "s");
    report.e2e("sim_mips", median(mips), "MIPS");
    report.e2e("cpu_s", daemonCpu / static_cast<double>(rounds), "s");
    report.e2e("peak_rss_mb", peakRss, "MB");
    report.add("hit_p50_ms", quantile(seen.hitMs, 0.50), "ms");
    report.add("hit_p99_ms", quantile(seen.hitMs, 0.99), "ms");
    report.add("miss_p50_ms", quantile(seen.missMs, 0.50), "ms");
    report.add("miss_p90_ms", quantile(seen.missMs, 0.90), "ms");
    report.add("serve_rps", requests / totalWall, "1/s");
    report.add("serve.hit_samples", static_cast<double>(seen.hitMs.size()),
               "count");
    report.add("serve.miss_samples", static_cast<double>(seen.missMs.size()),
               "count");
    report.add("serve.rounds", static_cast<double>(rounds), "count");
    const double busyRatio =
        seen.requestSeconds / (static_cast<double>(opt.jobs) * totalWall);
    const double slowestMs =
        seen.missMs.empty()
            ? 0.0
            : *std::max_element(seen.missMs.begin(), seen.missMs.end());
    const double depthMax = seen.queueDepthMax;

    // Exact counts and the simulated-results block: the warm key set.
    SchemeTable warmTable;
    for (std::size_t i = 0; i < load.warm.size(); ++i) {
        const auto cold = load.coldRows.find(i);
        if (cold == load.coldRows.end())
            continue;
        const JsonValue row = dlvp::serve::parseJson(cold->second);
        const JsonValue *st = row.find("stats");
        const JsonValue *sp = row.find("speedup");
        if (st == nullptr || sp == nullptr)
            continue;
        SchemeRuns &r = warmTable[load.warm[i].config];
        auto count = [&](const char *f) {
            const JsonValue *v = st->find(f);
            return static_cast<std::uint64_t>(v ? v->asNumber() : 0.0);
        };
        r.sum.cycles += count("cycles");
        r.sum.committedInsts += count("committed_insts");
        r.sum.vpFlushes += count("vp_flushes");
        r.speedups.push_back(sp->asNumber());
    }
    exactTotals(report, "serve.warm", warmTable);
    simulatedResultsBlock(report, warmTable,
                          "serve warm keys, 8 workloads x " +
                              std::to_string(kServeInsts) + " uops, mean");

    double hitRatio = 0.0;
    try {
        ServeClient c(socket, 10000);
        const JsonValue s =
            dlvp::serve::parseJson(c.requestRaw("{\"cmd\": \"stats\"}"));
        const JsonValue *st = s.find("stats");
        const double hits = st && st->find("hits") ? st->find("hits")->asNumber()
                                                   : 0.0;
        const double misses =
            st && st->find("misses") ? st->find("misses")->asNumber() : 0.0;
        hitRatio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
        ops.check(st && st->find("rejected") &&
                      st->find("rejected")->asNumber() == 0 &&
                      st->find("degraded")->asNumber() == 0,
                  "daemon rejected or degraded requests");
    } catch (const std::exception &e) {
        ops.fail(std::string("daemon stats failed: ") + e.what());
    }
    conns.clear();
    daemon.reset();

    // Share of the daemon's CPU that simulating fresh keys took: their
    // count times the in-process CPU of simulating one.
    const double missSimShare =
        daemonCpu > 0.0 ? static_cast<double>(seen.missMs.size()) *
                              verifyMisses(load) / daemonCpu
                        : 0.0;
    report.add("serve.miss_sim_cpu_share", missSimShare, "ratio");
    if (!opt.trace)
        return;

    spans.setEnabled(true);
    spanMetrics(report, spans, opt.jobs, tracedWalls, {"serve"});
    report.layer("serve.miss_sim_cpu_share", missSimShare, "ratio");
    report.layer("sim.pool_busy_ratio", busyRatio, "ratio");
    report.layer("sim.slowest_cell_ms", slowestMs, "ms");
    report.layer("serve.hit_ratio", hitRatio, "ratio");
    report.layer("serve.queue_depth_max", depthMax, "count");
    report.layer("serve.daemon_cpu_ms_per_req", 1e3 * daemonCpu / requests,
                 "ms");

    // -- layer probes over the warm workloads' traces -------------------
    std::vector<dlvp::trace::Trace> built;
    const double build0 = spans.layerSeconds("trace");
    for (const std::string &w : kWorkloads)
        built.push_back(spans.time("trace", "WorkloadRegistry::build", [&] {
            return dlvp::trace::WorkloadRegistry::build(w, kServeInsts);
        }));
    report.layer("trace.build_ns_per_uop",
                 1e9 * (spans.layerSeconds("trace") - build0) /
                     static_cast<double>(kWorkloads.size() * kServeInsts),
                 "ns");
    TraceList traces;
    for (const auto &t : built)
        traces.push_back(&t);
    probeReplay(report, spans, traces);
    const std::string v2dir = dir + "/v2";
    probeV2Decode(report, spans, probeV2Write(report, spans, traces, v2dir),
                  0);
    probeSampled(report, spans, traces);
    SchemeTable full;
    const double cpuNs = probeCore(spans, traces, full);
    deriveSchemeMetrics(report, full, cpuNs);
    std::vector<std::pair<std::string, std::string>> rows;
    for (const auto &[i, row] : load.coldRows) {
        const std::string name = "warm" + std::to_string(i);
        rows.emplace_back(
            dlvp::serve::hex16(dlvp::serve::fnv1a64(name.data(), name.size())),
            row);
    }
    for (std::size_t i = 0; i < seen.misses.size() && rows.size() < 64; ++i)
        rows.emplace_back(seen.misses[i].cacheKey, seen.misses[i].row);
    probeResultCache(report, spans, rows, dir + "/probe-cache");
}

} // namespace perfbench
