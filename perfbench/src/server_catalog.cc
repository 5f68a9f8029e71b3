/**
 * @file
 * The server-catalog workload: a closed loop of client threads drives
 * the real mw-server daemon over its Unix socket, starting from an
 * empty cache directory.
 *
 * Operation k of the request mix is a pure function of (seed, k):
 *  - cheap-compute misses, each under a fresh request seed so its key
 *    is new: fig7 and fig8 at the same small refs fired together on
 *    two connections (the batcher shares their units), table1 at a
 *    small refs, one SPLASH figure at nodes=1, one stratified sampled
 *    fig7;
 *  - repeats of a key already served (cache hits);
 *  - ping and stats.
 * Every served document is compared with an independent in-process
 * render of the same request through the workloads library.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/thread_pool.hh"
#include "server/wire.hh"
#include "workloads.hh"
#include "workloads/missrate_figures.hh"
#include "workloads/spec_suite.hh"
#include "workloads/spec_tables.hh"
#include "workloads/splash_figures.hh"

extern char **environ;

namespace perfbench {

using namespace memwall;

namespace {

namespace fs = std::filesystem;

// --------------------------------------------------------------------
// The daemon

class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Spawn mw-server on a fresh directory; false + @p why on error. */
    bool
    spawn(const Options &opt, const std::string &dir, std::string *why)
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
        fs::create_directories(dir + "/cache", ec);
        if (ec) {
            *why = "cannot create " + dir + ": " + ec.message();
            return false;
        }
        socket_ = dir + "/s.sock";
        const std::string log = dir + "/server.log";
        const std::string cache = dir + "/cache";
        // The daemon's own pool size (one worker per processor). The
        // batcher lingers 2 ms, so the two halves of a fig7/fig8 pair,
        // sent together on two connections, share their units.
        std::vector<std::string> args = {
            opt.server_bin, "--socket", socket_, "--cache-dir", cache,
            "--batch-window-ms", "2"};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        spawned_ns_ = nowNs();
        const int rc = posix_spawn(&pid_, opt.server_bin.c_str(), &fa,
                                   nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid_ = -1;
            *why = "cannot spawn " + opt.server_bin + ": " +
                   std::strerror(rc);
            return false;
        }
        return true;
    }

    /** Poll with pings until one succeeds; seconds since spawn, or
     *  a negative value after @p timeout_s. */
    double
    waitReady(double timeout_s)
    {
        const std::int64_t limit =
            spawned_ns_ + static_cast<std::int64_t>(timeout_s * 1e9);
        while (nowNs() < limit) {
            std::string why;
            const int fd = server::connectUnixTimeout(socket_, 200, &why);
            if (fd >= 0) {
                std::string resp;
                const bool ok =
                    server::writeFrame(fd, "{\"cmd\":\"ping\"}", &why) &&
                    server::readFrame(fd, resp, &why) ==
                        server::FrameStatus::Ok &&
                    resp.find("\"status\":\"ok\"") != std::string::npos;
                ::close(fd);
                if (ok)
                    return static_cast<double>(nowNs() - spawned_ns_) *
                           1e-9;
            }
            ::usleep(200);
        }
        return -1.0;
    }

    /** Ask for shutdown, wait for the exit, SIGKILL as the fallback. */
    void
    stop()
    {
        if (pid_ <= 0)
            return;
        std::string why;
        const int fd = server::connectUnixTimeout(socket_, 1000, &why);
        if (fd >= 0) {
            server::setIoTimeout(fd, 5000, &why);
            std::string resp;
            if (server::writeFrame(fd, "{\"cmd\":\"shutdown\"}", &why))
                server::readFrame(fd, resp, &why);
            ::close(fd);
        }
        for (int i = 0; i < 2000; ++i) { // up to ~20 s
            if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            ::usleep(10'000);
        }
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        pid_ = -1;
    }

    int pid() const { return pid_; }
    const std::string &socket() const { return socket_; }

  private:
    pid_t pid_ = -1;
    std::string socket_;
    std::int64_t spawned_ns_ = 0;
};

/** One client connection with generous I/O timeouts. */
class Conn
{
  public:
    explicit Conn(const std::string &path)
    {
        std::string why;
        fd_ = server::connectUnixTimeout(path, 5000, &why);
        if (fd_ >= 0)
            server::setIoTimeout(fd_, 120'000, &why);
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    bool ok() const { return fd_ >= 0; }
    int fd() const { return fd_; }
    bool
    send(const std::string &payload)
    {
        std::string why;
        return fd_ >= 0 && server::writeFrame(fd_, payload, &why);
    }
    bool
    recv(std::string &out)
    {
        std::string why;
        return fd_ >= 0 &&
               server::readFrame(fd_, out, &why) == server::FrameStatus::Ok;
    }

  private:
    int fd_ = -1;
};

// --------------------------------------------------------------------
// The request mix

enum class OpKind { Pair, Table1, Splash, Sample, Repeat, Ping, Stats };

/** A distinct run request (one cache key). */
struct Key
{
    std::string body; ///< request JSON minus the leading '{' and id
    std::string computation; ///< expected-document memo key
    int doc = 0; ///< which document of the computation (fig8 = 1)
};

/**
 * What misses draw from. The refs sets are the same for every seed, so
 * the cost of the mix does not depend on it; the seed picks each
 * operation, its parameters and the sampling-plan seeds.
 */
struct MixParams
{
    static constexpr std::uint64_t missrate_refs[4] = {6'000, 8'000,
                                                       10'000, 12'000};
    static constexpr std::uint64_t table1_refs[4] = {10'000, 15'000,
                                                     20'000, 25'000};
    std::uint64_t seed;
    std::uint64_t plan_seed[4];

    explicit MixParams(std::uint64_t s) : seed(s)
    {
        for (std::uint64_t j = 0; j < 4; ++j)
            plan_seed[j] = 1 + mixSeed(s, 30 + j) % 1000;
    }

    /**
     * Every block of 100 operations holds the same mix in a seeded
     * order, so any second of the run sees the same share of misses.
     * The shares are an assumption, not taken from a recorded request
     * log: misses are 20 of the 90 run requests, so op_p90_ms lies
     * inside the miss distribution and op_p50_ms among the hits.
     */
    OpKind
    kindOf(std::uint64_t k) const
    {
        static constexpr std::pair<OpKind, int> deck[] = {
            {OpKind::Pair, 5},    {OpKind::Table1, 4},
            {OpKind::Splash, 2},  {OpKind::Sample, 4},
            {OpKind::Repeat, 70}, {OpKind::Ping, 10},
            {OpKind::Stats, 5}};
        std::vector<OpKind> block;
        for (const auto &[kind, count] : deck)
            block.insert(block.end(), count, kind);
        seededShuffle(block, mixSeed(seed, k / block.size()));
        return block[k % block.size()];
    }

    std::uint64_t
    pick(std::uint64_t k, std::uint64_t salt, std::uint64_t n) const
    {
        return mixSeed(seed ^ (salt << 48), k) % n;
    }
};

constexpr const char *splash_choices[3] = {"fig13", "fig16", "fig17"};
constexpr const char *sample_format = "mode=strat,n=6,U=500,W=1000,seed=";

/** The keys of miss operation @p k (two for a pair). */
std::vector<Key>
missKeys(const MixParams &mix, OpKind kind, std::uint64_t k)
{
    const std::string seed = std::to_string(1'000'000 + k);
    switch (kind) {
    case OpKind::Pair: {
        const std::uint64_t refs = mix.missrate_refs[mix.pick(k, 1, 4)];
        const std::string r = std::to_string(refs);
        return {{"\"experiment\":\"fig7\",\"refs\":" + r + ",\"seed\":" +
                     seed + "}",
                 "missrate|" + r, 0},
                {"\"experiment\":\"fig8\",\"refs\":" + r + ",\"seed\":" +
                     seed + "}",
                 "missrate|" + r, 1}};
    }
    case OpKind::Table1: {
        const std::string r =
            std::to_string(mix.table1_refs[mix.pick(k, 2, 4)]);
        return {{"\"experiment\":\"table1\",\"refs\":" + r +
                     ",\"seed\":" + seed + "}",
                 "table1|" + r, 0}};
    }
    case OpKind::Splash: {
        const std::string fig = splash_choices[mix.pick(k, 3, 3)];
        return {{"\"experiment\":\"" + fig +
                     "\",\"quick\":true,\"nodes\":1,\"seed\":" + seed + "}",
                 "splash|" + fig, 0}};
    }
    default: {
        const std::string r = std::to_string(mix.missrate_refs[mix.pick(k, 4, 4)]);
        const std::string plan =
            sample_format + std::to_string(mix.plan_seed[mix.pick(k, 5, 4)]);
        return {{"\"experiment\":\"fig7\",\"refs\":" + r +
                     ",\"sample\":\"" + plan + "\",\"seed\":" + seed + "}",
                 "sampled|" + r + "|" + plan, 0}};
    }
    }
}

// --------------------------------------------------------------------
// The closed loop

struct Record
{
    OpKind kind = OpKind::Ping;
    int key = -1;
    bool ok = false;
    bool cached = false;
    bool traced = false;
    double latency_s = 0.0;
    std::int64_t done_ns = 0;
    std::uint64_t digest = 0;
};

struct Session
{
    std::vector<Record> records;
    std::vector<Key> keys;
    double elapsed_s = 0.0;
    double peak_rss_mb = 0.0;
    std::vector<double> setup_s;
    std::string final_stats;
    std::string error;
};

/**
 * Split a response envelope into status and cached flag; returns the
 * result bytes, which the envelope carries verbatim as its last member.
 */
std::string
parseEnvelope(const std::string &resp, Record &rec)
{
    const std::size_t at = resp.find("\"result\":");
    rec.ok = at != std::string::npos &&
             resp.find("\"status\":\"ok\"") < at;
    if (!rec.ok)
        return "";
    rec.cached = resp.find("\"cached\":true") < at;
    const std::size_t start = at + 9;
    std::string result = resp.substr(start, resp.size() - start - 1);
    rec.digest = fnv1a(result);
    return result;
}

std::string
withId(std::uint64_t id, const std::string &body)
{
    return "{\"id\":\"" + std::to_string(id) + "\"," + body;
}

class Loop
{
  public:
    Loop(const MixParams &mix, const Daemon &daemon, double seconds,
         std::uint64_t max_ops, bool trace)
        : mix_(mix), socket_(daemon.socket()), daemon_pid_(daemon.pid()),
          max_ops_(max_ops), trace_(trace),
          deadline_ns_(nowNs() + static_cast<std::int64_t>(seconds * 1e9))
    {
    }

    void
    client(std::vector<Record> &out)
    {
        Conn a(socket_);
        Conn b(socket_);
        if (!a.ok() || !b.ok()) {
            Record rec; // a refused client is a failed request
            rec.done_ns = nowNs();
            out.push_back(rec);
            return;
        }
        for (;;) {
            const std::uint64_t k = next_.fetch_add(1);
            if (k >= max_ops_ || nowNs() >= deadline_ns_)
                return;
            // Odd operations are traced: the even ones measure the
            // untraced cost for the overhead estimate.
            const bool traced = trace_ && k % 2 == 1;
            runOp(k, traced, a, b, out);
            if (k == rss_op)
                rss_mb_ = peakRssMbOf(daemon_pid_);
        }
    }

    std::vector<Key> takeKeys() { return std::move(keys_); }

    /** The daemon's peak RSS after a fixed amount of work (the first
     *  rss_op operations), or 0 if the run ended before that. */
    double fixedWorkRssMb() const { return rss_mb_; }

    static constexpr std::uint64_t rss_op = 2000;

  private:
    int
    addKey(const Key &key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        keys_.push_back(key);
        return static_cast<int>(keys_.size() - 1);
    }

    void
    served(int key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        served_.push_back(key);
    }

    /** A served key for repeat @p k, or -1 while none is served. */
    int
    repeatKey(std::uint64_t k)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (served_.empty())
            return -1;
        return served_[mix_.pick(k, 6, served_.size())];
    }

    std::string
    keyBody(int key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        return keys_[static_cast<std::size_t>(key)].body;
    }

    void
    runOp(std::uint64_t k, bool traced, Conn &a, Conn &b,
          std::vector<Record> &out)
    {
        OpKind kind = mix_.kindOf(k);
        int repeat = -1;
        if (kind == OpKind::Repeat) {
            repeat = repeatKey(k);
            if (repeat < 0)
                kind = OpKind::Pair;
        }
        std::optional<SpanScope> span;
        if (traced)
            span.emplace(kind == OpKind::Ping    ? "server.ping"
                         : kind == OpKind::Stats ? "server.stats"
                                                 : "server.run",
                         k + 1);

        if (kind == OpKind::Pair) {
            const std::vector<Key> pair = missKeys(mix_, kind, k);
            Record r0, r1;
            r0.kind = r1.kind = kind;
            r0.traced = r1.traced = traced;
            r0.key = addKey(pair[0]);
            r1.key = addKey(pair[1]);
            const std::int64_t t0 = nowNs();
            const bool sent = a.send(withId(2 * k, pair[0].body)) &&
                              b.send(withId(2 * k + 1, pair[1].body));
            // Read whichever response lands first, so each latency
            // ends when its own document arrived.
            bool done0 = !sent, done1 = !sent;
            while (!done0 || !done1) {
                pollfd fds[2] = {{a.fd(), POLLIN, 0}, {b.fd(), POLLIN, 0}};
                if (::poll(fds, 2, 120'000) <= 0)
                    break;
                for (int i = 0; i < 2; ++i) {
                    bool &done = i ? done1 : done0;
                    if (done || fds[i].revents == 0)
                        continue;
                    Record &rec = i ? r1 : r0;
                    std::string resp;
                    if ((i ? b : a).recv(resp))
                        parseEnvelope(resp, rec);
                    rec.done_ns = nowNs();
                    rec.latency_s =
                        static_cast<double>(rec.done_ns - t0) * 1e-9;
                    done = true;
                }
            }
            for (Record *rec : {&r0, &r1}) {
                if (rec->ok)
                    served(rec->key);
                out.push_back(*rec);
            }
            return;
        }

        Record rec;
        rec.kind = kind;
        rec.traced = traced;
        std::string body;
        if (kind == OpKind::Ping) {
            body = "\"cmd\":\"ping\"}";
        } else if (kind == OpKind::Stats) {
            body = "\"cmd\":\"stats\"}";
        } else if (kind == OpKind::Repeat) {
            rec.key = repeat;
            body = keyBody(repeat);
        } else {
            const Key key = missKeys(mix_, kind, k).front();
            rec.key = addKey(key);
            body = key.body;
        }
        const std::int64_t t0 = nowNs();
        std::string resp;
        if (a.send(withId(2 * k, body)) && a.recv(resp))
            parseEnvelope(resp, rec);
        rec.done_ns = nowNs();
        rec.latency_s = static_cast<double>(rec.done_ns - t0) * 1e-9;
        if (rec.ok && kind != OpKind::Ping && kind != OpKind::Stats &&
            kind != OpKind::Repeat)
            served(rec.key);
        out.push_back(std::move(rec));
    }

    const MixParams &mix_;
    std::string socket_;
    int daemon_pid_;
    std::atomic<double> rss_mb_{0.0};
    std::uint64_t max_ops_;
    bool trace_;
    std::int64_t deadline_ns_;
    std::atomic<std::uint64_t> next_{0};
    std::mutex mu_;
    std::vector<Key> keys_;  // guarded by mu_
    std::vector<int> served_; // guarded by mu_
};

std::string
statsOnce(const std::string &socket)
{
    Conn c(socket);
    std::string resp;
    if (!c.send("{\"cmd\":\"stats\"}") || !c.recv(resp))
        return "";
    Record rec;
    return parseEnvelope(resp, rec);
}

/**
 * One closed-loop session, with spawn-to-first-ping samples on empty
 * cache directories: @p setup_samples / 2 before it, the session's own
 * daemon, and the rest after it, so a short slow phase of the host does
 * not move every sample.
 */
Session
runSession(const Options &opt, double seconds, std::uint64_t max_ops,
           unsigned clients, unsigned setup_samples)
{
    Session s;
    unsigned spawned = 0;
    const auto start = [&opt, &s, &spawned]() -> std::unique_ptr<Daemon> {
        auto daemon = std::make_unique<Daemon>();
        const std::string dir =
            opt.work_dir + "/server" + std::to_string(spawned++);
        if (!daemon->spawn(opt, dir, &s.error))
            return nullptr;
        const double ready = daemon->waitReady(30.0);
        if (ready < 0) {
            s.error = "mw-server did not answer ping within 30 s";
            return nullptr;
        }
        s.setup_s.push_back(ready);
        return daemon;
    };
    for (unsigned i = 0; i < setup_samples / 2; ++i)
        if (!start())
            return s;
    std::unique_ptr<Daemon> daemon = start();
    if (!daemon)
        return s;

    const MixParams mix(opt.seed);
    Loop loop(mix, *daemon, seconds, max_ops, opt.trace);
    tracer().enable(opt.trace);
    std::vector<std::vector<Record>> per_client(clients);
    const std::int64_t t0 = nowNs();
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c)
            threads.emplace_back(
                [&loop, &per_client, c] { loop.client(per_client[c]); });
        for (std::thread &t : threads)
            t.join();
    }
    tracer().enable(false);
    std::int64_t last = t0;
    for (auto &v : per_client)
        for (Record &r : v) {
            last = std::max(last, r.done_ns);
            s.records.push_back(std::move(r));
        }
    s.elapsed_s = static_cast<double>(last - t0) * 1e-9;
    s.keys = loop.takeKeys();
    s.final_stats = statsOnce(daemon->socket());
    // Served documents stay in the daemon's memory, so its peak grows
    // with throughput; a fixed amount of work keeps the figure
    // comparable between runs.
    s.peak_rss_mb = loop.fixedWorkRssMb() > 0 ? loop.fixedWorkRssMb()
                                              : peakRssMbOf(daemon->pid());
    daemon->stop();

    for (unsigned i = setup_samples / 2; i < setup_samples; ++i)
        if (!start())
            return s;
    return s;
}

// --------------------------------------------------------------------
// Independent renders

struct Expected
{
    std::uint64_t digest[2] = {0, 0};
    double sim_refs = 0.0;
};

Expected
renderExpected(const std::string &computation)
{
    Expected e;
    const auto set = [&e](int i, const std::string &doc) {
        e.digest[i] = fnv1a(doc);
    };
    const std::size_t bar = computation.find('|');
    const std::string kind = computation.substr(0, bar);
    const std::string rest = computation.substr(bar + 1);
    if (kind == "missrate") {
        const MissRateParams params =
            resolveMissRateParams(false, std::stoull(rest));
        std::vector<WorkloadMissRates> all;
        for (const SpecWorkload &w : specSuite())
            all.push_back(measureMissRates(w, params));
        set(0, missRateFigureJson(MissRateFigure::ICache, all));
        set(1, missRateFigureJson(MissRateFigure::DCache, all));
        e.sim_refs = static_cast<double>(
            (params.measured_refs + params.warmup_refs) * all.size());
    } else if (kind == "table1") {
        const std::uint64_t refs = resolveTable1Refs(false, std::stoull(rest));
        set(0, table1Json(runTable1(refs)));
        for (std::size_t i = 0; i < table1_points; ++i) {
            const std::uint64_t r = table1PointRefs(i, refs);
            e.sim_refs += static_cast<double>(r + r / 4);
        }
    } else if (kind == "splash") {
        const SplashFigure fig = rest == "fig13" ? SplashFigure::Fig13Lu
            : rest == "fig16"                    ? SplashFigure::Fig16Water
                                                 : SplashFigure::Fig17Pthor;
        const double scale = resolveSplashScale(fig, true);
        const std::vector<SplashResult> points =
            runSplashFigure(fig, scale, 1, nullptr);
        set(0, splashFigureJson(fig, scale, 1, points));
        for (const SplashResult &r : points)
            e.sim_refs += static_cast<double>(r.accesses);
    } else {
        const std::size_t bar2 = rest.find('|');
        const MissRateParams params =
            resolveMissRateParams(false, std::stoull(rest.substr(0, bar2)));
        const SamplingPlan plan = parseSamplingPlan(rest.substr(bar2 + 1));
        const std::vector<SampledWorkloadMissRates> all =
            runMissRateFigureSampled(MissRateFigure::ICache, params, plan);
        set(0, missRateFigureSampledJson(MissRateFigure::ICache, all));
        for (const SampledWorkloadMissRates &r : all)
            e.sim_refs += static_cast<double>(r.detail_refs + r.warm_refs);
    }
    return e;
}

std::map<std::string, Expected>
renderAll(const std::vector<Key> &keys, unsigned workers)
{
    std::map<std::string, Expected> out;
    for (const Key &k : keys)
        out[k.computation];
    ThreadPool pool(workers);
    for (auto &[computation, expected] : out)
        pool.submit([&computation, &expected] {
            expected = renderExpected(computation);
        });
    pool.waitIdle();
    return out;
}

/** Integer member @p name of a flat stats document; 0 if absent. */
double
statsField(const std::string &stats, const std::string &name)
{
    const std::string tag = "\"" + name + "\":";
    const std::size_t at = stats.find(tag);
    return at == std::string::npos
        ? 0.0
        : std::strtod(stats.c_str() + at + tag.size(), nullptr);
}

void
reportServerLayers(const Session &s, Report &report)
{
    std::vector<double> ping, hit, miss, hit_traced, hit_untraced;
    for (const Record &r : s.records) {
        if (!r.ok)
            continue;
        if (r.kind == OpKind::Ping)
            ping.push_back(r.latency_s);
        else if (r.kind != OpKind::Stats) {
            (r.cached ? hit : miss).push_back(r.latency_s);
            if (r.cached)
                (r.traced ? hit_traced : hit_untraced)
                    .push_back(r.latency_s);
        }
    }
    const std::string &st = s.final_stats;
    const double hits = statsField(st, "cache_hits");
    const double runs =
        hits + statsField(st, "computed") + statsField(st, "dedup_joined");
    const double shared = statsField(st, "points_shared");
    const double points = statsField(st, "points_computed") + shared;
    const double batches = statsField(st, "batches");
    report.metric("server.ping_rtt_us", median(ping) * 1e6, "us");
    report.metric("server.hit_ratio", runs > 0 ? hits / runs : 0.0,
                  "fraction");
    report.metric("server.share_ratio", points > 0 ? shared / points : 0.0,
                  "fraction");
    report.metric("server.keys_per_batch",
                  batches > 0 ? statsField(st, "batched_keys") / batches
                              : 0.0,
                  "count");
    report.metric("server.hit_p50_ms", percentile(hit, 50) * 1e3, "ms");
    report.metric("server.hit_p99_ms", percentile(hit, 99) * 1e3, "ms");
    report.metric("server.miss_p50_ms", percentile(miss, 50) * 1e3, "ms");
    report.metric("server.miss_p90_ms", percentile(miss, 90) * 1e3, "ms");
    if (!hit_traced.empty() && !hit_untraced.empty())
        report.metric("bench.trace_overhead_frac",
                      median(hit_traced) / median(hit_untraced) - 1.0,
                      "fraction");
}

/** Check every response against the independent renders. */
std::map<std::string, Expected>
checkSession(const Session &s, unsigned workers, Report &report)
{
    const std::map<std::string, Expected> expected =
        renderAll(s.keys, workers);
    for (const Record &r : s.records) {
        bool ok = r.ok;
        if (ok && r.key >= 0) {
            const Key &key = s.keys[static_cast<std::size_t>(r.key)];
            ok = expected.at(key.computation).digest[key.doc] == r.digest;
        }
        report.check(ok, r.ok ? "served document differs from the "
                                "in-process render"
                              : "request failed or was refused");
    }
    return expected;
}

unsigned
clientCount(unsigned nproc)
{
    // Two connections per client (a fig7/fig8 pair goes out on both),
    // at most nproc connections in all.
    return std::max(1u, std::min(nproc, 4u) / 2);
}

} // namespace

void
runServerCatalog(const Options &opt, Report &report)
{
    const unsigned clients = clientCount(opt.nproc);
    const Session s =
        runSession(opt, opt.seconds, ~std::uint64_t{0}, clients, 8);
    if (!s.error.empty()) {
        report.check(false, s.error);
        return;
    }
    const std::map<std::string, Expected> expected =
        checkSession(s, opt.nproc, report);

    // Everything over the whole run: stalls (journal fsync, compaction,
    // misses queued behind each other) count where they happened.
    std::vector<double> latency;
    double refs = 0.0;
    std::uint64_t hits = 0, misses = 0;
    for (const Record &r : s.records) {
        if (!r.ok || r.key < 0)
            continue;
        latency.push_back(r.latency_s);
        if (r.cached) {
            ++hits;
            continue;
        }
        ++misses;
        refs += expected.at(s.keys[static_cast<std::size_t>(r.key)]
                                .computation)
                    .sim_refs;
    }
    const double ops = static_cast<double>(s.records.size());
    report.metric("setup_s", median(s.setup_s), "s");
    // pass_s: seconds per 100 completed operations, one block of the mix.
    report.metric("pass_s", s.elapsed_s * 100.0 / ops, "s");
    report.metric("sim_refs_per_s", refs / s.elapsed_s, "1/s");
    report.metric("req_per_s", ops / s.elapsed_s, "1/s");
    report.metric("op_p50_ms", percentile(latency, 50) * 1e3, "ms");
    report.metric("op_p90_ms", percentile(latency, 90) * 1e3, "ms");
    report.metric("peak_rss_mb", s.peak_rss_mb, "MB");
    report.note("clients", std::to_string(clients));
    report.note("requests", std::to_string(s.records.size()));
    report.note("hits", std::to_string(hits));
    report.note("misses", std::to_string(misses));
    report.note("distinct_keys", std::to_string(s.keys.size()));
    reportServerLayers(s, report);
}

void
serverProbe(const Options &opt, Report &report)
{
    // Short and single-client: only the per-layer numbers are used.
    Options probe = opt;
    probe.work_dir = opt.work_dir + "/probe";
    const Session s = runSession(probe, 1.0, 400, 1, 0);
    if (!s.error.empty()) {
        report.check(false, s.error);
        return;
    }
    checkSession(s, opt.nproc, report);
    reportServerLayers(s, report);
}

} // namespace perfbench
