/**
 * @file
 * Layer probes for the traced run. Each probe feeds seeded inputs to
 * one layer's public entry points and times them from outside; it
 * sets only the metrics the workload itself did not measure, so a
 * workload's own spans win for the layers it exercises.
 */

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "coherence/numa.hh"
#include "gspn/models.hh"
#include "mem/cache.hh"
#include "mem/column_cache.hh"
#include "mp/scheduler.hh"
#include "server/catalog.hh"
#include "server/protocol.hh"
#include "server/result_cache.hh"
#include "trace/synthetic.hh"
#include "workloads.hh"
#include "workloads/missrate_figures.hh"
#include "workloads/spec_suite.hh"
#include "workloads/spec_tables.hh"
#include "workloads/splash_figures.hh"

namespace perfbench {

using namespace memwall;

namespace {

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** Four seeded SPEC proxies. */
std::vector<const SpecWorkload *>
pickProxies(std::uint64_t seed)
{
    const auto &suite = specSuite();
    std::vector<const SpecWorkload *> out;
    for (std::uint64_t i = 0; i < 4; ++i)
        out.push_back(&suite[mixSeed(seed, 0x7e0 + i) % suite.size()]);
    return out;
}

/** trace.* and mem.*: generate one reference buffer, replay it into
 *  a conventional, a column and a column+victim data cache. */
void
probeTraceAndMem(const Options &opt, Report &report)
{
    constexpr std::uint64_t per_proxy = 250'000;
    const auto proxies = pickProxies(opt.seed);
    std::vector<MemRef> buffer;
    std::vector<double> gen_ns;
    for (int rep = 0; rep < 3; ++rep) {
        buffer.clear();
        const std::int64_t t0 = nowNs();
        for (const SpecWorkload *w : proxies) {
            SpanScope span("trace.generateBatch");
            SyntheticWorkload gen(w->proxy);
            gen.generateBatch(per_proxy, buffer);
        }
        gen_ns.push_back(secondsSince(t0) * 1e9 /
                         static_cast<double>(buffer.size()));
    }
    report.metric("trace.gen_ns_per_ref", median(gen_ns), "ns");

    const auto store = [](const MemRef &r) {
        return r.type == RefType::Store;
    };
    std::uint64_t accesses = 0, misses = 0;
    const auto replay = [&](const char *metric, const char *span_name,
                            auto make) {
        std::vector<double> ns;
        for (int rep = 0; rep < 5; ++rep) {
            auto cache = make();
            const std::int64_t t0 = nowNs();
            {
                SpanScope span(span_name);
                for (const MemRef &r : buffer)
                    cache->access(r.addr, store(r));
            }
            ns.push_back(secondsSince(t0) * 1e9 /
                         static_cast<double>(buffer.size()));
            if (rep == 0) {
                accesses += cache->stats().accesses();
                misses += cache->stats().misses();
            }
        }
        report.metric(metric, median(ns), "ns");
    };
    replay("mem.conv_ns_per_access", "mem.Cache::access", [] {
        return std::make_unique<Cache>(
            CacheConfig{16 * KiB, 32, 1, ReplPolicy::LRU, 32, "conv"});
    });
    replay("mem.column_ns_per_access", "mem.ColumnDataCache::access", [] {
        ColumnCacheConfig cfg;
        cfg.victim_enabled = false;
        return std::make_unique<ColumnDataCache>(cfg);
    });
    replay("mem.victim_ns_per_access", "mem.ColumnDataCache::access+vc",
           [] { return std::make_unique<ColumnDataCache>(); });
    report.metric("mem.accesses", static_cast<double>(accesses), "count");
    report.metric("mem.misses", static_cast<double>(misses), "count");
}

/** gspn.*: estimateCpi on seeded hit ratios; the firing count of the
 *  same Monte-Carlo run, replayed on a GspnSimulator. */
void
probeGspn(const Options &opt, Report &report)
{
    constexpr std::uint64_t instructions = 30'000;
    std::uint64_t state = mixSeed(opt.seed, 0x65b);
    const auto unit = [&state] {
        return static_cast<double>(splitmix64(state) >> 11) * 0x1p-53;
    };
    ProcessorModelParams params;
    params.icache_hit = 0.95 + 0.04 * unit();
    params.load_hit = 0.85 + 0.14 * unit();
    params.store_hit = 0.85 + 0.14 * unit();
    const std::uint64_t gspn_seed = splitmix64(state);

    std::vector<double> ms;
    for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t t0 = nowNs();
        SpanScope span("gspn.estimateCpi");
        const CpiEstimate est = estimateCpi(params, instructions, gspn_seed);
        ms.push_back(secondsSince(t0) * 1e3);
        if (est.instructions != instructions)
            report.check(false, "gspn simulated the wrong length");
    }
    // estimateCpi's own schedule: a warm-up, then the measured run.
    ProcessorModel model = ProcessorModel::build(params);
    GspnSimulator sim(model.net, gspn_seed);
    sim.runUntilFirings(model.issue, instructions / 20 + 100);
    sim.runUntilFirings(model.issue, instructions);
    const double firings = static_cast<double>(sim.totalFirings());
    report.metric("gspn.estimate_ms", median(ms), "ms");
    report.metric("gspn.firings", firings, "count");
    report.metric("gspn.ns_per_firing", median(ms) * 1e6 / firings, "ns");
}

/** mp.advance_ns: CPUs that only call advance(). */
void
probeMp(Report &report)
{
    constexpr unsigned cpus = 4;
    constexpr std::uint64_t per_cpu = 100'000;
    std::vector<double> ns;
    for (int rep = 0; rep < 3; ++rep) {
        MpScheduler sched(cpus);
        const std::int64_t t0 = nowNs();
        SpanScope span("mp.MpScheduler::run");
        sched.run([](SimContext &ctx) {
            for (std::uint64_t i = 0; i < per_cpu; ++i)
                ctx.advance(1 + i % 3);
        });
        ns.push_back(secondsSince(t0) * 1e9 /
                     static_cast<double>(cpus * per_cpu));
    }
    report.metric("mp.advance_ns", median(ns), "ns");
}

/** coherence.*: NumaMachine::access on a seeded sharing pattern, no
 *  scheduler. */
void
probeCoherence(const Options &opt, Report &report)
{
    constexpr unsigned nodes = 16;
    constexpr std::uint64_t n = 400'000;
    std::uint64_t state = mixSeed(opt.seed, 0xc0e);
    struct Access
    {
        unsigned cpu;
        Addr addr;
        bool store;
    };
    std::vector<Access> pattern;
    pattern.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t r = splitmix64(state);
        const unsigned cpu = static_cast<unsigned>(r % nodes);
        const bool shared = (r >> 8) % 10 < 3;
        const Addr offset = (r >> 16) % (shared ? 256 * KiB : 64 * KiB);
        const Addr addr = shared ? 0x4000'0000 + offset
                                 : 0x1000'0000 + cpu * MiB + offset;
        pattern.push_back({cpu, addr & ~Addr{7}, (r >> 40) % 4 == 0});
    }
    NumaMachine machine(splashMachineFor("integrated+vc", nodes));
    const std::int64_t t0 = nowNs();
    {
        SpanScope span("coherence.NumaMachine::access");
        for (const Access &a : pattern)
            machine.access(a.cpu, a.addr, a.store);
    }
    const double secs = secondsSince(t0);
    const double total = static_cast<double>(machine.totalAccesses());
    report.metric("coherence.ns_per_access", secs * 1e9 / n, "ns");
    report.metric("coherence.remote_frac",
                  static_cast<double>(machine.totalRemoteLoads()) / total,
                  "fraction");
    report.metric("coherence.invalidations_per_kaccess",
                  static_cast<double>(machine.totalInvalidations()) /
                      (total / 1e3),
                  "count");
    report.metric("coherence.accesses", total, "count");
    report.metric("coherence.remote_loads",
                  static_cast<double>(machine.totalRemoteLoads()), "count");
    report.metric("coherence.invalidations",
                  static_cast<double>(machine.totalInvalidations()),
                  "count");
}

/** sampling.point_ms: measureMissRatesSampled under the mix's plan. */
void
probeSampling(const Options &opt, Report &report)
{
    const MissRateParams params = resolveMissRateParams(false, 16'000);
    const SamplingPlan plan = parseSamplingPlan(
        "mode=strat,n=6,U=500,W=1000,seed=" +
        std::to_string(1 + mixSeed(opt.seed, 30) % 1000));
    std::vector<double> ms;
    for (const SpecWorkload *w : pickProxies(opt.seed)) {
        const std::int64_t t0 = nowNs();
        SpanScope span("sampling.measureMissRatesSampled");
        measureMissRatesSampled(*w, params, plan);
        ms.push_back(secondsSince(t0) * 1e3);
    }
    report.metric("sampling.point_ms", median(ms), "ms");
}

/** server.parse_us / plan_us / lookup_us / journal_insert_ms. */
void
probeServerLayers(const Options &opt, Report &report)
{
    const std::string refs = std::to_string(
        6'000 + 2'000 * (mixSeed(opt.seed, 10) % 4));
    const std::vector<std::string> payloads = {
        "{\"experiment\":\"fig7\",\"refs\":" + refs +
            ",\"seed\":1000001}",
        "{\"experiment\":\"fig8\",\"refs\":" + refs +
            ",\"seed\":1000001}",
        "{\"experiment\":\"table1\",\"refs\":30000,\"seed\":1000002}",
        "{\"experiment\":\"fig13\",\"quick\":true,\"nodes\":1,"
        "\"seed\":1000003}",
        "{\"experiment\":\"fig7\",\"refs\":" + refs +
            ",\"sample\":\"mode=strat,n=6,U=500,W=1000,seed=7\","
            "\"seed\":1000004}",
    };
    constexpr int rounds = 400;
    std::vector<server::RunRequest> runs;
    std::size_t key_bytes = 0;
    // One span per loop: a span per call would cost as much as the
    // microsecond-scale calls it times.
    std::int64_t t0 = nowNs();
    std::optional<SpanScope> loop_span;
    loop_span.emplace("server.parseRequest+canonicalRunKey");
    for (int i = 0; i < rounds; ++i)
        for (const std::string &p : payloads) {
            server::Request req;
            server::ErrorCode code;
            std::string detail;
            if (!server::parseRequest(p, req, code, detail)) {
                report.check(false, "probe payload rejected: " + detail);
                return;
            }
            key_bytes += server::canonicalRunKey(req.run).size();
            if (i == 0)
                runs.push_back(req.run);
        }
    loop_span.reset();
    report.metric("server.parse_us",
                  secondsSince(t0) * 1e6 / (rounds * payloads.size()), "us");
    report.note("probe_key_bytes", std::to_string(key_bytes));

    std::size_t points = 0;
    t0 = nowNs();
    loop_span.emplace("server.buildCatalogPlan");
    for (int i = 0; i < rounds / 4; ++i)
        for (const server::RunRequest &run : runs)
            points += server::buildCatalogPlan(run, "").points.size();
    loop_span.reset();
    report.metric("server.plan_us",
                  secondsSince(t0) * 1e6 / (rounds / 4 * runs.size()), "us");
    report.note("probe_plan_points", std::to_string(points));

    // The journal on a scratch directory, fed real documents.
    const std::string dir = opt.work_dir + "/journal-probe";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    server::ResultCache cache;
    std::string why;
    if (!cache.open(dir, 0, &why)) {
        report.check(false, "result cache probe: " + why);
        return;
    }
    const std::string doc =
        missRateFigureJson(MissRateFigure::ICache,
                           runMissRateFigure(MissRateFigure::ICache,
                                             resolveMissRateParams(false,
                                                                   2'000)));
    std::vector<std::string> keys;
    std::vector<double> insert_ms;
    for (int i = 0; i < 24; ++i) {
        keys.push_back("probe|" + std::to_string(opt.seed) + "|" +
                       std::to_string(i));
        t0 = nowNs();
        SpanScope span("server.ResultCache::insert");
        if (!cache.insert(keys.back(), doc, &why))
            report.check(false, "journal insert: " + why);
        insert_ms.push_back(secondsSince(t0) * 1e3);
    }
    std::size_t found = 0;
    constexpr int lookups = 200;
    t0 = nowNs();
    loop_span.emplace("server.ResultCache::lookup");
    for (int i = 0; i < lookups; ++i)
        for (const std::string &k : keys) {
            const std::string *hit = cache.lookup(k);
            found += hit != nullptr && *hit == doc;
        }
    loop_span.reset();
    report.metric("server.lookup_us",
                  secondsSince(t0) * 1e6 / (lookups * keys.size()), "us");
    report.metric("server.journal_insert_ms", median(insert_ms), "ms");
    report.check(found == lookups * keys.size(),
                 "result cache lost an inserted document");
    cache.close();
    std::filesystem::remove_all(dir, ec);
}

/** workloads.* for the non-SPEC workloads: single seeded points. */
void
probeSpecPoints(const Options &opt, Report &report)
{
    const auto proxies = pickProxies(opt.seed);
    std::vector<double> ms;
    for (int i = 0; i < 2; ++i) {
        const std::int64_t t0 = nowNs();
        SpanScope span("workloads.measureMissRates");
        measureMissRates(*proxies[i], resolveMissRateParams(true, 0));
        ms.push_back(secondsSince(t0) * 1e3);
    }
    report.metric("workloads.missrate_point_ms", median(ms), "ms");

    const auto rows = specTableWorkloads();
    const std::size_t row = mixSeed(opt.seed, 0x7ab) % rows.size();
    SpecEvalParams params = resolveSpecEvalParams(true, 0, opt.seed);
    params.seed = specTablePointSeed(opt.seed, row);
    std::int64_t t0 = nowNs();
    std::vector<SpecEstimate> estimates;
    {
        SpanScope span("workloads.runSpecTablePoint");
        estimates.push_back(runSpecTablePoint(*rows[row], false, params));
    }
    report.metric("workloads.spec_table_point_ms", secondsSince(t0) * 1e3,
                  "ms");

    t0 = nowNs();
    std::vector<MachineRun> table1;
    {
        SpanScope span("workloads.runTable1Point");
        table1.push_back(runTable1Point(0, resolveTable1Refs(true, 0)));
    }
    report.metric("workloads.table1_point_ms", secondsSince(t0) * 1e3, "ms");
    table1.resize(table1_points, table1.front());

    std::vector<double> us;
    for (int i = 0; i < 20; ++i) {
        t0 = nowNs();
        SpanScope span("workloads.render");
        const std::string doc = table1Json(table1);
        us.push_back(secondsSince(t0) * 1e6);
        report.check(!doc.empty(), "table1 render came back empty");
    }
    report.metric("workloads.render_us", median(us), "us");
}

/** workloads.splash_* and mp.* for the non-SPLASH workloads: the
 *  fig16 (water) sweep, the smallest SPLASH figure. */
void
probeSplash(Report &report)
{
    const SplashFigure fig = SplashFigure::Fig16Water;
    const double scale = resolveSplashScale(fig, true);
    std::vector<double> ms;
    std::uint64_t accesses = 0, makespan = 0, remote = 0, inval = 0;
    const Usage u0 = usageNow();
    for (const std::string &arch : splashArchs())
        for (const unsigned cpus : splashCpuCounts(0)) {
            const std::int64_t t0 = nowNs();
            SpanScope span("workloads.runSplashFigurePoint");
            const SplashResult r =
                runSplashFigurePoint(fig, arch, cpus, scale, nullptr);
            ms.push_back(secondsSince(t0) * 1e3);
            accesses += r.accesses;
            makespan += r.makespan;
            remote += r.remote_loads;
            inval += r.invalidations;
        }
    const Usage u1 = usageNow();
    const double wall = u1.wall_s - u0.wall_s;
    const double user = u1.user_s - u0.user_s;
    const double sys = u1.sys_s - u0.sys_s;
    report.metric("workloads.splash_point_ms", median(ms), "ms");
    report.metric("workloads.splash_accesses",
                  static_cast<double>(accesses), "count");
    report.metric("workloads.splash_makespan_cycles",
                  static_cast<double>(makespan), "count");
    report.metric("workloads.splash_remote_loads",
                  static_cast<double>(remote), "count");
    report.metric("workloads.splash_invalidations",
                  static_cast<double>(inval), "count");
    report.metric("mp.sys_frac", sys / wall, "fraction");
    report.metric("mp.idle_frac", (wall - user - sys) / wall, "fraction");
    report.metric("mp.ctx_switches_per_kaccess",
                  static_cast<double>(u1.ctx_switches - u0.ctx_switches) /
                      (static_cast<double>(accesses) / 1e3),
                  "count");
}

} // namespace

void
runProbes(const Options &opt, Report &report)
{
    tracer().enable(true);
    probeTraceAndMem(opt, report);
    probeGspn(opt, report);
    probeMp(report);
    probeCoherence(opt, report);
    probeSampling(opt, report);
    probeServerLayers(opt, report);
    if (!report.has("workloads.missrate_point_ms"))
        probeSpecPoints(opt, report);
    if (!report.has("workloads.splash_point_ms"))
        probeSplash(report);
    if (!report.has("harness.pool_efficiency"))
        report.metric("harness.pool_efficiency",
                      specPoolEfficiency(opt.seed, opt.nproc), "fraction");
    if (!report.has("server.ping_rtt_us"))
        serverProbe(opt, report);
    tracer().enable(false);
}

} // namespace perfbench
