/**
 * @file
 * The spec-missrate workload: one main thread regenerates the SPEC
 * side of the catalog pass after pass. A pass runs every specSuite()
 * proxy through measureMissRates (the Fig 7+8 points), every Table 3
 * and Table 4 row through runSpecTablePoint and the six Table 1
 * points, all at the catalog's quick window, in a seeded order, then
 * renders the five --format json documents.
 *
 * The seed is the Tables 3/4 request seed (their GSPN draws) and
 * orders the points; Fig 7/8 and Table 1 do not depend on it and are
 * checked against the digests kept with the benchmark, Tables 3/4
 * against an independent render through the server's catalog plan.
 */

#include <memory>
#include <string>
#include <vector>

#include "harness/thread_pool.hh"
#include "server/catalog.hh"
#include "workloads.hh"
#include "workloads/missrate_figures.hh"
#include "workloads/spec_suite.hh"
#include "workloads/spec_tables.hh"

namespace perfbench {

using namespace memwall;

namespace {

enum class Kind { MissRate, Table1, Table3, Table4 };

struct Point
{
    Kind kind;
    std::size_t index;
};

/** Everything a pass needs, resolved once. */
struct SpecPlan
{
    MissRateParams missrate = resolveMissRateParams(true, 0);
    std::uint64_t table1_refs = resolveTable1Refs(true, 0);
    SpecEvalParams table;
    std::vector<const SpecWorkload *> suite;
    std::vector<const SpecWorkload *> rows;
    std::vector<Point> order;
    /** SPEC references generated and fed per pass. */
    std::uint64_t refs_per_pass = 0;

    explicit SpecPlan(std::uint64_t seed)
        : table(resolveSpecEvalParams(true, 0, seed))
    {
        for (const SpecWorkload &w : specSuite())
            suite.push_back(&w);
        rows = specTableWorkloads();
        for (std::size_t i = 0; i < suite.size(); ++i)
            order.push_back({Kind::MissRate, i});
        for (std::size_t i = 0; i < table1_points; ++i)
            order.push_back({Kind::Table1, i});
        for (std::size_t i = 0; i < rows.size(); ++i) {
            order.push_back({Kind::Table3, i});
            order.push_back({Kind::Table4, i});
        }
        seededShuffle(order, mixSeed(seed, 0x5bec));

        const std::uint64_t window =
            missrate.measured_refs + missrate.warmup_refs;
        const std::uint64_t table_window = table.missrate.measured_refs +
                                           table.missrate.warmup_refs;
        refs_per_pass = window * suite.size() +
                        2 * table_window * rows.size();
        for (std::size_t i = 0; i < table1_points; ++i) {
            const std::uint64_t r = table1PointRefs(i, table1_refs);
            refs_per_pass += r + r / 4; // warm-up is a quarter
        }
    }
};

/** The five documents of a pass, in a fixed order. */
constexpr const char *doc_names[5] = {
    "fig7_icache_miss", "fig8_dcache_miss", "table1_ss5_vs_ss10",
    "table3_spec_estimates", "table4_spec_estimates_vc"};

struct PassOutput
{
    std::vector<WorkloadMissRates> missrate;
    std::vector<MachineRun> table1;
    std::vector<SpecEstimate> table3;
    std::vector<SpecEstimate> table4;
    std::vector<double> point_s;
    std::string docs[5];
    double seconds = 0.0;
};

void
runPoint(const SpecPlan &plan, const Point &p, PassOutput &out)
{
    switch (p.kind) {
    case Kind::MissRate: {
        SpanScope span("workloads.measureMissRates");
        out.missrate[p.index] =
            measureMissRates(*plan.suite[p.index], plan.missrate);
        break;
    }
    case Kind::Table1: {
        SpanScope span("workloads.runTable1Point");
        out.table1[p.index] = runTable1Point(p.index, plan.table1_refs);
        break;
    }
    case Kind::Table3:
    case Kind::Table4: {
        SpanScope span("workloads.runSpecTablePoint");
        SpecEvalParams params = plan.table;
        params.seed = specTablePointSeed(plan.table.seed, p.index);
        const bool vc = p.kind == Kind::Table4;
        (vc ? out.table4 : out.table3)[p.index] =
            runSpecTablePoint(*plan.rows[p.index], vc, params);
        break;
    }
    }
}

void
renderDocs(PassOutput &out)
{
    const auto render = [](std::string &doc, auto &&fn) {
        SpanScope span("workloads.render");
        doc = fn();
    };
    render(out.docs[0], [&] {
        return missRateFigureJson(MissRateFigure::ICache, out.missrate);
    });
    render(out.docs[1], [&] {
        return missRateFigureJson(MissRateFigure::DCache, out.missrate);
    });
    render(out.docs[2], [&] { return table1Json(out.table1); });
    render(out.docs[3], [&] { return specTableJson(false, out.table3); });
    render(out.docs[4], [&] { return specTableJson(true, out.table4); });
}

PassOutput
emptyPass(const SpecPlan &plan)
{
    PassOutput out;
    out.missrate.resize(plan.suite.size());
    out.table1.resize(table1_points);
    out.table3.resize(plan.rows.size());
    out.table4.resize(plan.rows.size());
    return out;
}

PassOutput
runPass(const SpecPlan &plan)
{
    PassOutput out = emptyPass(plan);
    SpanScope span("spec.pass");
    const std::int64_t t0 = nowNs();
    for (const Point &p : plan.order) {
        const std::int64_t p0 = nowNs();
        runPoint(plan, p, out);
        out.point_s.push_back(static_cast<double>(nowNs() - p0) * 1e-9);
    }
    renderDocs(out);
    out.seconds = static_cast<double>(nowNs() - t0) * 1e-9;
    return out;
}

/** Tables 3/4 rendered through the server's catalog plan, points on
 *  a pool: the independent reference for the seed-dependent docs. */
std::string
catalogRender(server::Experiment exp, std::uint64_t seed,
              unsigned workers)
{
    server::RunRequest run;
    run.experiment = exp;
    run.quick = true;
    run.seed = seed;
    const server::CatalogPlan plan = server::buildCatalogPlan(run, "");
    std::vector<std::shared_ptr<void>> results(plan.points.size());
    {
        ThreadPool pool(workers);
        for (std::size_t i = 0; i < plan.points.size(); ++i)
            pool.submit([&plan, &results, i] {
                results[i] = plan.points[i].compute();
            });
        pool.waitIdle();
    }
    for (const auto &r : results)
        if (!r)
            return "";
    return plan.render(results);
}

} // namespace

void
setupSpecMissrate(const Options &opt)
{
    const SpecPlan plan(opt.seed);
    (void)plan;
}

void
runSpecMissrate(const Options &opt, Report &report)
{
    const SpecPlan plan(opt.seed);

    // One row per pass: each point's seconds, then render and loop
    // overhead as one more column.
    std::vector<std::vector<double>> untraced, traced;
    std::vector<double> pass_cpu_s;
    std::string first_docs[5];
    std::size_t passes = 0;
    const double deadline = nowS() + opt.seconds;
    do {
        // Tracing on every other pass: the untraced ones give the
        // end-to-end numbers, the difference is the tracing overhead.
        const bool on = opt.trace && passes % 2 == 1;
        tracer().enable(on);
        const double cpu0 = cpuNowS();
        PassOutput out = runPass(plan);
        tracer().enable(false);

        double points_total = 0.0;
        for (const double s : out.point_s)
            points_total += s;
        out.point_s.push_back(out.seconds - points_total);
        (on ? traced : untraced).push_back(std::move(out.point_s));
        if (!on)
            pass_cpu_s.push_back(cpuNowS() - cpu0);
        for (int d = 0; d < 5; ++d) {
            if (passes == 0)
                first_docs[d] = out.docs[d];
            report.check(!out.docs[d].empty() &&
                             out.docs[d] == first_docs[d],
                         std::string(doc_names[d]) +
                             " differs between passes");
            if (d < 3)
                report.document(doc_names[d], out.docs[d]);
        }
        ++passes;
    } while (nowS() < deadline || (opt.trace && traced.empty()));

    // Seed-dependent documents (every pass matched the first one):
    // byte-compare with the catalog render.
    report.check(first_docs[3] == catalogRender(server::Experiment::Table3,
                                                opt.seed, opt.nproc),
                 "table3 differs from the catalog render");
    report.check(first_docs[4] == catalogRender(server::Experiment::Table4,
                                                opt.seed, opt.nproc),
                 "table4 differs from the catalog render");

    reportPasses(untraced, static_cast<double>(plan.refs_per_pass), 5.0,
                 report);
    report.metric("peak_rss_mb", usageNow().maxrss_mb, "MB");
    report.note("sim_refs_per_pass", std::to_string(plan.refs_per_pass));
    report.note("pass_cpu_s", std::to_string(median(pass_cpu_s)));

    if (!opt.trace)
        return;
    const Tracer &t = tracer();
    report.metric("workloads.missrate_point_ms",
                  median(t.durations("workloads.measureMissRates")) * 1e3,
                  "ms");
    report.metric("workloads.spec_table_point_ms",
                  median(t.durations("workloads.runSpecTablePoint")) * 1e3,
                  "ms");
    report.metric("workloads.table1_point_ms",
                  median(t.durations("workloads.runTable1Point")) * 1e3,
                  "ms");
    report.metric("workloads.render_us",
                  median(t.durations("workloads.render")) * 1e6, "us");
    report.metric("bench.trace_overhead_frac",
                  tracingOverhead(traced, untraced), "fraction");
    report.metric("harness.pool_efficiency",
                  specPoolEfficiency(opt.seed, opt.nproc), "fraction");
}

double
specPoolEfficiency(std::uint64_t seed, unsigned workers)
{
    const SpecPlan plan(seed);
    PassOutput out = emptyPass(plan);
    std::vector<double> point_s(plan.order.size(), 0.0);
    const std::int64_t t0 = nowNs();
    {
        SpanScope span("harness.pool_pass");
        ThreadPool pool(workers);
        for (std::size_t i = 0; i < plan.order.size(); ++i)
            pool.submit([&plan, &out, &point_s, i] {
                const std::int64_t p0 = nowNs();
                runPoint(plan, plan.order[i], out);
                point_s[i] = static_cast<double>(nowNs() - p0) * 1e-9;
            });
        pool.waitIdle();
    }
    const double wall = static_cast<double>(nowNs() - t0) * 1e-9;
    double busy = 0.0;
    for (const double s : point_s)
        busy += s;
    return busy / (static_cast<double>(workers) * wall);
}

} // namespace perfbench
