#include "server/catalog.hh"

#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"
#include "workloads/missrate.hh"
#include "workloads/spec_suite.hh"
#include "workloads/spec_tables.hh"
#include "workloads/splash_figures.hh"

namespace memwall {
namespace server {

namespace {

/** snprintf into a std::string (unit keys are short and bounded). */
template <typename... Args>
std::string
keyf(const char *fmt, Args... args)
{
    char buf[192];
    const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
    MW_ASSERT(n >= 0 && static_cast<std::size_t>(n) < sizeof(buf),
              "unit key overflow");
    return buf;
}

CatalogPlan
missRatePlan(const RunRequest &run)
{
    const MissRateParams params =
        resolveMissRateParams(run.quick, run.refs);
    const MissRateFigure fig = run.experiment == Experiment::Fig7
        ? MissRateFigure::ICache
        : MissRateFigure::DCache;
    const bool sampled = run.has_sample;
    const SamplingPlan plan = run.sample;

    CatalogPlan out;
    for (const SpecWorkload &w : specSuite()) {
        CatalogPoint p;
        // No figure and no request seed in the key: one
        // measureMissRates() pass computes both the fig7 and fig8
        // rows for a workload and never draws from the request seed,
        // so fig7/fig8 requests (at any seed) share these units.
        if (sampled)
            p.unit_key = keyf(
                "missrate-sampled|%s|measured=%" PRIu64
                "|warmup=%" PRIu64 "|plan=%016" PRIx64,
                w.name.c_str(), params.measured_refs,
                params.warmup_refs, samplingPlanHash(plan));
        else
            p.unit_key = keyf("missrate|%s|measured=%" PRIu64
                              "|warmup=%" PRIu64,
                              w.name.c_str(), params.measured_refs,
                              params.warmup_refs);
        p.label = "workload '" + w.name + "'";
        const SpecWorkload *wp = &w;
        if (sampled)
            p.compute = [wp, params, plan] {
                return std::make_shared<SampledWorkloadMissRates>(
                    measureMissRatesSampled(*wp, params, plan));
            };
        else
            p.compute = [wp, params] {
                return std::make_shared<WorkloadMissRates>(
                    measureMissRates(*wp, params));
            };
        out.points.push_back(std::move(p));
    }
    if (sampled)
        out.render =
            [fig](const std::vector<std::shared_ptr<void>> &r) {
                return missRateFigureSampledJson(
                    fig, gatherResults<SampledWorkloadMissRates>(r));
            };
    else
        out.render =
            [fig](const std::vector<std::shared_ptr<void>> &r) {
                return missRateFigureJson(
                    fig, gatherResults<WorkloadMissRates>(r));
            };
    return out;
}

CatalogPlan
table1Plan(const RunRequest &run)
{
    const std::uint64_t refs =
        resolveTable1Refs(run.quick, run.refs);
    CatalogPlan out;
    for (std::size_t i = 0; i < table1_points; ++i) {
        CatalogPoint p;
        // The point is fully determined by (index, refs): the
        // hierarchy replay draws nothing from the request seed.
        p.unit_key = keyf("table1|%zu|refs=%" PRIu64, i, refs);
        p.label = std::string("table1 point '") +
                  table1PointWorkload(i) + " on " +
                  table1PointMachine(i) + "'";
        p.compute = [i, refs] {
            return std::make_shared<MachineRun>(
                runTable1Point(i, refs));
        };
        out.points.push_back(std::move(p));
    }
    out.render = [](const std::vector<std::shared_ptr<void>> &r) {
        return table1Json(gatherResults<MachineRun>(r));
    };
    return out;
}

CatalogPlan
specTablePlan(const RunRequest &run)
{
    const bool vc = run.experiment == Experiment::Table4;
    const SpecEvalParams base =
        resolveSpecEvalParams(run.quick, run.refs, run.seed);
    CatalogPlan out;
    const auto workloads = specTableWorkloads();
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const SpecWorkload *w = workloads[i];
        SpecEvalParams p = base;
        // The plan, not the scheduler, seeds each point from
        // (request seed, index), so mw-server's pool and the bench's
        // sweep make the same Monte-Carlo draws.
        p.seed = specTablePointSeed(run.seed, i);
        CatalogPoint point;
        point.unit_key = keyf(
            "spec|%s|vc=%d|measured=%" PRIu64 "|warmup=%" PRIu64
            "|gspn=%" PRIu64 "|pointseed=%" PRIu64,
            w->name.c_str(), vc ? 1 : 0,
            base.missrate.measured_refs, base.missrate.warmup_refs,
            base.gspn_instructions, p.seed);
        point.label = "workload '" + w->name + "'";
        point.compute = [w, vc, p] {
            return std::make_shared<SpecEstimate>(
                runSpecTablePoint(*w, vc, p));
        };
        out.points.push_back(std::move(point));
    }
    out.render = [vc](const std::vector<std::shared_ptr<void>> &r) {
        return specTableJson(vc, gatherResults<SpecEstimate>(r));
    };
    return out;
}

CatalogPlan
splashPlan(const RunRequest &run)
{
    const SplashFigure fig = splashFigureOf(run.experiment);
    const double scale = resolveSplashScale(fig, run.quick);
    const std::uint64_t nodes = run.nodes;

    CatalogPlan out;
    for (const std::string &arch : splashArchs()) {
        for (unsigned ncpus : splashCpuCounts(nodes)) {
            CatalogPoint p;
            // The kernels seed from the problem, not the request
            // seed, so the unit is (kernel, arch, cpus, scale) — a
            // fig13 full-axis sweep and a fig13 --nodes=4 run share
            // their common point.
            p.unit_key = keyf("splash|%s|%s|cpus=%u|scale=%.9g",
                              splashFigureKernel(fig), arch.c_str(),
                              ncpus, scale);
            p.label = std::string(splashFigureKernel(fig)) +
                      " arch=" + arch +
                      " cpus=" + std::to_string(ncpus);
            p.compute = [fig, arch, ncpus, scale] {
                return std::make_shared<SplashResult>(
                    runSplashFigurePoint(fig, arch, ncpus, scale,
                                         nullptr));
            };
            out.points.push_back(std::move(p));
        }
    }
    out.render = [fig, scale, nodes](
                     const std::vector<std::shared_ptr<void>> &r) {
        return splashFigureJson(fig, scale, nodes,
                                gatherResults<SplashResult>(r));
    };
    return out;
}

} // namespace

CatalogPlan
buildCatalogPlan(const RunRequest &run,
                 const std::string &fault_scope)
{
    CatalogPlan plan;
    switch (run.experiment) {
    case Experiment::Fig7:
    case Experiment::Fig8:
        plan = missRatePlan(run);
        break;
    case Experiment::Table1:
        plan = table1Plan(run);
        break;
    case Experiment::Table3:
    case Experiment::Table4:
        plan = specTablePlan(run);
        break;
    default:
        plan = splashPlan(run);
        break;
    }
    if (!fault_scope.empty())
        // Scope fault-injected units to their own request: the
        // injected failures and hangs must never leak into a clean
        // request's shared computation.
        for (CatalogPoint &p : plan.points)
            p.unit_key += "|scope=" + fault_scope;
    return plan;
}

} // namespace server
} // namespace memwall
