/**
 * @file
 * Validation: sampled simulation vs exhaustive simulation.
 *
 * Every suite workload's Figure 7/8 headline miss rates (proposed
 * icache, proposed+victim dcache) are measured under BOTH sampling
 * schemes, each against the exhaustive reference that measures the
 * same population, and must land inside the sampled confidence
 * interval (or within a small absolute tolerance, for near-zero
 * values whose sampled variance collapses):
 *
 *   systematic  vs the windowed exhaustive run (same stream, same
 *               measurement window);
 *   stratified  vs a steady-state exhaustive run (stationary_start —
 *               scatterState() then warm up), since independent
 *               stationary substreams estimate the steady-state
 *               rate, not a particular cold-start window.
 *
 * Text mode also times the runs and enforces an aggregate wall-clock
 * speedup (--min-speedup, default 5) of the stratified scheme, the
 * production mode, over its exhaustive reference. The systematic
 * scheme replays the entire stream by construction, so its (smaller)
 * speedup is reported but not gated. With `--format json` the output
 * carries no wall-clock times, so it is byte-identical across runs
 * and across --jobs values — CI diffs it against a committed golden
 * file.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/table.hh"
#include "harness/parallel_sweep.hh"
#include "workloads/missrate.hh"

using namespace memwall;
using namespace memwall::cachelabels;

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Run @p fn @p reps times and report the minimum wall-clock time in
 * @p seconds — the standard noise-robust estimator for a
 * deterministic computation on a possibly loaded host. Every run
 * computes identical values (the simulator is deterministic), so
 * only the first result is kept.
 */
template <typename Fn>
auto
timedBest(int reps, double &seconds, Fn &&fn)
{
    double t0 = nowSeconds();
    auto result = fn();
    seconds = nowSeconds() - t0;
    for (int i = 1; i < reps; ++i) {
        t0 = nowSeconds();
        static_cast<void>(fn());
        seconds = std::min(seconds, nowSeconds() - t0);
    }
    return result;
}

/** Timing repetitions for the speedup gate's two sides. */
struct TimingReps
{
    int full = 1;
    int sampled = 1;
};

/** One gated comparison: exhaustive value vs sampled interval. */
struct Check
{
    std::string metric;
    double full = 0.0;
    double mean = 0.0;
    double half = 0.0;
    std::uint64_t units = 0;
    bool pass = false;
};

/** One crosschecked workload. */
struct Point
{
    std::string name;
    std::vector<Check> checks;
    /** Speedup-gated pair: steady-state full vs stratified. */
    double full_s = 0.0;
    double sampled_s = 0.0;
    /** Ungated pair: windowed full vs systematic. */
    double sys_full_s = 0.0;
    double sys_sampled_s = 0.0;
};

/**
 * Coverage gate. The interval must cover the exhaustive value, with
 * an absolute fallback for degenerate samples: a stratified unit set
 * that never misses yields a zero-width interval at rate 0, and the
 * exhaustive rate over a 10x longer stream can still be a few
 * hundredths of a percent.
 */
bool
covered(double full, const ConfidenceInterval &ci, double abs_tol)
{
    if (ci.contains(full))
        return true;
    return std::abs(full - ci.mean) <= abs_tol;
}

Check
makeCheck(const std::string &metric, double full,
          const SampledCacheMissRate &sampled, double abs_tol)
{
    Check c;
    c.metric = metric;
    c.full = full;
    c.mean = sampled.mean();
    c.half = sampled.ci.half_width;
    c.units = sampled.unit_rates.count();
    c.pass = covered(full, sampled.ci, abs_tol);
    return c;
}

/**
 * Systematic SPEC: same stream, same window — the only deviation
 * sources are sampling error (the CI's job) and the finite warm
 * window, so the absolute fallback is tight: 0.15 percentage points.
 */
constexpr double spec_sys_abs_tol = 0.0015;
/**
 * Stratified SPEC: the fast approximate mode. Its units splice
 * independent substreams into one cache lifetime, which perturbs
 * long-reuse-distance behaviour; the documented accuracy contract
 * for the headline metrics is 0.3 percentage points.
 */
constexpr double spec_strat_abs_tol = 0.003;

Point
runSpecPoint(const SpecWorkload &w, const MissRateParams &params,
             const SamplingPlan &sys_plan,
             const SamplingPlan &strat_plan, const TimingReps &reps)
{
    Point pt;
    pt.name = w.name;

    // Systematic scheme vs the windowed exhaustive run.
    const WorkloadMissRates window = timedBest(
        reps.full, pt.sys_full_s,
        [&] { return measureMissRates(w, params); });

    const SampledWorkloadMissRates sys = timedBest(
        reps.sampled, pt.sys_sampled_s,
        [&] { return measureMissRatesSampled(w, params, sys_plan); });

    pt.checks.push_back(makeCheck(
        "icache proposed (sys)", window.icache(proposed).missRate(),
        sys.icache(proposed), spec_sys_abs_tol));
    pt.checks.push_back(makeCheck(
        "dcache proposed+vc (sys)",
        window.dcache(proposed_vc).missRate(),
        sys.dcache(proposed_vc), spec_sys_abs_tol));

    // Stratified scheme vs the steady-state exhaustive run.
    MissRateParams steady_params = params;
    steady_params.stationary_start = true;
    const WorkloadMissRates steady = timedBest(
        reps.full, pt.full_s,
        [&] { return measureMissRates(w, steady_params); });

    const SampledWorkloadMissRates strat = timedBest(
        reps.sampled, pt.sampled_s, [&] {
            return measureMissRatesSampled(w, params, strat_plan);
        });

    pt.checks.push_back(makeCheck(
        "icache proposed (strat)",
        steady.icache(proposed).missRate(), strat.icache(proposed),
        spec_strat_abs_tol));
    pt.checks.push_back(makeCheck(
        "dcache proposed+vc (strat)",
        steady.dcache(proposed_vc).missRate(),
        strat.dcache(proposed_vc), spec_strat_abs_tol));
    return pt;
}

void
printJson(const std::vector<Point> &spec, int failed)
{
    const auto checks = [](const Point &pt, const char *indent) {
        for (std::size_t i = 0; i < pt.checks.size(); ++i) {
            const Check &c = pt.checks[i];
            std::printf("%s{\"metric\": \"%s\", \"full\": %.6f, "
                        "\"mean\": %.6f, \"half\": %.6f, "
                        "\"units\": %llu, \"pass\": %s}%s\n",
                        indent, c.metric.c_str(), c.full, c.mean,
                        c.half,
                        static_cast<unsigned long long>(c.units),
                        c.pass ? "true" : "false",
                        i + 1 < pt.checks.size() ? "," : "");
        }
    };
    std::printf("{\n  \"spec\": [\n");
    for (std::size_t i = 0; i < spec.size(); ++i) {
        std::printf("    {\"workload\": \"%s\", \"checks\": [\n",
                    spec[i].name.c_str());
        checks(spec[i], "      ");
        std::printf("    ]}%s\n", i + 1 < spec.size() ? "," : "");
    }
    std::printf("  ],\n  \"failed\": %d\n}\n", failed);
}

} // namespace

int
main(int argc, char **argv)
{
    auto opt = benchutil::parse(argc, argv, {"--min-speedup"});
    const double min_speedup =
        std::strtod(opt.extraOr("--min-speedup", "5").c_str(),
                    nullptr);
    if (!opt.json())
        benchutil::banner(
            "Validation - sampled vs exhaustive simulation", opt);

    MissRateParams spec_params;
    spec_params.measured_refs = opt.quick ? 400'000 : 4'000'000;
    spec_params.warmup_refs = spec_params.measured_refs / 4;

    const SamplingPlan spec_sys_plan = parseSamplingPlan(
        opt.quick ? "U=1000,W=4000,k=50" : "U=1000,W=4000,k=50");
    SamplingPlan spec_strat_plan = parseSamplingPlan(
        opt.quick ? "mode=strat,U=1000,W=2000,n=12"
                  : "mode=strat,U=1000,W=2000,n=30");
    spec_strat_plan.seed = opt.seed;

    // The speedup gate compares wall-clock on a possibly loaded
    // host; best-of-N per side keeps the measurement robust. Quick
    // runs are cheap enough to repeat; full runs take the single
    // measurement (minutes-long runs amortise the noise themselves).
    TimingReps reps;
    if (opt.quick) {
        reps.full = 2;
        reps.sampled = 3;
    }

    std::vector<Point> spec;
    ParallelSweep<Point> sweep(opt.jobs, opt.seed);
    for (const auto &w : specSuite())
        sweep.submit(
            [&w, &spec_params, &spec_sys_plan, &spec_strat_plan,
             &reps](const PointContext &) {
                return runSpecPoint(w, spec_params, spec_sys_plan,
                                    spec_strat_plan, reps);
            },
            [&spec](const PointContext &, Point pt) {
                spec.push_back(std::move(pt));
            });
    sweep.finish();

    int failed = 0;
    for (const Point &pt : spec)
        for (const Check &c : pt.checks)
            if (!c.pass)
                ++failed;

    if (opt.json()) {
        printJson(spec, failed);
        return failed != 0 ? 1 : 0;
    }

    TextTable spec_table(
        "Exhaustive miss rate vs sampled CI (%)");
    spec_table.setHeader({"workload", "metric", "exhaustive",
                          "sampled", "units", "status"});
    for (const Point &pt : spec)
        for (const Check &c : pt.checks)
            spec_table.addRow(
                {pt.name, c.metric, TextTable::num(c.full * 100, 3),
                 TextTable::num(c.mean * 100, 3) + "±" +
                     TextTable::num(c.half * 100, 3),
                 std::to_string(c.units),
                 c.pass ? "ok" : "FAIL"});
    spec_table.print(std::cout);

    double spec_full = 0.0, spec_sampled = 0.0;
    double sys_full = 0.0, sys_sampled = 0.0;
    for (const Point &pt : spec) {
        spec_full += pt.full_s;
        spec_sampled += pt.sampled_s;
        sys_full += pt.sys_full_s;
        sys_sampled += pt.sys_sampled_s;
    }
    const double speedup =
        spec_sampled > 0.0 ? spec_full / spec_sampled : 0.0;

    std::printf("\nwall-clock (stratified, gated): %.3fs -> %.3fs\n",
                spec_full, spec_sampled);
    std::printf("wall-clock (systematic, ungated): "
                "%.3fs -> %.3fs (%.1fx)\n",
                sys_full, sys_sampled,
                sys_sampled > 0 ? sys_full / sys_sampled : 0.0);
    std::printf("aggregate measured speedup: %.1fx (gate: >= %.1fx)\n",
                speedup, min_speedup);
    std::printf("coverage: %d failed check(s)\n", failed);

    if (failed != 0)
        return 1;
    if (speedup < min_speedup) {
        std::printf("FAIL: sampling speedup below the gate\n");
        return 1;
    }
    std::printf("PASS\n");
    return 0;
}
