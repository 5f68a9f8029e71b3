/**
 * @file
 * The splash-mp workload: one main thread regenerates the SPLASH
 * side of the catalog pass after pass. A pass runs every
 * (fig13..fig17 x arch x {1,2,4,8,16} cpus) point through
 * runSplashFigurePoint at the quick scale, gates each figure on its
 * cross-architecture checksums and renders its --format json
 * document. MpScheduler spawns one host thread per simulated CPU, but
 * only one runs at a time, so the token hand-off dominates.
 *
 * The kernels seed from the problem, so the documents do not depend
 * on the workload seed (it orders the points) and are checked against
 * the digests kept with the benchmark.
 */

#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "workloads.hh"
#include "workloads/splash_figures.hh"

namespace perfbench {

using namespace memwall;

namespace {

struct Point
{
    std::size_t fig;   ///< index into splash_figures
    std::size_t slot;  ///< arch-major position within the figure
    std::string arch;
    unsigned cpus;
};

constexpr std::size_t n_figs = std::size(splash_figures);

std::vector<Point>
splashPoints(std::uint64_t seed)
{
    std::vector<Point> points;
    for (std::size_t f = 0; f < n_figs; ++f) {
        std::size_t slot = 0;
        for (const std::string &arch : splashArchs())
            for (const unsigned cpus : splashCpuCounts(0))
                points.push_back({f, slot++, arch, cpus});
    }
    seededShuffle(points, mixSeed(seed, 0x5a1a));
    return points;
}

bool
checksumsAgree(const std::vector<SplashResult> &results)
{
    const double c0 = results.front().checksum;
    for (const SplashResult &r : results)
        if (std::abs(r.checksum - c0) > 1e-6 * (1.0 + std::abs(c0)))
            return false;
    return true;
}

} // namespace

void
setupSplashMp(const Options &opt)
{
    const std::vector<Point> points = splashPoints(opt.seed);
    (void)points;
}

void
runSplashMp(const Options &opt, Report &report)
{
    const std::vector<Point> points = splashPoints(opt.seed);
    const std::size_t per_fig = points.size() / n_figs;

    // One row per pass: each point's seconds, then rendering and loop
    // overhead as one more column.
    std::vector<std::vector<double>> untraced, traced;
    std::vector<double> pass_cpu_s;
    std::uint64_t pass_accesses = 0;
    std::uint64_t pass_makespan = 0;
    std::uint64_t pass_remote = 0;
    std::uint64_t pass_invalidations = 0;
    std::vector<std::string> first_docs(n_figs);
    std::size_t passes = 0;
    const Usage u0 = usageNow();
    const double deadline = nowS() + opt.seconds;
    do {
        const bool on = opt.trace && passes % 2 == 1;
        tracer().enable(on);
        std::vector<std::vector<SplashResult>> results(
            n_figs, std::vector<SplashResult>(per_fig));
        const std::int64_t t0 = nowNs();
        std::vector<std::string> docs(n_figs);
        std::vector<double> row;
        const double cpu0 = cpuNowS();
        {
            SpanScope pass("splash.pass");
            for (const Point &p : points) {
                const SplashFigure fig = splash_figures[p.fig];
                const std::int64_t p0 = nowNs();
                {
                    SpanScope span("workloads.runSplashFigurePoint");
                    results[p.fig][p.slot] = runSplashFigurePoint(
                        fig, p.arch, p.cpus, resolveSplashScale(fig, true),
                        nullptr);
                }
                row.push_back(static_cast<double>(nowNs() - p0) * 1e-9);
            }
            for (std::size_t f = 0; f < n_figs; ++f) {
                SpanScope span("workloads.render");
                const SplashFigure fig = splash_figures[f];
                docs[f] = splashFigureJson(
                    fig, resolveSplashScale(fig, true), 0, results[f]);
            }
        }
        const double seconds = static_cast<double>(nowNs() - t0) * 1e-9;
        const double cpu_s = cpuNowS() - cpu0;
        tracer().enable(false);

        pass_accesses = pass_makespan = pass_remote = pass_invalidations =
            0;
        for (std::size_t f = 0; f < n_figs; ++f) {
            for (const SplashResult &r : results[f]) {
                pass_accesses += r.accesses;
                pass_makespan += r.makespan;
                pass_remote += r.remote_loads;
                pass_invalidations += r.invalidations;
            }
            if (passes == 0)
                first_docs[f] = docs[f];
            const std::string name = splashFigureName(splash_figures[f]);
            report.check(checksumsAgree(results[f]),
                         name + " cross-architecture checksum mismatch");
            report.check(docs[f] == first_docs[f],
                         name + " differs between passes");
            report.document(name, docs[f]);
        }
        double points_total = 0.0;
        for (const double s : row)
            points_total += s;
        row.push_back(seconds - points_total);
        (on ? traced : untraced).push_back(std::move(row));
        if (!on)
            pass_cpu_s.push_back(cpu_s);
        ++passes;
    } while (nowS() < deadline || (opt.trace && traced.empty()));
    const Usage u1 = usageNow();

    reportPasses(untraced, static_cast<double>(pass_accesses),
                 static_cast<double>(n_figs), report);
    report.metric("peak_rss_mb", u1.maxrss_mb, "MB");
    report.note("sim_accesses_per_pass", std::to_string(pass_accesses));
    report.note("pass_cpu_s", std::to_string(median(pass_cpu_s)));

    if (!opt.trace)
        return;
    const double wall = u1.wall_s - u0.wall_s;
    const double user = u1.user_s - u0.user_s;
    const double sys = u1.sys_s - u0.sys_s;
    const double all_accesses =
        static_cast<double>(pass_accesses) * static_cast<double>(passes);
    report.metric("workloads.splash_point_ms",
                  median(tracer().durations(
                      "workloads.runSplashFigurePoint")) *
                      1e3,
                  "ms");
    report.metric("workloads.render_us",
                  median(tracer().durations("workloads.render")) * 1e6,
                  "us");
    report.metric("workloads.splash_accesses",
                  static_cast<double>(pass_accesses), "count");
    report.metric("workloads.splash_makespan_cycles",
                  static_cast<double>(pass_makespan), "count");
    report.metric("workloads.splash_remote_loads",
                  static_cast<double>(pass_remote), "count");
    report.metric("workloads.splash_invalidations",
                  static_cast<double>(pass_invalidations), "count");
    report.metric("mp.sys_frac", sys / wall, "fraction");
    report.metric("mp.idle_frac", (wall - user - sys) / wall, "fraction");
    report.metric("mp.ctx_switches_per_kaccess",
                  static_cast<double>(u1.ctx_switches - u0.ctx_switches) /
                      (all_accesses / 1e3),
                  "count");
    report.metric("bench.trace_overhead_frac",
                  tracingOverhead(traced, untraced), "fraction");
}

} // namespace perfbench
