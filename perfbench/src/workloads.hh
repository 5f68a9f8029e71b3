/**
 * @file
 * The benchmark's workloads and layer probes.
 *
 * Each workload runs for Options::seconds, measures with the span
 * recorder off, and fills the report with its end-to-end metrics and
 * checked documents. With Options::trace set it alternates traced and
 * untraced passes, reports its own per-layer span metrics and the
 * tracing overhead; runProbes() then fills every per-layer metric the
 * workload did not measure itself.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "util.hh"

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Do the workload's set-up, print "ready" and exit. */
    bool setup_only = false;
    /** Scratch directory for sockets, caches and the trace file. */
    std::string work_dir;
    /** The mw-server executable. */
    std::string server_bin;
    /** Host processors (std::thread::hardware_concurrency). */
    unsigned nproc = 1;
};

/** SPEC side: Fig 7/8 miss rates, Tables 1/3/4, serial. */
void setupSpecMissrate(const Options &opt);
void runSpecMissrate(const Options &opt, Report &report);

/** SPLASH side: Figs 13-17, every arch x cpu point, serial. */
void setupSplashMp(const Options &opt);
void runSplashMp(const Options &opt, Report &report);

/** The mw-server daemon under a closed-loop catalog request mix. */
void runServerCatalog(const Options &opt, Report &report);

/** Layer probes; sets only metrics the report does not have yet. */
void runProbes(const Options &opt, Report &report);

/**
 * One spec-missrate pass through a ThreadPool of @p workers: the
 * serial sum of point times over (workers x wall).
 */
double specPoolEfficiency(std::uint64_t seed, unsigned workers);

/**
 * A short mw-server session for the per-layer server metrics of the
 * non-server workloads: spawn, pings, a few misses and hits, stats.
 */
void serverProbe(const Options &opt, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
