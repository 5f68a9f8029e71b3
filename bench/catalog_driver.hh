/**
 * @file
 * The one driver behind the ten catalog benches (Figures 7/8, Tables
 * 1/3/4, Figures 13-17). A bench maps its command line onto the
 * server::RunRequest mw-server would receive for the same run, runs
 * the points of server::buildCatalogPlan() on a ParallelSweep
 * (--jobs) and prints the plan's JSON document or its own text
 * report, so a bench and mw-server run the same plan.
 *
 * Flags beyond bench_util's core set:
 *   fig7, fig8     --sample PLAN; --resume PATH, a crash-safe sweep
 *                  journal keyed by the run (a killed run rerun with
 *                  the same flags replays its committed points to
 *                  byte-identical output); --ckpt-dir DIR, per-unit
 *                  warm-state checkpoints for stratified sampled
 *                  plans (missing or corrupt files degrade to
 *                  functional warming);
 *   fig13..fig17   --sample PLAN; --nodes N, one processor count.
 * A flag the experiment does not read is a usage error (exit 2), by
 * the rule mw-server applies to the same request field.
 */

#ifndef MEMWALL_BENCH_CATALOG_DRIVER_HH
#define MEMWALL_BENCH_CATALOG_DRIVER_HH

#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "harness/parallel_sweep.hh"
#include "harness/sweep_resume.hh"
#include "resume_util.hh"
#include "server/catalog.hh"

namespace memwall::benchutil {

/** Finished point results, in plan order. */
using CatalogResults = std::vector<std::shared_ptr<void>>;

inline constexpr std::initializer_list<const char *> missrate_flags = {
    "--sample", "--ckpt-dir", "--resume"};
inline constexpr std::initializer_list<const char *> splash_flags = {
    "--sample", "--nodes"};

/**
 * Run catalog experiment @p exp as a one-shot bench titled @p title;
 * @p text prints the text report of the finished points. A non-null
 * @p check cross-validates them: when it fails, the run exits 1 in
 * both formats.
 */
inline int
runCatalogBench(server::Experiment exp, const std::string &title,
                int argc, char **argv,
                void (*text)(const server::RunRequest &,
                             const CatalogResults &),
                bool (*check)(const CatalogResults &) = nullptr)
{
    const char *prog = argv[0];
    const std::initializer_list<const char *> flags =
        server::experimentIsMissRate(exp) ? missrate_flags
        : server::experimentIsSplash(exp)
            ? splash_flags
            : std::initializer_list<const char *>{};
    const Options opt = parse(argc, argv, flags);
    const std::string ckpt_dir = checkpointDirFlag(opt, prog, flags);
    const std::string resume_path = resumePathFlag(opt, prog, flags);
    server::RunRequest req;
    req.experiment = exp;
    req.quick = opt.quick;
    req.refs = opt.refs;
    req.seed = opt.seed;
    const std::string sample = opt.extraOr("--sample", "");
    if (!sample.empty()) {
        req.has_sample = true;
        req.sample = parseSamplingPlan(sample);
    }
    const std::string nodes = opt.extraOr("--nodes", "");
    if (!nodes.empty()) {
        req.nodes = parseU64Flag(nodes.c_str(), "--nodes", prog, flags);
        if (req.nodes == 0 || req.nodes > splash_max_nodes)
            usageError(prog, flags,
                       "--nodes must be between 1 and " +
                           std::to_string(splash_max_nodes));
    }
    server::ErrorCode code{};
    std::string why;
    if (!server::validateRun(req, code, why))
        usageError(prog, flags, why);
    if (!opt.json())
        banner(title, opt);

    std::unique_ptr<ckpt::CheckpointStore> store;
    if (req.has_sample)
        store = makeMissRateStore(ckpt_dir, req.sample);
    server::CatalogPlan plan =
        server::buildCatalogPlan(req, "", store.get());

    // Commits land in plan order whichever worker finishes first, so
    // the results match a serial run for every --jobs.
    ckpt::SweepJournal journal;
    ParallelSweep<std::shared_ptr<void>> sweep(opt.jobs, opt.seed);
    if (!resume_path.empty()) {
        openJournal(journal, resume_path, server::runKeyHash(req));
        attachSweepJournal(sweep, journal, plan.encode, plan.decode);
    }
    CatalogResults results;
    for (server::CatalogPoint &point : plan.points)
        sweep.submit(
            [&point](const PointContext &) { return point.compute(); },
            [&results](const PointContext &, std::shared_ptr<void> r) {
                results.push_back(std::move(r));
            });
    sweep.finish();

    if (opt.json())
        std::fputs(plan.render(results).c_str(), stdout);
    else
        text(req, results);
    if (store)
        printStoreCounters(*store);
    return check && !check(results) ? 1 : 0;
}

} // namespace memwall::benchutil

#endif // MEMWALL_BENCH_CATALOG_DRIVER_HH
