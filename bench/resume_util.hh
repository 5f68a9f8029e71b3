/**
 * @file
 * Shared --resume / --ckpt-dir plumbing: the catalog bench driver
 * (Figures 7 and 8) and the checkpoint torture bench.
 */

#ifndef MEMWALL_BENCH_RESUME_UTIL_HH
#define MEMWALL_BENCH_RESUME_UTIL_HH

#include <cstdio>
#include <memory>
#include <string>

#include "checkpoint/journal.hh"
#include "checkpoint/store.hh"
#include "workloads/missrate.hh"

namespace memwall::benchutil {

/**
 * Open the journal (fatal on I/O errors) and report recovery on
 * stderr — stdout must stay byte-identical between an uninterrupted
 * run and a killed-and-resumed one.
 */
inline void
openJournal(ckpt::SweepJournal &journal, const std::string &path,
            std::uint64_t run_hash)
{
    std::string why;
    if (!journal.open(path, run_hash, &why))
        MW_FATAL("--resume: ", why);
    if (journal.discardedForeign())
        std::fprintf(stderr, "resume journal: foreign run "
                             "discarded, starting fresh\n");
    else if (journal.recovered() > 0)
        std::fprintf(stderr,
                     "resume journal: replaying %zu committed "
                     "point(s)%s\n",
                     journal.recovered(),
                     journal.tornBytes() ? " (torn tail truncated)"
                                         : "");
}

/** One-line degradation/bookkeeping summary of a checkpoint store,
 *  on stderr: it legitimately differs between populating and
 *  loading runs, and stdout must stay byte-identical to a
 *  non-accelerated run. */
inline void
printStoreCounters(const ckpt::CheckpointStore &store)
{
    const ckpt::StoreCounters c = store.counters();
    std::fprintf(stderr,
                 "checkpoint store: loaded=%llu written=%llu "
                 "degraded=%llu (missing=%llu corrupt=%llu "
                 "version=%llu config=%llu) write-errors=%llu\n",
                 static_cast<unsigned long long>(c.loaded),
                 static_cast<unsigned long long>(c.written),
                 static_cast<unsigned long long>(c.degraded()),
                 static_cast<unsigned long long>(c.degraded_missing),
                 static_cast<unsigned long long>(c.degraded_corrupt),
                 static_cast<unsigned long long>(c.degraded_version),
                 static_cast<unsigned long long>(c.degraded_config),
                 static_cast<unsigned long long>(c.write_errors));
}

/**
 * Build the per-unit checkpoint store for a stratified sampled run,
 * or null when --ckpt-dir was not given.
 */
inline std::unique_ptr<ckpt::CheckpointStore>
makeMissRateStore(const std::string &ckpt_dir,
                  const SamplingPlan &plan)
{
    if (ckpt_dir.empty())
        return nullptr;
    return std::make_unique<ckpt::CheckpointStore>(
        ckpt_dir, ckpt::fnvMix(ckpt::fnv1a64("missrate-sampled"),
                               samplingPlanHash(plan)));
}

} // namespace memwall::benchutil

#endif // MEMWALL_BENCH_RESUME_UTIL_HH
