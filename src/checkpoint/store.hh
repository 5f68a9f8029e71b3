/**
 * @file
 * Directory of per-unit checkpoints with graceful-degradation
 * accounting.
 *
 * The accelerated sampling path asks the store for "the checkpoint
 * of unit k"; if the file is missing, corrupt, version-skewed or
 * from a foreign configuration, the caller falls back to functional
 * warming and the store remembers *why* in its counters so the JSON
 * output can surface how often degradation happened. A load never
 * crashes the run and never silently applies bad state — the
 * container layer rejects it first. Nothing is ever evicted: the
 * directory holds one file per workload and sampling unit, a count
 * the plan bounds.
 */

#ifndef MEMWALL_CHECKPOINT_STORE_HH
#define MEMWALL_CHECKPOINT_STORE_HH

#include <cstdint>
#include <mutex>
#include <string>

#include "checkpoint/checkpoint.hh"

namespace memwall {
namespace ckpt {

/** Degradation/bookkeeping counters, summable across threads. */
struct StoreCounters
{
    std::uint64_t loaded = 0;           ///< checkpoints applied
    std::uint64_t written = 0;          ///< checkpoints populated
    std::uint64_t degraded_missing = 0; ///< no file: rewarm
    std::uint64_t degraded_corrupt = 0; ///< CRC/truncation: rewarm
    std::uint64_t degraded_version = 0; ///< format skew: rewarm
    std::uint64_t degraded_config = 0;  ///< foreign config: rewarm
    std::uint64_t write_errors = 0;     ///< population failed (I/O)

    std::uint64_t degraded() const
    {
        return degraded_missing + degraded_corrupt +
               degraded_version + degraded_config;
    }
};

class CheckpointStore
{
  public:
    CheckpointStore(std::string dir, std::uint64_t config_hash)
        : dir_(std::move(dir)), config_hash_(config_hash)
    {
    }

    const std::string &dir() const { return dir_; }
    std::uint64_t configHash() const { return config_hash_; }

    std::string pathFor(const std::string &key) const
    {
        return dir_ + "/" + key + ".mwcp";
    }

    /** Write @p key's checkpoint crash-safely; counts errors instead
     *  of failing the run (population is an optimization). */
    bool save(const std::string &key, const CheckpointWriter &w,
              std::string *why = nullptr);

    /**
     * Validate and load @p key into @p reader. Any failure is
     * classified into the degradation counters and reported; the
     * caller must then rewarm instead.
     */
    LoadError load(const std::string &key, CheckpointReader &reader);

    /**
     * Record a post-validation decode failure — the container's
     * CRCs checked out but a section payload would not decode (or a
     * component guard rejected it). Counted with the corrupt
     * degradations; the caller rewarms exactly as for a bad CRC.
     */
    void noteMalformed();

    /** Snapshot of the counters (thread-safe). */
    StoreCounters counters() const;

  private:
    std::string dir_;
    std::uint64_t config_hash_;
    mutable std::mutex mutex_;
    StoreCounters counters_;
};

} // namespace ckpt
} // namespace memwall

#endif // MEMWALL_CHECKPOINT_STORE_HH
