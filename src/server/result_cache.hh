/**
 * @file
 * Crash-safe memo cache for experiment results.
 *
 * The cache's only on-disk copy is an append-only ckpt::RecordJournal
 * ("results.mwsj"): one fsync'd, CRC-checked record per computed
 * result, keyed by insertion sequence, whose payload is the FNV-1a
 * hash of the canonical run key, the key itself and the result
 * bytes. A SIGKILL'd server replays the journal at startup and
 * resumes with its memo table intact; a torn tail is truncated
 * away. The journal's run hash covers the git describe, so a rebuilt
 * binary discards results computed by different code instead of
 * serving them. `mwckpt journal` lists
 * the records without writing to the file, so it is safe to run
 * against a live server's cache directory.
 *
 * The cache compacts its journal when the file outgrows the byte
 * cap: live entries are rewritten oldest-dropped-first into a temp
 * journal that is atomically renamed over the old one — the same
 * crash contract as every other writer in src/checkpoint.
 */

#ifndef MEMWALL_SERVER_RESULT_CACHE_HH
#define MEMWALL_SERVER_RESULT_CACHE_HH

#include <cstdint>
#include <map>
#include <string>

#include "checkpoint/journal.hh"

namespace memwall {
namespace server {

class ResultCache
{
  public:
    /**
     * Open (or create) the cache in directory @p dir. Existing
     * journal records from the same build are replayed into the memo
     * table. @p cap_bytes bounds the journal file through
     * compaction; 0 = unbounded. Returns false with @p why on I/O
     * errors.
     */
    bool open(const std::string &dir, std::uint64_t cap_bytes,
              std::string *why);

    /** Close the journal (results remain on disk). */
    void close();

    /**
     * The memoized result for @p canonical, or nullptr. The pointer
     * stays valid until the next insert()/close(). Not thread-safe;
     * the server serializes access under a dedicated cache mutex
     * (never its state mutex — insert() can fsync and compact).
     */
    const std::string *lookup(const std::string &canonical) const;

    /**
     * Memoize @p result under @p canonical, durably (journal append
     * + fsync). A failure to persist is reported but the in-memory
     * entry is still usable — the result is correct, it just will
     * not survive a restart.
     */
    bool insert(const std::string &canonical,
                const std::string &result, std::string *why);

    /** Entries currently memoized. */
    std::size_t size() const { return entries_.size(); }
    /** Entries replayed from a previous server life at open(). */
    std::size_t recovered() const { return recovered_; }
    /** Torn bytes truncated from the journal tail at open(). */
    std::size_t tornBytes() const { return torn_bytes_; }
    /** Whether open() discarded a journal from a different build. */
    bool discardedForeign() const { return discarded_foreign_; }
    /** Journal compactions performed since open(). */
    std::uint64_t compactions() const { return compactions_; }

  private:
    struct Entry
    {
        std::string result;
        std::uint64_t seq = 0; ///< insertion order, for compaction
    };

    bool compact(std::string *why);

    std::string journal_path_;
    std::uint64_t run_hash_ = 0;
    std::uint64_t cap_bytes_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t compactions_ = 0;
    std::size_t recovered_ = 0;
    std::size_t torn_bytes_ = 0;
    bool discarded_foreign_ = false;
    ckpt::RecordJournal journal_;
    std::map<std::string, Entry> entries_;
};

} // namespace server
} // namespace memwall

#endif // MEMWALL_SERVER_RESULT_CACHE_HH
