/**
 * @file
 * The proposal's victim cache (Section 5.4).
 *
 * A single column buffer's worth of storage (512 bytes) organised as
 * sixteen fully-associative 32-byte lines with LRU replacement. It
 * receives a copy of the most recently accessed 32-byte sub-block of
 * a column buffer whenever that buffer is reloaded; the copy is free
 * because it overlaps the DRAM array access of the miss. Unlike
 * Jouppi's original victim cache, entries are never reloaded into the
 * main cache (the 512-byte line size makes that impossible), so it
 * behaves as a small, permanent side cache.
 */

#ifndef MEMWALL_MEM_VICTIM_CACHE_HH
#define MEMWALL_MEM_VICTIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace memwall {

/** Victim-cache geometry; defaults match the paper. */
struct VictimCacheConfig
{
    /** Number of fully-associative entries. */
    std::uint32_t entries = 16;
    /** Bytes per entry (the coherence/sub-block unit). */
    std::uint32_t line_size = 32;
};

/**
 * Fully-associative LRU buffer of evicted sub-blocks. Also used as
 * the staging area for imported remote data in the MP model
 * (Section 4.1).
 */
class VictimCache
{
  public:
    explicit VictimCache(VictimCacheConfig config = {});

    /** @return true and refresh LRU if @p addr hits. */
    bool
    access(Addr addr, bool store)
    {
        if (Entry *entry = find(addr)) {
            entry->lru = ++lru_clock_;
            (store ? stats_.store_hits : stats_.load_hits).inc();
            return true;
        }
        (store ? stats_.store_misses : stats_.load_misses).inc();
        return false;
    }

    /** access() without statistics (functional-warming path). */
    bool warmAccess(Addr addr);

    /** @return true iff resident, without statistics or LRU update. */
    bool probe(Addr addr) const;

    /**
     * Insert the 32-byte block containing @p addr (evicted from the
     * main cache or imported from a remote node).
     */
    void insert(Addr addr);

    /** Remove the block containing @p addr if present. */
    bool invalidate(Addr addr);

    /** Drop all entries. */
    void flush();

    const VictimCacheConfig &config() const { return config_; }
    const AccessStats &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

  private:
    /** Block of an empty entry: lines are at least 2 bytes, so no
     *  real block address is odd. */
    static constexpr Addr invalid_block = ~Addr{0};

    struct Entry
    {
        Addr block = invalid_block;
        std::uint64_t lru = 0;

        bool valid() const { return block != invalid_block; }
    };

    /** The entry holding @p addr's block, or null. */
    Entry *
    find(Addr addr)
    {
        const Addr block = blockAddr(addr);
        for (Entry &entry : entries_)
            if (entry.block == block)
                return &entry;
        return nullptr;
    }

    Addr blockAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(config_.line_size - 1);
    }

    VictimCacheConfig config_;
    std::vector<Entry> entries_;
    std::uint64_t lru_clock_ = 0;
    AccessStats stats_;
};

} // namespace memwall

#endif // MEMWALL_MEM_VICTIM_CACHE_HH
