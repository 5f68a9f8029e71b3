/**
 * @file
 * The proposed device's column-buffer cache organisation
 * (Section 4.1).
 *
 * Each of the sixteen DRAM banks owns three 512-byte column buffers:
 * one forms a direct-mapped instruction cache line (16 x 512 B =
 * 8 KB), two form the ways of a 2-way set-associative data cache
 * (32 x 512 B = 16 KB). Because banks are interleaved at column
 * granularity, the bank index doubles as the cache set index. A
 * 16-entry, 32-byte-line fully-associative victim cache backs the
 * data cache (Section 5.4).
 */

#ifndef MEMWALL_MEM_COLUMN_CACHE_HH
#define MEMWALL_MEM_COLUMN_CACHE_HH

#include <cstdint>
#include <memory>

#include "mem/cache.hh"
#include "mem/victim_cache.hh"

namespace memwall {

/** Where an access to the integrated data cache was served from. */
enum class DAccessOutcome {
    HitColumn,  ///< hit in a column buffer (1 cycle)
    HitVictim,  ///< miss in the buffers, hit in the victim cache
    Miss,       ///< requires a DRAM array access
};

/** Geometry of the integrated cache complex; defaults = the paper. */
struct ColumnCacheConfig
{
    /** DRAM banks = cache sets. */
    std::uint32_t banks = 16;
    /** Column buffer size = cache line size, in bytes. */
    std::uint32_t column_bytes = 512;
    /** Data-cache columns per bank (ways). */
    std::uint32_t data_ways = 2;
    /** Whether the victim cache is present. */
    bool victim_enabled = true;
    /** Victim-cache geometry. */
    VictimCacheConfig victim = {};

    /** @return total data-cache capacity in bytes. */
    std::uint64_t dataCapacity() const
    {
        return static_cast<std::uint64_t>(banks) * data_ways *
               column_bytes;
    }
    /** @return instruction-cache capacity in bytes. */
    std::uint64_t instrCapacity() const
    {
        return static_cast<std::uint64_t>(banks) * column_bytes;
    }
};

/**
 * Direct-mapped column-buffer instruction cache: one column per bank.
 */
class ColumnInstrCache
{
  public:
    explicit ColumnInstrCache(const ColumnCacheConfig &config = {});

    /** @return true on hit; a miss fills from the DRAM array. */
    bool fetch(Addr pc);

    /** fetch() without statistics (functional-warming path). */
    bool warmFetch(Addr pc);

    /**
     * @p count fetches of the straight-line code at @p first_pc,
     * first_pc + 4, ...: one tag walk per column they touch, the
     * column's other fetches counted as the hits they are. Same
     * state and statistics as fetch() on each pc in turn.
     */
    void fetchRun(Addr first_pc, std::uint64_t count);

    /** fetchRun() without statistics (warmFetch() on each pc). */
    void warmFetchRun(Addr first_pc, std::uint64_t count);

    bool probe(Addr pc) const { return cache_.probe(pc); }
    const AccessStats &stats() const { return cache_.stats(); }
    const Cache &cache() const { return cache_; }
    void flush() { cache_.flush(); }
    void resetStats() { cache_.resetStats(); }

  private:
    Cache cache_;
};

/**
 * 2-way column-buffer data cache plus victim cache.
 *
 * Access protocol (Sections 4.1 and 5.4):
 *  1. The column buffers and the sixteen victim entries are searched
 *     in the same cycle.
 *  2. A buffer hit or a victim hit costs one cycle.
 *  3. A miss triggers a DRAM array access; while the array is busy,
 *     the most recently touched 32-byte sub-block of the displaced
 *     column is copied into the victim cache for free.
 */
class ColumnDataCache
{
  public:
    explicit ColumnDataCache(const ColumnCacheConfig &config = {});

    /** Perform one data access. */
    DAccessOutcome access(Addr addr, bool store);

    /**
     * Search the column buffers and victim cache WITHOUT filling on
     * a miss. The MP coherence layer uses this because remote blocks
     * are imported in 32-byte units through the victim cache, never
     * as full columns (Section 6.2).
     */
    DAccessOutcome
    accessNoFill(Addr addr, bool store)
    {
        if (columns_.touch(addr, store)) {
            (store ? stats_.store_hits : stats_.load_hits).inc();
            return DAccessOutcome::HitColumn;
        }
        if (config_.victim_enabled && victim_.access(addr, store)) {
            (store ? stats_.store_hits : stats_.load_hits).inc();
            return DAccessOutcome::HitVictim;
        }
        (store ? stats_.store_misses : stats_.load_misses).inc();
        return DAccessOutcome::Miss;
    }

    /**
     * access() with identical state transitions (column fill, victim
     * hand-off, LRU, dirty bits) but NO statistics — the
     * functional-warming path of sampled simulation.
     */
    DAccessOutcome warmAccess(Addr addr, bool store);

    /** @return true iff @p addr would hit in buffers or victim. */
    bool probe(Addr addr) const;

    /**
     * Invalidate the 32-byte coherence block containing @p addr in
     * both structures (used by the MP coherence layer). The enclosing
     * column stays resident; only victim entries match exactly.
     * @return true if a column or victim entry held the block.
     */
    bool invalidateBlock(Addr addr);

    /**
     * Stage an imported remote 32-byte block into the victim cache,
     * which doubles as the import staging area (Section 4.1).
     */
    void stageRemoteBlock(Addr addr);

    void flush();
    void resetStats();

    /** Aggregate miss statistics (misses = DRAM array accesses). */
    const AccessStats &stats() const { return stats_; }

    /**
     * Whether the most recent access() miss displaced a DIRTY
     * column (the case Section 4.1's speculative writeback through
     * the third column buffer makes free; without it the writeback
     * serialises with the fill).
     */
    bool lastEvictionDirty() const { return last_eviction_dirty_; }
    /** Column-buffer-only statistics. */
    const AccessStats &columnStats() const { return columns_.stats(); }
    /** Victim-cache statistics. */
    const AccessStats &victimStats() const { return victim_.stats(); }

    const ColumnCacheConfig &config() const { return config_; }

  private:
    ColumnCacheConfig config_;
    Cache columns_;
    VictimCache victim_;
    AccessStats stats_;
    bool last_eviction_dirty_ = false;
};

} // namespace memwall

#endif // MEMWALL_MEM_COLUMN_CACHE_HH
