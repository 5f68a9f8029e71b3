/**
 * @file
 * Generic set-associative cache model for miss-ratio studies.
 *
 * This is a tag-only (functional) model: it tracks which line
 * addresses are resident and reports hits/misses/evictions, exactly
 * what the paper's Shade-driven methodology measured (Sections 5.2
 * and 5.3). Timing is layered on top by the hierarchy and device
 * models.
 *
 * The same class models both conventional caches (32-byte lines,
 * 8 KB..256 KB) and the proposal's column-buffer caches (512-byte
 * lines, 16 sets) — the column-buffer organisation is just a
 * particular geometry plus DRAM-supplied fill timing.
 */

#ifndef MEMWALL_MEM_CACHE_HH
#define MEMWALL_MEM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace memwall {

/** Replacement policy for set-associative caches. */
enum class ReplPolicy { LRU, Random };

/** Geometry and policy of one cache. */
struct CacheConfig
{
    /** Total capacity in bytes; must be assoc * line_size * sets. */
    std::uint64_t capacity = 8 * KiB;
    /** Line (block) size in bytes; power of two. */
    std::uint32_t line_size = 32;
    /** Associativity; 0 means fully associative. */
    std::uint32_t assoc = 1;
    /** Replacement policy within a set. */
    ReplPolicy repl = ReplPolicy::LRU;
    /**
     * Sub-block granularity tracked for victim-cache hand-off
     * (Section 5.4: "the most recently accessed 32-Byte block").
     */
    std::uint32_t sub_block_size = 32;
    /** Name used in reports. */
    std::string name = "cache";

    /** @return number of sets implied by the other fields. */
    std::uint32_t sets() const;
    /** Validate the configuration; fatal on inconsistency. */
    void validate() const;
};

/** Information about a line displaced by a fill. */
struct Eviction
{
    /** Address of the first byte of the evicted line. */
    Addr line_addr = invalid_addr;
    /** Address of the most recently accessed sub-block in the line. */
    Addr last_sub_block = invalid_addr;
    /** Whether the line had been written. */
    bool dirty = false;
};

/** Result of a single cache access. */
struct AccessResult
{
    bool hit = false;
    /** Valid line displaced by the fill on a miss, if any. */
    std::optional<Eviction> eviction;
};

/**
 * Split the @p count 4-byte instruction fetches at @p first_pc,
 * first_pc + 4, ... into the runs that fall on one line of
 * @p line_size bytes and call @p fn(first, last, n) once per run, in
 * order. A fetch belongs to the line of its first byte, as
 * Cache::access(pc) counts it, so routines need not be 4-byte
 * aligned.
 */
template <typename Fn>
void
forEachFetchLine(Addr first_pc, std::uint64_t count,
                 std::uint64_t line_size, Fn &&fn)
{
    Addr pc = first_pc;
    while (count > 0) {
        const Addr to_line_end = line_size - (pc & (line_size - 1));
        const std::uint64_t n =
            std::min<std::uint64_t>(count, (to_line_end + 3) / 4);
        fn(pc, pc + 4 * (n - 1), n);
        pc += 4 * n;
        count -= n;
    }
}

/**
 * Tag-array cache model.
 *
 * Misses allocate (fetch-on-write for stores, as a write-back
 * write-allocate cache); invalidations support the coherence layer.
 */
class Cache
{
  public:
    explicit Cache(CacheConfig config, std::uint64_t seed = 1);

    /**
     * Perform one access.
     *
     * @param addr   byte address accessed
     * @param store  true for a store, false for a load
     * @return hit/miss plus any eviction caused by the fill
     */
    AccessResult access(Addr addr, bool store);

    /**
     * Miss path of access(): allocate the line containing @p addr,
     * recording the miss and any eviction. The caller must know the
     * line is NOT resident (e.g. a touch() that just returned false);
     * this skips the tag walk access() would repeat.
     */
    AccessResult fill(Addr addr, bool store);

    /**
     * @p count accesses in a row to the line holding @p first, the
     * first at @p first and the last at @p last (an address on the
     * same line): the first is an access(), the others hit the line
     * it left resident. State and statistics end exactly as after
     * the @p count access() calls, LRU clock included, at the cost
     * of two tag walks.
     */
    void accessRun(Addr first, Addr last, std::uint64_t count,
                   bool store)
    {
        runAt<true>(first, last, count, store);
    }

    /** accessRun() without statistics (warmAccess() @p count times). */
    void warmAccessRun(Addr first, Addr last, std::uint64_t count,
                       bool store)
    {
        runAt<false>(first, last, count, store);
    }

    /**
     * Functional-warming access: identical tag/LRU/dirty/fill state
     * transitions to access(), but records NO statistics. Sampled
     * simulation uses this between detail units so detail-unit miss
     * rates see warm tags without the warming traffic polluting the
     * measured counters.
     */
    AccessResult warmAccess(Addr addr, bool store);

    /** @return true iff the line containing @p addr is resident. */
    bool
    probe(Addr addr) const
    {
        return findWay(setIndex(addr), tagOf(addr)) != no_way;
    }

    /**
     * Touch without filling: updates LRU/sub-block bookkeeping if the
     * line is resident and reports whether it was. Used when another
     * structure (e.g. a victim cache) services the access.
     */
    bool
    touch(Addr addr, bool store)
    {
        const std::size_t way = findWay(setIndex(addr), tagOf(addr));
        if (way == no_way)
            return false;
        touchWay(way, addr, store);
        return true;
    }

    /**
     * Drop the line containing @p addr if resident.
     * @return the eviction record when a valid line was removed.
     */
    std::optional<Eviction> invalidate(Addr addr);

    /** Invalidate everything (keeps statistics). */
    void flush();

    /** Reset statistics only. */
    void resetStats() { stats_.reset(); }

    const CacheConfig &config() const { return config_; }
    const AccessStats &stats() const { return stats_; }

    /** Number of valid lines currently resident. */
    std::uint64_t residentLines() const;

  private:
    /**
     * Tag of an invalid way. Line sizes are at least 2 bytes, so
     * every real tag (an address shifted right by at least one bit)
     * has its top bit clear and none can equal this.
     */
    static constexpr Addr invalid_tag = ~Addr{0};
    /** findWay()'s result when no way holds the tag. */
    static constexpr std::size_t no_way = ~std::size_t{0};

    /** Everything about a way but its tag (kept in tags_); read
     *  only while the way is valid, and every field is written when
     *  it is filled, so the array starts uninitialised: a large INC
     *  tag array is never touched beyond the sets it uses. */
    struct WayState
    {
        std::uint64_t lru;
        std::uint32_t last_sub_block;
        bool dirty;
    };

    std::uint64_t
    setIndex(Addr addr) const
    {
        return (addr >> line_shift_) & (sets_ - 1);
    }
    Addr tagOf(Addr addr) const { return addr >> tag_shift_; }

    /**
     * Index (into tags_ and ways_) of the way of @p set that holds
     * @p tag, or no_way. The walk reads only the set's tags, so a
     * 7-way INC set costs one host cache line, not three.
     */
    std::size_t
    findWay(std::uint64_t set, Addr tag) const
    {
        const std::size_t base = set * assoc_;
        for (std::uint32_t w = 0; w < assoc_; ++w)
            if (tags_[base + w] == tag)
                return base + w;
        return no_way;
    }

    template <bool Count>
    void runAt(Addr first, Addr last, std::uint64_t count, bool store);

    /** Eviction record of the valid way @p way of @p set. */
    Eviction evictionOf(std::size_t way, std::uint64_t set) const;

    /** Miss path shared by access() and fill(); writes @p result. */
    void fillAt(AccessResult &result, std::uint64_t set, Addr addr,
                bool store);
    /** fillAt() without the miss counters (warming path). */
    void fillAtNoStats(AccessResult &result, std::uint64_t set,
                       Addr addr, bool store);
    std::size_t victimWay(std::uint64_t set);

    void
    touchWay(std::size_t way, Addr addr, bool store)
    {
        WayState &w = ways_[way];
        w.lru = ++lru_clock_;
        w.last_sub_block =
            static_cast<std::uint32_t>((addr & line_mask_) >> sub_shift_);
        if (store)
            w.dirty = true;
    }

    CacheConfig config_;
    std::uint64_t sets_;
    std::uint32_t assoc_;
    Addr line_mask_;
    unsigned line_shift_;
    unsigned tag_shift_;
    /** log2(sub_block_size). */
    unsigned sub_shift_;
    /** Tag of every way, set by set; invalid_tag when empty. */
    std::vector<Addr> tags_;
    /** The rest of each way's state, parallel to tags_. */
    std::unique_ptr<WayState[]> ways_;
    std::uint64_t lru_clock_ = 0;
    std::uint64_t rng_state_;
    AccessStats stats_;
};

} // namespace memwall

#endif // MEMWALL_MEM_CACHE_HH
