/**
 * @file
 * One-pass simulation of LRU caches that differ only in set count.
 *
 * Hill & Smith's inclusion property (IEEE TC 1989): with bit-selected
 * set indices, one line size, one associativity and LRU replacement,
 * every line a cache holds is also held by each cache with more sets.
 * A cache with 2S sets splits each set of the S-set cache in two, so
 * the references that reach one of its sets are a subset of those that
 * reach the parent set, and a line's LRU stack depth can only shrink.
 *
 * LruInclusionChain holds such a family (the "levels", smallest
 * first) and runs one reference through all of them in one walk.
 * Each level keeps the same tag and LRU state a Cache of that geometry
 * would, and its own AccessStats. The walk starts at the smallest
 * level and stops at the first level where the line is already the
 * most recent in its set. By inclusion it is then the most recent line
 * of its set at every larger level too, so those levels hit and none
 * of their state changes; they only count the hit. Below that level
 * each level either missed (the line fills as most recent, the least
 * recent line leaves) or hit in an older way (the line moves to the
 * front), and the walk goes on. A direct-mapped chain thus stops at
 * its first hit, while a set-associative chain keeps walking after a
 * hit in an older way: the larger levels may hold the line in an older
 * way as well and must make it most recent too.
 *
 * Only hit/miss outcomes are modelled: no dirty bits, eviction records
 * or invalidation. Cache is the oracle: tests/test_lru_chain.cc checks
 * that every level counts exactly what a Cache of its geometry counts.
 */

#ifndef MEMWALL_MEM_LRU_CHAIN_HH
#define MEMWALL_MEM_LRU_CHAIN_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/cache.hh"

namespace memwall {

class LruInclusionChain
{
  public:
    /**
     * @param levels  geometries, smallest first. Fatal unless
     *                inclusion holds: all LRU, one line size, one
     *                associativity (at least 1), and power-of-two set
     *                counts that never shrink along the list.
     */
    explicit LruInclusionChain(std::vector<CacheConfig> levels)
        : configs_(std::move(levels)), stats_(configs_.size())
    {
        if (configs_.empty())
            MW_FATAL("LRU inclusion chain: no levels");
        const CacheConfig &first = configs_.front();
        std::uint64_t prev_sets = 0;
        for (const CacheConfig &c : configs_) {
            if (c.repl != ReplPolicy::LRU)
                MW_FATAL("LRU inclusion chain: ", c.name,
                         " is not LRU");
            if (c.line_size != first.line_size)
                MW_FATAL("LRU inclusion chain: ", c.name,
                         " has line size ", c.line_size, ", not ",
                         first.line_size);
            if (c.assoc == 0 || c.assoc != first.assoc)
                MW_FATAL("LRU inclusion chain: ", c.name,
                         " has associativity ", c.assoc, ", not ",
                         first.assoc);
            const std::uint64_t lines =
                c.line_size ? c.capacity / c.line_size : 0;
            const std::uint64_t sets = lines / c.assoc;
            if (sets * c.assoc != lines || !isPowerOfTwo(sets))
                MW_FATAL("LRU inclusion chain: ", c.name,
                         " set count must be a power of two, got ",
                         lines, " lines in ", c.assoc, " ways");
            if (sets < prev_sets)
                MW_FATAL("LRU inclusion chain: ", c.name, " has ",
                         sets, " sets, fewer than the ", prev_sets,
                         " of the level before it");
            c.validate();
            prev_sets = sets;
            levels_.push_back(Level{sets - 1, std::vector<Addr>(
                                                  lines, invalid_line)});
        }
        assoc_ = first.assoc;
        line_shift_ = floorLog2(first.line_size);
    }

    /** One access at every level; each level's stats count it. */
    void access(Addr addr, bool store) { walk<true>(addr, store); }

    /**
     * Functional warming: the state transitions of access(), no
     * statistics (Cache::warmAccess() at every level).
     */
    void warmAccess(Addr addr, bool store) { walk<false>(addr, store); }

    /**
     * @p count instruction fetches at @p first_pc, first_pc + 4, ...
     * (loads): one walk per line they touch. The walk leaves the line
     * the most recent of its set at every level, so the line's other
     * fetches hit everywhere and change no state; they are only
     * counted. Same state and statistics as access() on each pc.
     */
    void fetchRun(Addr first_pc, std::uint64_t count)
    {
        runOfFetches<true>(first_pc, count);
    }

    /** fetchRun() without statistics (warmAccess() on each pc). */
    void warmFetchRun(Addr first_pc, std::uint64_t count)
    {
        runOfFetches<false>(first_pc, count);
    }

    std::size_t levels() const { return levels_.size(); }
    const CacheConfig &config(std::size_t level) const
    {
        return configs_[level];
    }
    const AccessStats &stats(std::size_t level) const
    {
        return stats_[level];
    }

    /** Reset every level's statistics (keeps the cache state). */
    void
    resetStats()
    {
        for (AccessStats &s : stats_)
            s.reset();
    }

  private:
    /**
     * Line number of an empty way. Lines are addresses shifted right
     * by at least one bit (line sizes are at least 2 bytes), so no
     * real line number has its top bit set.
     */
    static constexpr Addr invalid_line = ~Addr{0};

    struct Level
    {
        std::uint64_t set_mask;
        /** Line number per way, set by set, most recent way first;
         *  empty ways (invalid_line) trail the valid ones. */
        std::vector<Addr> ways;
    };

    template <bool Count>
    void
    walk(Addr addr, bool store)
    {
        // Locals, not members: the way stores below are 64-bit, like
        // the members, and would otherwise force reloads of them.
        const Addr line = addr >> line_shift_;
        Level *const levels = levels_.data();
        AccessStats *const stats = stats_.data();
        const std::size_t n = levels_.size();
        const std::uint32_t assoc = assoc_;
        std::size_t k = 0;
        for (; k < n; ++k) {
            Addr *set = levels[k].ways.data() +
                        (line & levels[k].set_mask) * assoc;
            if (set[0] == line)
                break; // most recent here, so at every larger level
            std::uint32_t way = 1;
            while (way < assoc && set[way] != line)
                ++way;
            if constexpr (Count) {
                if (way == assoc)
                    (store ? stats[k].store_misses
                           : stats[k].load_misses)
                        .inc();
                else
                    (store ? stats[k].store_hits : stats[k].load_hits)
                        .inc();
            }
            // Make the line most recent; on a miss the least recent
            // way (an empty one if the set has any) falls off the end.
            for (way = way == assoc ? assoc - 1 : way; way > 0; --way)
                set[way] = set[way - 1];
            set[0] = line;
        }
        if constexpr (Count)
            for (; k < n; ++k)
                (store ? stats[k].store_hits : stats[k].load_hits).inc();
    }

    template <bool Count>
    void
    runOfFetches(Addr first_pc, std::uint64_t count)
    {
        forEachFetchLine(
            first_pc, count, Addr{1} << line_shift_,
            [this](Addr first, Addr, std::uint64_t n) {
                walk<Count>(first, false);
                if constexpr (Count)
                    if (n > 1)
                        for (AccessStats &s : stats_)
                            s.load_hits.inc(n - 1);
            });
    }

    std::vector<CacheConfig> configs_;
    std::vector<Level> levels_;
    /** Per-level counters, kept apart from the way arrays so one walk
     *  touches few host cache lines for them. */
    std::vector<AccessStats> stats_;
    std::uint32_t assoc_ = 1;
    unsigned line_shift_ = 0;
};

} // namespace memwall

#endif // MEMWALL_MEM_LRU_CHAIN_HH
