/**
 * @file
 * Tests for the generic set-associative cache model, with a naive
 * reference model of Cache and VictimCache as their oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/victim_cache.hh"

using namespace memwall;

namespace {

CacheConfig
cfg(std::uint64_t capacity, std::uint32_t line, std::uint32_t assoc)
{
    CacheConfig c;
    c.capacity = capacity;
    c.line_size = line;
    c.assoc = assoc;
    c.name = "test";
    return c;
}

} // namespace

TEST(CacheConfig, SetsComputed)
{
    EXPECT_EQ(cfg(16 * KiB, 32, 1).sets(), 512u);
    EXPECT_EQ(cfg(16 * KiB, 32, 2).sets(), 256u);
    EXPECT_EQ(cfg(8 * KiB, 512, 1).sets(), 16u);
    EXPECT_EQ(cfg(16 * KiB, 512, 2).sets(), 16u);
}

TEST(CacheConfigDeath, RejectsBadGeometry)
{
    EXPECT_EXIT(cfg(16 * KiB, 33, 1).validate(),
                ::testing::ExitedWithCode(1), "power of two");
    // 1-byte lines would let a tag take the empty-way sentinel.
    EXPECT_EXIT(cfg(64, 1, 0).validate(), ::testing::ExitedWithCode(1),
                "power of two of at least 2 bytes");
    EXPECT_EXIT(cfg(10000, 32, 1).validate(),
                ::testing::ExitedWithCode(1), "multiple");
    EXPECT_EXIT(cfg(16 * KiB, 32, 3).validate(),
                ::testing::ExitedWithCode(1), "divide");
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(cfg(1 * KiB, 32, 1));
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x11f, false).hit);   // same line
    EXPECT_FALSE(c.access(0x120, false).hit);  // next line
}

TEST(Cache, DirectMappedConflict)
{
    // 1 KiB direct-mapped, 32 B lines -> 32 sets; addresses 1 KiB
    // apart collide.
    Cache c(cfg(1 * KiB, 32, 1));
    EXPECT_FALSE(c.access(0x0, false).hit);
    EXPECT_FALSE(c.access(0x400, false).hit);
    EXPECT_FALSE(c.access(0x0, false).hit);  // evicted
}

TEST(Cache, TwoWayHoldsBothConflicters)
{
    Cache c(cfg(2 * KiB, 32, 2));
    EXPECT_FALSE(c.access(0x0, false).hit);
    EXPECT_FALSE(c.access(0x400, false).hit);
    EXPECT_TRUE(c.access(0x0, false).hit);
    EXPECT_TRUE(c.access(0x400, false).hit);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c(cfg(2 * KiB, 32, 2));
    c.access(0x0, false);     // way 0
    c.access(0x400, false);   // way 1
    c.access(0x0, false);     // refresh 0x0
    c.access(0x800, false);   // evicts 0x400 (LRU)
    EXPECT_TRUE(c.probe(0x0));
    EXPECT_FALSE(c.probe(0x400));
    EXPECT_TRUE(c.probe(0x800));
}

TEST(Cache, EvictionReportsVictim)
{
    Cache c(cfg(1 * KiB, 32, 1));
    c.access(0x40, true);  // dirty line at set 2
    const auto res = c.access(0x440, false);
    ASSERT_TRUE(res.eviction.has_value());
    EXPECT_EQ(res.eviction->line_addr, 0x40u);
    EXPECT_TRUE(res.eviction->dirty);
}

TEST(Cache, CleanEviction)
{
    Cache c(cfg(1 * KiB, 32, 1));
    c.access(0x40, false);
    const auto res = c.access(0x440, false);
    ASSERT_TRUE(res.eviction.has_value());
    EXPECT_FALSE(res.eviction->dirty);
}

TEST(Cache, NoEvictionWhenFillingInvalid)
{
    Cache c(cfg(1 * KiB, 32, 1));
    const auto res = c.access(0x40, false);
    EXPECT_FALSE(res.eviction.has_value());
}

TEST(Cache, SubBlockTrackingForVictimCache)
{
    // 512-byte lines with 32-byte sub-blocks (the column-buffer
    // configuration): the eviction must report the last-touched
    // sub-block (Section 5.4).
    CacheConfig c512 = cfg(8 * KiB, 512, 1);
    c512.sub_block_size = 32;
    Cache c(c512);
    c.access(0x0, false);
    c.access(0x1e5, false);  // sub-block 15 (0x1e0)
    const auto res = c.access(0x2000, false);  // conflicts, set 0
    ASSERT_TRUE(res.eviction.has_value());
    EXPECT_EQ(res.eviction->line_addr, 0x0u);
    EXPECT_EQ(res.eviction->last_sub_block, 0x1e0u);
}

TEST(Cache, FullyAssociativeUsesWholeCapacity)
{
    CacheConfig fa = cfg(1 * KiB, 32, 0);  // assoc 0 = fully assoc
    Cache c(fa);
    // 32 lines fit regardless of address spacing.
    for (Addr a = 0; a < 32; ++a)
        c.access(a * 0x10000, false);
    for (Addr a = 0; a < 32; ++a)
        EXPECT_TRUE(c.probe(a * 0x10000));
    c.access(32 * 0x10000, false);  // evicts exactly one (LRU = 0)
    EXPECT_FALSE(c.probe(0));
    EXPECT_TRUE(c.probe(0x10000));
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(cfg(1 * KiB, 32, 1));
    c.access(0x40, true);
    const auto ev = c.invalidate(0x40);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.invalidate(0x40).has_value());
}

TEST(Cache, TouchRefreshesWithoutFill)
{
    Cache c(cfg(2 * KiB, 32, 2));
    EXPECT_FALSE(c.touch(0x0, false));  // not resident: no fill
    EXPECT_FALSE(c.probe(0x0));
    c.access(0x0, false);
    c.access(0x400, false);
    EXPECT_TRUE(c.touch(0x0, false));  // refresh LRU
    c.access(0x800, false);            // evicts 0x400
    EXPECT_TRUE(c.probe(0x0));
    EXPECT_FALSE(c.probe(0x400));
}

TEST(Cache, StatsSplitLoadsAndStores)
{
    Cache c(cfg(1 * KiB, 32, 1));
    c.access(0x0, false);  // load miss
    c.access(0x0, false);  // load hit
    c.access(0x0, true);   // store hit
    c.access(0x800, true); // store miss
    EXPECT_EQ(c.stats().load_misses.value(), 1u);
    EXPECT_EQ(c.stats().load_hits.value(), 1u);
    EXPECT_EQ(c.stats().store_hits.value(), 1u);
    EXPECT_EQ(c.stats().store_misses.value(), 1u);
}

TEST(Cache, FlushInvalidatesEverythingKeepsStats)
{
    Cache c(cfg(1 * KiB, 32, 1));
    c.access(0x0, false);
    c.flush();
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_EQ(c.stats().load_misses.value(), 1u);
    EXPECT_EQ(c.residentLines(), 0u);
}

TEST(Cache, RandomReplacementIsDeterministicPerSeed)
{
    Cache a(cfg(2 * KiB, 32, 2)), b(cfg(2 * KiB, 32, 2));
    CacheConfig rc = cfg(2 * KiB, 32, 2);
    rc.repl = ReplPolicy::Random;
    Cache r1(rc, 99), r2(rc, 99);
    for (Addr x = 0; x < 4096; x += 32) {
        EXPECT_EQ(r1.access(x * 7, false).hit,
                  r2.access(x * 7, false).hit);
    }
}

/**
 * Property: for fully-associative LRU caches, a larger cache never
 * misses more than a smaller one on the same trace (LRU inclusion).
 */
class LruInclusion : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LruInclusion, BiggerIsNeverWorse)
{
    const std::uint64_t small_cap = GetParam();
    CacheConfig small_cfg = cfg(small_cap, 32, 0);
    CacheConfig big_cfg = cfg(small_cap * 2, 32, 0);
    Cache small(small_cfg), big(big_cfg);
    // Pseudo-random but reproducible trace with locality.
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Addr addr = (x % (8 * small_cap)) & ~Addr{31};
        small.access(addr, false);
        big.access(addr, false);
    }
    EXPECT_LE(big.stats().misses(), small.stats().misses());
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruInclusion,
                         ::testing::Values(512, 1024, 4096, 16384));

/**
 * Property: miss count is invariant to the order of constructing
 * the cache (stateless config) and exactly reproducible.
 */
TEST(Cache, DeterministicAcrossInstances)
{
    Cache a(cfg(4 * KiB, 32, 2)), b(cfg(4 * KiB, 32, 2));
    std::uint64_t x = 123456789;
    for (int i = 0; i < 10000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const Addr addr = (x >> 20) % (64 * KiB);
        EXPECT_EQ(a.access(addr, i % 3 == 0).hit,
                  b.access(addr, i % 3 == 0).hit);
    }
    EXPECT_EQ(a.stats().misses(), b.stats().misses());
}

// ---- Oracle: a naive reference model of Cache and VictimCache -------

namespace {

/** xorshift64, the generator Cache's Random replacement uses. */
std::uint64_t
xorshift(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

/**
 * Reference model of Cache, written for clarity rather than speed.
 * Each set keeps its ways in position order (Random replacement and
 * the preference for the lowest invalid way index ways directly)
 * and, separately, its way numbers from most to least recently used.
 */
class RefCache
{
  public:
    RefCache(const CacheConfig &config, std::uint64_t seed)
        : line_(config.line_size), sub_(config.sub_block_size),
          random_(config.repl == ReplPolicy::Random),
          rng_(seed ? seed : 1)
    {
        const std::uint64_t lines = config.capacity / line_;
        ways_ = config.assoc == 0 ? lines : config.assoc;
        sets_.resize(lines / ways_);
        for (Set &set : sets_) {
            set.ways.resize(ways_);
            for (std::uint64_t w = 0; w < ways_; ++w)
                set.recency.push_back(w);
        }
    }

    AccessResult
    access(Addr addr, bool store, bool count = true)
    {
        AccessResult result;
        if (Way *way = find(addr)) {
            result.hit = true;
            touchWay(addr, *way, store);
            if (count)
                (store ? stats.store_hits : stats.load_hits).inc();
            return result;
        }
        if (count)
            (store ? stats.store_misses : stats.load_misses).inc();
        result.eviction = allocate(addr, store);
        return result;
    }

    AccessResult
    fill(Addr addr, bool store)
    {
        AccessResult result;
        (store ? stats.store_misses : stats.load_misses).inc();
        result.eviction = allocate(addr, store);
        return result;
    }

    bool probe(Addr addr) { return find(addr) != nullptr; }

    bool
    touch(Addr addr, bool store)
    {
        Way *way = find(addr);
        if (way)
            touchWay(addr, *way, store);
        return way != nullptr;
    }

    std::optional<Eviction>
    invalidate(Addr addr)
    {
        Way *way = find(addr);
        if (!way)
            return std::nullopt;
        const Eviction ev = evictionOf(*way);
        way->valid = false;
        return ev;
    }

    void
    flush()
    {
        for (Set &set : sets_)
            for (Way &way : set.ways)
                way.valid = false;
    }

    AccessStats stats;

  private:
    struct Way
    {
        bool valid = false;
        Addr line = 0;
        Addr last_sub_block = 0;
        bool dirty = false;
    };
    struct Set
    {
        std::vector<Way> ways;
        std::vector<std::uint64_t> recency;  ///< MRU first
    };

    Set &setOf(Addr addr) { return sets_[addr / line_ % sets_.size()]; }

    Way *
    find(Addr addr)
    {
        for (Way &way : setOf(addr).ways)
            if (way.valid && way.line == addr / line_ * line_)
                return &way;
        return nullptr;
    }

    void
    touchWay(Addr addr, Way &way, bool store)
    {
        Set &set = setOf(addr);
        const std::uint64_t w =
            static_cast<std::uint64_t>(&way - set.ways.data());
        set.recency.erase(
            std::find(set.recency.begin(), set.recency.end(), w));
        set.recency.insert(set.recency.begin(), w);
        way.last_sub_block = way.line + (addr - way.line) / sub_ * sub_;
        way.dirty = way.dirty || store;
    }

    Eviction
    evictionOf(const Way &way) const
    {
        Eviction ev;
        ev.line_addr = way.line;
        ev.last_sub_block = way.last_sub_block;
        ev.dirty = way.dirty;
        return ev;
    }

    std::optional<Eviction>
    allocate(Addr addr, bool store)
    {
        Set &set = setOf(addr);
        Way *victim = nullptr;
        for (Way &way : set.ways)
            if (!way.valid && !victim)
                victim = &way;
        if (!victim) {
            victim = random_ ? &set.ways[xorshift(rng_) % ways_]
                             : &set.ways[set.recency.back()];
        }
        std::optional<Eviction> ev;
        if (victim->valid)
            ev = evictionOf(*victim);
        *victim = Way{true, addr / line_ * line_, 0, false};
        touchWay(addr, *victim, store);
        return ev;
    }

    std::uint64_t line_;
    std::uint64_t sub_;
    bool random_;
    std::uint64_t rng_;
    std::uint64_t ways_;
    std::vector<Set> sets_;
};

void
expectSameEviction(const std::optional<Eviction> &got,
                   const std::optional<Eviction> &want, int step)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
    if (!want)
        return;
    EXPECT_EQ(got->line_addr, want->line_addr) << "step " << step;
    EXPECT_EQ(got->last_sub_block, want->last_sub_block)
        << "step " << step;
    EXPECT_EQ(got->dirty, want->dirty) << "step " << step;
}

void
expectSameStats(const AccessStats &got, const AccessStats &want)
{
    EXPECT_EQ(got.load_hits.value(), want.load_hits.value());
    EXPECT_EQ(got.load_misses.value(), want.load_misses.value());
    EXPECT_EQ(got.store_hits.value(), want.store_hits.value());
    EXPECT_EQ(got.store_misses.value(), want.store_misses.value());
}

struct OracleGeometry
{
    const char *name;
    std::uint64_t capacity;
    std::uint32_t line;
    std::uint32_t assoc;
    ReplPolicy repl;
    std::uint32_t sub_block;
};

/** Keeps the parameter's printed form (and so the test's listed
 *  name) free of pointer bytes. */
void
PrintTo(const OracleGeometry &g, std::ostream *os)
{
    *os << g.name;
}

} // namespace

class CacheOracle : public ::testing::TestWithParam<OracleGeometry>
{
};

/**
 * Seeded access/fill/touch/probe/invalidate/warmAccess/flush streams
 * through Cache and RefCache: every hit flag, every eviction and the
 * final statistics must agree.
 */
TEST_P(CacheOracle, AgreesWithNaiveModel)
{
    const OracleGeometry g = GetParam();
    CacheConfig config = cfg(g.capacity, g.line, g.assoc);
    config.repl = g.repl;
    config.sub_block_size = g.sub_block;
    for (std::uint64_t seed : {1u, 7u, 2024u}) {
        Cache cache(config, seed);
        RefCache ref(config, seed);
        std::uint64_t x = 0x9e3779b97f4a7c15ull ^ (seed * 0x1234567);
        // Four times the capacity: plenty of conflicts and reuse.
        const std::uint64_t span = 4 * g.capacity;
        for (int step = 0; step < 20000; ++step) {
            const std::uint64_t r = xorshift(x);
            const Addr addr = (r >> 8) % span;
            const bool store = (r >> 4) % 3 == 0;
            switch (r % 16) {
              case 0:
                if (!ref.probe(addr)) {
                    const AccessResult got = cache.fill(addr, store);
                    const AccessResult want = ref.fill(addr, store);
                    EXPECT_FALSE(got.hit);
                    expectSameEviction(got.eviction, want.eviction,
                                       step);
                }
                break;
              case 1:
              case 2:
                EXPECT_EQ(cache.touch(addr, store),
                          ref.touch(addr, store))
                    << "step " << step;
                break;
              case 3:
                EXPECT_EQ(cache.probe(addr), ref.probe(addr))
                    << "step " << step;
                break;
              case 4:
                expectSameEviction(cache.invalidate(addr),
                                   ref.invalidate(addr), step);
                break;
              case 5:
              case 6: {
                const AccessResult got = cache.warmAccess(addr, store);
                const AccessResult want =
                    ref.access(addr, store, /*count=*/false);
                EXPECT_EQ(got.hit, want.hit) << "step " << step;
                expectSameEviction(got.eviction, want.eviction, step);
                break;
              }
              case 7:
                if (r % 4096 < 16) {
                    cache.flush();
                    ref.flush();
                }
                break;
              default: {
                const AccessResult got = cache.access(addr, store);
                const AccessResult want = ref.access(addr, store);
                EXPECT_EQ(got.hit, want.hit) << "step " << step;
                expectSameEviction(got.eviction, want.eviction, step);
                break;
              }
            }
            if (HasFailure())
                return;
        }
        expectSameStats(cache.stats(), ref.stats);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracle,
    ::testing::Values(
        OracleGeometry{"DirectMapped", 1 * KiB, 32, 1, ReplPolicy::LRU,
                       32},
        OracleGeometry{"TwoWayLru", 2 * KiB, 32, 2, ReplPolicy::LRU, 32},
        OracleGeometry{"TwoWayRandom", 2 * KiB, 32, 2,
                       ReplPolicy::Random, 32},
        // The column-buffer data cache: 512-byte lines, 32-byte
        // sub-blocks handed to the victim cache.
        OracleGeometry{"TwoWayColumns", 16 * KiB, 512, 2,
                       ReplPolicy::LRU, 32},
        // The INC's 7 ways (16 sets here).
        OracleGeometry{"SevenWayLru", 16 * 7 * 32, 32, 7,
                       ReplPolicy::LRU, 32},
        OracleGeometry{"SevenWayRandom", 16 * 7 * 32, 32, 7,
                       ReplPolicy::Random, 32},
        OracleGeometry{"FullyAssociative", 1 * KiB, 32, 0,
                       ReplPolicy::LRU, 8}),
    [](const ::testing::TestParamInfo<OracleGeometry> &info) {
        return std::string(info.param.name);
    });

namespace {

/** Reference model of VictimCache: positions plus a recency list. */
class RefVictimCache
{
  public:
    explicit RefVictimCache(const VictimCacheConfig &config)
        : line_(config.line_size), entries_(config.entries)
    {
        for (std::uint32_t i = 0; i < config.entries; ++i)
            recency_.push_back(i);
    }

    bool
    access(Addr addr, bool store, bool count = true)
    {
        const int i = find(addr);
        if (i >= 0)
            refresh(i);
        if (count) {
            if (store)
                (i >= 0 ? stats.store_hits : stats.store_misses).inc();
            else
                (i >= 0 ? stats.load_hits : stats.load_misses).inc();
        }
        return i >= 0;
    }

    bool probe(Addr addr) const { return find(addr) >= 0; }

    void
    insert(Addr addr)
    {
        int i = find(addr);
        if (i < 0) {
            for (std::size_t e = 0; e < entries_.size() && i < 0; ++e)
                if (!entries_[e].valid)
                    i = static_cast<int>(e);
            if (i < 0)
                i = static_cast<int>(recency_.back());
            entries_[i] = {true, addr / line_ * line_};
        }
        refresh(i);
    }

    bool
    invalidate(Addr addr)
    {
        const int i = find(addr);
        if (i >= 0)
            entries_[i].valid = false;
        return i >= 0;
    }

    void
    flush()
    {
        for (Entry &e : entries_)
            e.valid = false;
    }

    AccessStats stats;

  private:
    struct Entry
    {
        bool valid = false;
        Addr block = 0;
    };

    int
    find(Addr addr) const
    {
        for (std::size_t e = 0; e < entries_.size(); ++e)
            if (entries_[e].valid &&
                entries_[e].block == addr / line_ * line_)
                return static_cast<int>(e);
        return -1;
    }

    void
    refresh(int i)
    {
        recency_.erase(std::find(recency_.begin(), recency_.end(),
                                 static_cast<std::uint32_t>(i)));
        recency_.insert(recency_.begin(), static_cast<std::uint32_t>(i));
    }

    std::uint64_t line_;
    std::vector<Entry> entries_;
    std::vector<std::uint32_t> recency_;  ///< MRU first
};

} // namespace

TEST(VictimCacheOracle, AgreesWithNaiveModel)
{
    for (std::uint32_t entries : {1u, 4u, 16u}) {
        VictimCacheConfig config;
        config.entries = entries;
        VictimCache vc(config);
        RefVictimCache ref(config);
        std::uint64_t x = 88172645463325252ull + entries;
        const std::uint64_t span = 3 * entries * config.line_size;
        for (int step = 0; step < 20000; ++step) {
            const std::uint64_t r = xorshift(x);
            const Addr addr = (r >> 8) % span;
            const bool store = (r >> 4) % 3 == 0;
            switch (r % 8) {
              case 0:
              case 1:
                vc.insert(addr);
                ref.insert(addr);
                break;
              case 2:
                EXPECT_EQ(vc.probe(addr), ref.probe(addr))
                    << "step " << step;
                break;
              case 3:
                EXPECT_EQ(vc.invalidate(addr), ref.invalidate(addr))
                    << "step " << step;
                break;
              case 4:
                EXPECT_EQ(vc.warmAccess(addr),
                          ref.access(addr, store, /*count=*/false))
                    << "step " << step;
                break;
              case 5:
                if (r % 1024 < 16) {
                    vc.flush();
                    ref.flush();
                }
                break;
              default:
                EXPECT_EQ(vc.access(addr, store),
                          ref.access(addr, store))
                    << "step " << step;
                break;
            }
            if (HasFailure())
                return;
        }
        expectSameStats(vc.stats(), ref.stats);
    }
}
