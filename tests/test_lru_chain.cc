/**
 * @file
 * LruInclusionChain against its oracle, Cache: every level of a
 * chain must count exactly the load and store hits and misses that a
 * Cache of the same geometry counts, on the SPEC proxy streams of the
 * Figure 7/8 comparison set and on seeded random streams, through
 * access() and through warm/detail alternations (warmAccess()).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "mem/cache.hh"
#include "mem/lru_chain.hh"
#include "trace/synthetic.hh"
#include "workloads/missrate_figures.hh"
#include "workloads/spec_suite.hh"

using namespace memwall;

namespace {

CacheConfig
geometry(std::uint64_t capacity, std::uint32_t ways,
         std::uint32_t line_size = 32)
{
    CacheConfig c;
    c.capacity = capacity;
    c.assoc = ways;
    c.line_size = line_size;
    c.sub_block_size = line_size;
    c.name = std::to_string(capacity) + "B-" + std::to_string(ways) +
             "w-" + std::to_string(line_size);
    return c;
}

/** A chain plus one oracle Cache per level, fed the same stream. */
class ChainAndOracle
{
  public:
    explicit ChainAndOracle(const std::vector<CacheConfig> &levels)
        : chain_(levels)
    {
        for (const CacheConfig &c : levels)
            oracle_.emplace_back(c);
    }

    void
    access(Addr addr, bool store)
    {
        chain_.access(addr, store);
        for (Cache &c : oracle_)
            c.access(addr, store);
    }

    void
    warmAccess(Addr addr, bool store)
    {
        chain_.warmAccess(addr, store);
        for (Cache &c : oracle_)
            c.warmAccess(addr, store);
    }

    void
    resetStats()
    {
        chain_.resetStats();
        for (Cache &c : oracle_)
            c.resetStats();
    }

    /** Equal load/store hit/miss counts at every level. */
    void
    expectSameStats(const std::string &where) const
    {
        ASSERT_EQ(chain_.levels(), oracle_.size());
        for (std::size_t k = 0; k < oracle_.size(); ++k) {
            const AccessStats &got = chain_.stats(k);
            const AccessStats &want = oracle_[k].stats();
            const std::string what =
                where + ", level " + chain_.config(k).name;
            EXPECT_EQ(got.load_hits.value(), want.load_hits.value())
                << what;
            EXPECT_EQ(got.load_misses.value(), want.load_misses.value())
                << what;
            EXPECT_EQ(got.store_hits.value(), want.store_hits.value())
                << what;
            EXPECT_EQ(got.store_misses.value(),
                      want.store_misses.value())
                << what;
        }
    }

    const LruInclusionChain &chain() const { return chain_; }

  private:
    LruInclusionChain chain_;
    std::vector<Cache> oracle_;
};

/** The Figure 7/8 conventional set, one chain per side and
 *  associativity. */
struct ComparisonSet
{
    ChainAndOracle icache{{geometry(8 * KiB, 1), geometry(16 * KiB, 1),
                           geometry(32 * KiB, 1),
                           geometry(64 * KiB, 1)}};
    ChainAndOracle dcache_dm{
        {geometry(16 * KiB, 1), geometry(64 * KiB, 1)}};
    ChainAndOracle dcache_2w{
        {geometry(16 * KiB, 2), geometry(256 * KiB, 2)}};

    void
    feed(const MemRef &ref, bool detail)
    {
        if (ref.type == RefType::IFetch) {
            detail ? icache.access(ref.pc, false)
                   : icache.warmAccess(ref.pc, false);
            return;
        }
        const bool store = ref.type == RefType::Store;
        for (ChainAndOracle *d : {&dcache_dm, &dcache_2w})
            detail ? d->access(ref.addr, store)
                   : d->warmAccess(ref.addr, store);
    }

    void
    expectSameStats(const std::string &where) const
    {
        icache.expectSameStats(where + ", I-side dm");
        dcache_dm.expectSameStats(where + ", D-side dm");
        dcache_2w.expectSameStats(where + ", D-side 2-way");
    }

    void
    resetStats()
    {
        icache.resetStats();
        dcache_dm.resetStats();
        dcache_2w.resetStats();
    }
};

class SpecProxyOracle : public testing::TestWithParam<std::size_t>
{
};

} // namespace

TEST_P(SpecProxyOracle, ChainsCountWhatCacheCounts)
{
    const SpecWorkload &w = specSuite()[GetParam()];
    const MissRateParams params = resolveMissRateParams(true, 0);
    ComparisonSet set;
    SyntheticWorkload source(w.proxy);
    const auto replay = [&](std::uint64_t refs, bool detail) {
        source.generateInto(
            refs, [&](const MemRef &ref) { set.feed(ref, detail); });
    };

    // measureMissRates(): warm-up window, reset, measured window.
    replay(params.warmup_refs, true);
    set.expectSameStats(w.name + " after the warm-up window");
    set.resetStats();
    replay(params.measured_refs, true);
    set.expectSameStats(w.name + " after the measured window");

    // A sampled run: warm phases move state without counting.
    set.resetStats();
    for (int unit = 0; unit < 20; ++unit) {
        replay(2000, false);
        replay(500, true);
        set.expectSameStats(w.name + " after sampled unit " +
                            std::to_string(unit));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecProxies, SpecProxyOracle,
    testing::Range<std::size_t>(0, specSuite().size()));

TEST(LruChainOracle, RandomStreamsOverFewSets)
{
    // A few sets, a pool of lines a few times the largest level, and
    // reuse of recent lines: the streams see conflict misses, fills of
    // empty ways and hits in the older ways of the associative sets.
    // Half the streams sit at the top of the address space.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed);
        std::vector<ChainAndOracle> chains;
        chains.emplace_back(std::vector<CacheConfig>{
            geometry(128, 1), geometry(256, 1), geometry(256, 1),
            geometry(1024, 1)});
        chains.emplace_back(std::vector<CacheConfig>{
            geometry(256, 2), geometry(512, 2), geometry(2048, 2)});
        chains.emplace_back(std::vector<CacheConfig>{
            geometry(512, 4), geometry(2048, 4)});
        chains.emplace_back(std::vector<CacheConfig>{
            geometry(64, 2, 16), geometry(1024, 2, 16)});
        const Addr base = seed % 2 ? 0 : ~Addr{0} << 16;
        std::vector<Addr> recent(8, base);
        for (int phase = 0; phase < 40; ++phase) {
            const bool detail = phase % 3 != 0;
            for (int i = 0; i < 500; ++i) {
                Addr addr;
                if (rng.bernoulli(0.5)) {
                    addr = recent[rng.uniformInt(recent.size())];
                } else {
                    addr = base + rng.uniformInt(160) * 32 +
                           rng.uniformInt(32);
                    recent[rng.uniformInt(recent.size())] = addr;
                }
                const bool store = rng.bernoulli(0.3);
                for (ChainAndOracle &c : chains)
                    detail ? c.access(addr, store)
                           : c.warmAccess(addr, store);
            }
            for (const ChainAndOracle &c : chains)
                c.expectSameStats("seed " + std::to_string(seed) +
                                  ", phase " + std::to_string(phase));
        }
        // The streams really conflict: every level misses and hits.
        for (const ChainAndOracle &c : chains)
            for (std::size_t k = 0; k < c.chain().levels(); ++k) {
                const AccessStats &s = c.chain().stats(k);
                EXPECT_GT(s.misses(), 0u) << c.chain().config(k).name;
                EXPECT_GT(s.accesses() - s.misses(), 0u)
                    << c.chain().config(k).name;
            }
    }
}

TEST(LruChainOracle, OlderWayHitReordersLargerLevels)
{
    // One 2-way set in front of two. Lines 0, 2 and 4 share set 0 of
    // the larger level. A hit on 0 in the older way of the small
    // level must also make 0 the most recent line of the larger
    // level; otherwise 4 would evict 0 there instead of 2, and the
    // final access to 2 would hit.
    ChainAndOracle c({geometry(64, 2), geometry(128, 2)});
    for (Addr line : {0, 2, 0, 4, 2})
        c.access(line * 32, false);
    c.expectSameStats("hand-made sequence");
    EXPECT_EQ(c.chain().stats(0).load_hits.value(), 1u);
    EXPECT_EQ(c.chain().stats(1).load_hits.value(), 1u);
    EXPECT_EQ(c.chain().stats(1).load_misses.value(), 4u);
}

TEST(LruChainDeathTest, RejectsGeometriesWithoutInclusion)
{
    EXPECT_DEATH(LruInclusionChain({}), "no levels");
    EXPECT_DEATH(LruInclusionChain({geometry(8 * KiB, 1),
                                    geometry(16 * KiB, 1, 64)}),
                 "line size 64, not 32");
    EXPECT_DEATH(LruInclusionChain({geometry(8 * KiB, 1),
                                    geometry(16 * KiB, 2)}),
                 "associativity 2, not 1");
    EXPECT_DEATH(LruInclusionChain({geometry(16 * KiB, 1),
                                    geometry(8 * KiB, 1)}),
                 "256 sets, fewer than the 512");
    EXPECT_DEATH(LruInclusionChain({geometry(8 * KiB, 1),
                                    geometry(24 * KiB, 1)}),
                 "set count must be a power of two");
    EXPECT_DEATH(LruInclusionChain({geometry(3 * KiB, 2)}),
                 "set count must be a power of two");
    CacheConfig random = geometry(16 * KiB, 2);
    random.repl = ReplPolicy::Random;
    EXPECT_DEATH(LruInclusionChain({geometry(8 * KiB, 2), random}),
                 "is not LRU");
    EXPECT_DEATH(LruInclusionChain({geometry(8 * KiB, 0)}),
                 "associativity 0");
}
