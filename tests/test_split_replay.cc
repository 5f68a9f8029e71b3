/**
 * @file
 * The split replay of the miss-rate measurements against per-
 * reference replay. measureMissRates(), both measureMissRatesSampled()
 * schemes and measureIntegratedRates() hand each straight run of
 * fetches to the instruction caches at once; here the same streams go
 * through the same caches one MemRef at a time (the conventional
 * levels through Cache, LruInclusionChain's oracle), and every
 * cache's AccessStats must come out equal.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "harness/parallel_sweep.hh"
#include "mem/cache.hh"
#include "mem/column_cache.hh"
#include "mem/lru_chain.hh"
#include "sampling/plan.hh"
#include "trace/synthetic.hh"
#include "workloads/missrate.hh"
#include "workloads/missrate_figures.hh"
#include "workloads/spec_suite.hh"

using namespace memwall;

namespace {

CacheConfig
conv(std::uint64_t capacity, std::uint32_t ways, const char *name)
{
    CacheConfig c;
    c.capacity = capacity;
    c.line_size = 32;
    c.assoc = ways;
    c.name = name;
    return c;
}

void
expectSameStats(const AccessStats &got, const AccessStats &want,
                const std::string &what)
{
    EXPECT_EQ(got.load_hits.value(), want.load_hits.value()) << what;
    EXPECT_EQ(got.load_misses.value(), want.load_misses.value()) << what;
    EXPECT_EQ(got.store_hits.value(), want.store_hits.value()) << what;
    EXPECT_EQ(got.store_misses.value(), want.store_misses.value())
        << what;
}

std::vector<Cache>
cachesOf(const std::vector<CacheConfig> &configs)
{
    std::vector<Cache> out;
    for (const CacheConfig &c : configs)
        out.emplace_back(c);
    return out;
}

ColumnCacheConfig
withoutVictim()
{
    ColumnCacheConfig c;
    c.victim_enabled = false;
    return c;
}

/** The Figure 7/8 comparison set, per reference, in result order. */
struct PerReferenceCaches
{
    ColumnInstrCache icache_pim{ColumnCacheConfig{}};
    std::vector<Cache> conv_i =
        cachesOf({conv(8 * KiB, 1, cachelabels::conv8),
                  conv(16 * KiB, 1, cachelabels::conv16),
                  conv(32 * KiB, 1, cachelabels::conv32),
                  conv(64 * KiB, 1, cachelabels::conv64)});
    ColumnDataCache dcache_plain{withoutVictim()};
    ColumnDataCache dcache_vc{ColumnCacheConfig{}};
    std::vector<Cache> conv_d =
        cachesOf({conv(16 * KiB, 1, cachelabels::conv16),
                  conv(16 * KiB, 2, cachelabels::conv16w2),
                  conv(64 * KiB, 1, cachelabels::conv64),
                  conv(256 * KiB, 2, cachelabels::conv256w2)});

    void
    feed(const MemRef &ref, bool count)
    {
        if (ref.type == RefType::IFetch) {
            count ? icache_pim.fetch(ref.pc) : icache_pim.warmFetch(ref.pc);
            for (Cache &c : conv_i)
                count ? c.access(ref.pc, false)
                      : c.warmAccess(ref.pc, false);
            return;
        }
        const bool store = ref.type == RefType::Store;
        for (ColumnDataCache *d : {&dcache_plain, &dcache_vc})
            count ? d->access(ref.addr, store)
                  : d->warmAccess(ref.addr, store);
        for (Cache &c : conv_d)
            count ? c.access(ref.addr, store) : c.warmAccess(ref.addr, store);
    }

    void
    resetStats()
    {
        icache_pim.resetStats();
        dcache_plain.resetStats();
        dcache_vc.resetStats();
        for (Cache &c : conv_i)
            c.resetStats();
        for (Cache &c : conv_d)
            c.resetStats();
    }

    std::vector<std::pair<std::string, const AccessStats *>>
    icacheViews() const
    {
        std::vector<std::pair<std::string, const AccessStats *>> v;
        v.emplace_back(cachelabels::proposed, &icache_pim.stats());
        for (const Cache &c : conv_i)
            v.emplace_back(c.config().name, &c.stats());
        return v;
    }

    std::vector<std::pair<std::string, const AccessStats *>>
    dcacheViews() const
    {
        std::vector<std::pair<std::string, const AccessStats *>> v;
        v.emplace_back(cachelabels::proposed, &dcache_plain.stats());
        v.emplace_back(cachelabels::proposed_vc, &dcache_vc.stats());
        for (const Cache &c : conv_d)
            v.emplace_back(c.config().name, &c.stats());
        return v;
    }
};

/** The same set through the split delivery, as missrate.cc runs it. */
struct SplitCaches
{
    ColumnInstrCache icache_pim{ColumnCacheConfig{}};
    LruInclusionChain conv_i{{conv(8 * KiB, 1, cachelabels::conv8),
                              conv(16 * KiB, 1, cachelabels::conv16),
                              conv(32 * KiB, 1, cachelabels::conv32),
                              conv(64 * KiB, 1, cachelabels::conv64)}};

    void
    replay(SyntheticWorkload &source, std::uint64_t refs, bool count,
           PerReferenceCaches &data_side)
    {
        // The data side is per reference in both replays; only the
        // instruction side differs, so it shares data_side's caches.
        source.generateSplit(
            refs,
            [&](Addr first_pc, std::uint64_t n) {
                if (count) {
                    icache_pim.fetchRun(first_pc, n);
                    conv_i.fetchRun(first_pc, n);
                } else {
                    icache_pim.warmFetchRun(first_pc, n);
                    conv_i.warmFetchRun(first_pc, n);
                }
            },
            [&](const MemRef &ref) { data_side.feed(ref, count); });
    }

    void
    expectSameAs(const PerReferenceCaches &want,
                 const std::string &where) const
    {
        expectSameStats(icache_pim.stats(), want.icache_pim.stats(),
                        where + ", proposed icache");
        for (std::size_t k = 0; k < want.conv_i.size(); ++k)
            expectSameStats(conv_i.stats(k), want.conv_i[k].stats(),
                            where + ", " + conv_i.config(k).name);
    }

    void
    resetStats()
    {
        icache_pim.resetStats();
        conv_i.resetStats();
    }
};

/** Per-unit miss-rate samples of each view, from unit boundaries. */
class UnitSamples
{
  public:
    explicit UnitSamples(
        std::vector<std::pair<std::string, const AccessStats *>> views)
        : views_(std::move(views)), start_(views_.size()),
          rates_(views_.size())
    {
    }

    void
    begin()
    {
        for (std::size_t i = 0; i < views_.size(); ++i)
            start_[i] = {views_[i].second->accesses(),
                         views_[i].second->misses()};
    }

    void
    end()
    {
        for (std::size_t i = 0; i < views_.size(); ++i) {
            const std::uint64_t a =
                views_[i].second->accesses() - start_[i].first;
            const std::uint64_t m =
                views_[i].second->misses() - start_[i].second;
            if (a > 0)
                rates_[i].add(static_cast<double>(m) /
                              static_cast<double>(a));
        }
    }

    void
    expectSameAs(const std::vector<SampledCacheMissRate> &got,
                 const std::string &where) const
    {
        ASSERT_EQ(got.size(), views_.size()) << where;
        for (std::size_t i = 0; i < views_.size(); ++i) {
            const std::string what = where + ", " + views_[i].first;
            EXPECT_EQ(got[i].label, views_[i].first) << what;
            EXPECT_EQ(got[i].unit_rates.count(), rates_[i].count())
                << what;
            EXPECT_EQ(got[i].unit_rates.mean(), rates_[i].mean()) << what;
            EXPECT_EQ(got[i].unit_rates.min(), rates_[i].min()) << what;
            EXPECT_EQ(got[i].unit_rates.max(), rates_[i].max()) << what;
            if (rates_[i].hasVariance()) {
                EXPECT_EQ(got[i].unit_rates.variance(),
                          rates_[i].variance())
                    << what;
            }
        }
    }

  private:
    std::vector<std::pair<std::string, const AccessStats *>> views_;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> start_;
    std::vector<SampleStat> rates_;
};

class SplitReplay : public testing::TestWithParam<std::size_t>
{
};

} // namespace

TEST_P(SplitReplay, MeasureMissRatesCountsWhatPerReferenceReplayCounts)
{
    const SpecWorkload &w = specSuite()[GetParam()];
    MissRateParams params;
    params.measured_refs = 120'000;
    params.warmup_refs = 30'000;
    for (const bool stationary : {false, true}) {
        params.stationary_start = stationary;
        const WorkloadMissRates got = measureMissRates(w, params);

        PerReferenceCaches want;
        SyntheticWorkload source(w.proxy);
        if (stationary)
            source.scatterState();
        const auto feed = [&](const MemRef &r) { want.feed(r, true); };
        source.generateInto(params.warmup_refs, feed);
        want.resetStats();
        source.generateInto(params.measured_refs, feed);

        const std::string where =
            w.name + (stationary ? " (stationary start)" : "");
        const auto icaches = want.icacheViews();
        const auto dcaches = want.dcacheViews();
        ASSERT_EQ(got.icaches.size(), icaches.size());
        ASSERT_EQ(got.dcaches.size(), dcaches.size());
        for (std::size_t i = 0; i < icaches.size(); ++i) {
            EXPECT_EQ(got.icaches[i].label, icaches[i].first);
            expectSameStats(got.icaches[i].stats, *icaches[i].second,
                            where + ", icache " + icaches[i].first);
        }
        for (std::size_t i = 0; i < dcaches.size(); ++i) {
            EXPECT_EQ(got.dcaches[i].label, dcaches[i].first);
            expectSameStats(got.dcaches[i].stats, *dcaches[i].second,
                            where + ", dcache " + dcaches[i].first);
        }
    }
}

TEST_P(SplitReplay, SystematicUnitsMatchPerReferenceReplay)
{
    const SpecWorkload &w = specSuite()[GetParam()];
    MissRateParams params;
    params.measured_refs = 100'000;
    params.warmup_refs = 20'000;
    const SamplingPlan plan =
        parseSamplingPlan("mode=sys,U=700,W=1300,k=9");
    const SampledWorkloadMissRates got =
        measureMissRatesSampled(w, params, plan);

    // The phase walk of measureMissRatesSampled(), per reference,
    // with the split replay of the instruction side alongside: the
    // two must agree at every unit boundary.
    PerReferenceCaches want;
    SplitCaches split;
    PerReferenceCaches split_data;
    UnitSamples icaches(want.icacheViews()), dcaches(want.dcacheViews());
    SyntheticWorkload source(w.proxy), split_source(w.proxy);
    SystematicCursor cursor(plan);
    std::uint64_t remaining = params.warmup_refs + params.measured_refs;
    std::uint64_t units = 0;
    while (remaining > 0) {
        const std::uint64_t chunk =
            std::min(cursor.phaseRemaining(), remaining);
        const bool count = cursor.mode() == SampleMode::Detail;
        if (count && cursor.phaseRemaining() == plan.unit_refs) {
            icaches.begin();
            dcaches.begin();
        }
        if (cursor.mode() == SampleMode::FastForward) {
            source.generateInto(chunk, [](const MemRef &) {});
            split_source.generateSplit(
                chunk, [](Addr, std::uint64_t) {}, [](const MemRef &) {});
        } else {
            source.generateInto(
                chunk, [&](const MemRef &r) { want.feed(r, count); });
            split.replay(split_source, chunk, count, split_data);
        }
        cursor.advance(chunk);
        remaining -= chunk;
        if (cursor.unitJustCompleted()) {
            ++units;
            icaches.end();
            dcaches.end();
            split.expectSameAs(want, w.name + " unit " +
                                         std::to_string(units));
        }
    }
    EXPECT_EQ(got.units, units);
    icaches.expectSameAs(got.icaches, w.name + " systematic");
    dcaches.expectSameAs(got.dcaches, w.name + " systematic");
}

TEST_P(SplitReplay, StratifiedUnitsMatchPerReferenceReplay)
{
    const SpecWorkload &w = specSuite()[GetParam()];
    const SamplingPlan plan =
        parseSamplingPlan("mode=strat,n=12,U=900,W=1700");
    const SampledWorkloadMissRates got =
        measureMissRatesSampled(w, MissRateParams{}, plan);

    // One fresh generator per unit, from the unit's own seed.
    PerReferenceCaches want;
    SplitCaches split;
    PerReferenceCaches split_data;
    UnitSamples icaches(want.icacheViews()), dcaches(want.dcacheViews());
    const std::uint64_t base = pointSeed(plan.seed, w.proxy.seed);
    for (std::uint64_t unit = 0; unit < plan.units; ++unit) {
        SyntheticSpec spec = w.proxy;
        spec.seed = pointSeed(base, unit);
        SyntheticWorkload source(spec), split_source(spec);
        source.scatterState();
        split_source.scatterState();
        source.generateInto(plan.warmup_refs, [&](const MemRef &r) {
            want.feed(r, false);
        });
        split.replay(split_source, plan.warmup_refs, false, split_data);
        icaches.begin();
        dcaches.begin();
        source.generateInto(plan.unit_refs, [&](const MemRef &r) {
            want.feed(r, true);
        });
        split.replay(split_source, plan.unit_refs, true, split_data);
        icaches.end();
        dcaches.end();
        split.expectSameAs(want, w.name + " stratified unit " +
                                     std::to_string(unit));
    }
    EXPECT_EQ(got.units, plan.units);
    icaches.expectSameAs(got.icaches, w.name + " stratified");
    dcaches.expectSameAs(got.dcaches, w.name + " stratified");
}

TEST_P(SplitReplay, IntegratedRatesMatchPerReferenceReplay)
{
    const SpecWorkload &w = specSuite()[GetParam()];
    MissRateParams params;
    params.measured_refs = 120'000;
    params.warmup_refs = 30'000;
    for (const bool victim : {false, true}) {
        const HierarchyRates got =
            measureIntegratedRates(w, victim, params);

        ColumnCacheConfig cfg;
        cfg.victim_enabled = victim;
        ColumnInstrCache icache(cfg);
        ColumnDataCache dcache(cfg);
        SyntheticWorkload source(w.proxy);
        const auto feed = [&](const MemRef &r) {
            if (r.type == RefType::IFetch)
                icache.fetch(r.pc);
            else
                dcache.access(r.addr, r.type == RefType::Store);
        };
        source.generateInto(params.warmup_refs, feed);
        icache.resetStats();
        dcache.resetStats();
        source.generateInto(params.measured_refs, feed);

        const AccessStats &is = icache.stats();
        const AccessStats &ds = dcache.stats();
        const std::string what =
            w.name + (victim ? " with victim cache" : "");
        EXPECT_EQ(got.icache_hit,
                  1.0 - static_cast<double>(is.misses()) /
                            static_cast<double>(is.accesses()))
            << what;
        EXPECT_EQ(got.load_hit,
                  static_cast<double>(ds.load_hits.value()) /
                      static_cast<double>(ds.loads()))
            << what;
        if (ds.stores() > 0) {
            EXPECT_EQ(got.store_hit,
                      static_cast<double>(ds.store_hits.value()) /
                          static_cast<double>(ds.stores()))
                << what;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecProxies, SplitReplay,
    testing::Range<std::size_t>(0, specSuite().size()));

TEST(SplitReplayLines, RunsSplitAtTheLineOfEachFetchsFirstByte)
{
    // Unaligned runs crossing 32- and 512-byte lines, against one
    // Cache access per fetch: same counts and the same resident lines.
    for (const Addr first : {Addr{0x1000}, Addr{0x1002}, Addr{0x11fe},
                             Addr{0x101d}, Addr{0x7ffff1}}) {
        for (const std::uint64_t count : {1ull, 2ull, 7ull, 8ull, 9ull,
                                          128ull, 129ull, 1000ull}) {
            for (const std::uint32_t line : {32u, 512u}) {
                CacheConfig c = conv(2 * KiB, 2, "run");
                c.line_size = line;
                c.capacity = 4ull * line * 2;
                Cache runs(c), per_fetch(c);
                runs.access(first + 0x10000, false); // occupy a way
                per_fetch.access(first + 0x10000, false);
                forEachFetchLine(first, count, line,
                                 [&](Addr a, Addr b, std::uint64_t n) {
                                     EXPECT_EQ(a / line, b / line);
                                     runs.accessRun(a, b, n, false);
                                 });
                for (std::uint64_t i = 0; i < count; ++i)
                    per_fetch.access(first + 4 * i, false);
                const std::string what =
                    "first " + std::to_string(first) + ", " +
                    std::to_string(count) + " fetches, line " +
                    std::to_string(line);
                expectSameStats(runs.stats(), per_fetch.stats(), what);
                // Same LRU order too: one more line evicts the same way.
                runs.access(first + 0x20000, false);
                per_fetch.access(first + 0x20000, false);
                for (std::uint64_t i = 0; i < count; i += 5)
                    EXPECT_EQ(runs.probe(first + 4 * i),
                              per_fetch.probe(first + 4 * i))
                        << what;
                EXPECT_EQ(runs.probe(first + 0x10000),
                          per_fetch.probe(first + 0x10000))
                    << what;
            }
        }
    }
}
