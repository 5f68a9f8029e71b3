#include "workloads/missrate.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "harness/parallel_sweep.hh"
#include "mem/lru_chain.hh"

namespace memwall {

const CacheMissResult &
WorkloadMissRates::icache(const std::string &label) const
{
    for (const auto &r : icaches)
        if (r.label == label)
            return r;
    MW_FATAL("no icache measurement labelled '", label, "'");
}

const CacheMissResult &
WorkloadMissRates::dcache(const std::string &label) const
{
    for (const auto &r : dcaches)
        if (r.label == label)
            return r;
    MW_FATAL("no dcache measurement labelled '", label, "'");
}

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

ColumnCacheConfig
withoutVictim(ColumnCacheConfig c)
{
    c.victim_enabled = false;
    return c;
}

/**
 * The full Figure 7 + Figure 8 comparison set. Shared between the
 * exhaustive and the sampled measurement loops so both study exactly
 * the same configurations.
 */
struct ComparisonCaches
{
    // Proposed device caches.
    ColumnCacheConfig pim_cfg;
    ColumnInstrCache icache_pim{pim_cfg};
    ColumnDataCache dcache_plain{withoutVictim(pim_cfg)};
    ColumnDataCache dcache_vc{pim_cfg};

    // Conventional comparison set (32-byte lines, LRU): one inclusion
    // chain per side and associativity, each level labelled by name.
    LruInclusionChain conv_i{{conv(8 * KiB, 1, cachelabels::conv8),
                              conv(16 * KiB, 1, cachelabels::conv16),
                              conv(32 * KiB, 1, cachelabels::conv32),
                              conv(64 * KiB, 1, cachelabels::conv64)}};
    LruInclusionChain conv_d_dm{
        {conv(16 * KiB, 1, cachelabels::conv16),
         conv(64 * KiB, 1, cachelabels::conv64)}};
    LruInclusionChain conv_d_2w{
        {conv(16 * KiB, 2, cachelabels::conv16w2),
         conv(256 * KiB, 2, cachelabels::conv256w2)}};

    /**
     * Replay @p refs references of @p source into every cache: with
     * Count, each models and counts them; without, the functional-
     * warming path makes the same state transitions and counts
     * nothing. The I and D sides are separate caches, so the
     * generator's split delivery hands each straight run of fetches
     * to the I side at once (one walk per line) and the data
     * references to the D side one by one; generateSplit() inlines
     * the emission loop and both bodies together. The conventional
     * caches cost one chain walk per data reference (and per fetched
     * line), and only the 2-way chain walks past a hit.
     */
    template <bool Count>
    void
    replay(SyntheticWorkload &source, std::uint64_t refs)
    {
        source.generateSplit(
            refs,
            [this](Addr first_pc, std::uint64_t count) {
                if constexpr (Count) {
                    icache_pim.fetchRun(first_pc, count);
                    conv_i.fetchRun(first_pc, count);
                } else {
                    icache_pim.warmFetchRun(first_pc, count);
                    conv_i.warmFetchRun(first_pc, count);
                }
            },
            [this](const MemRef &ref) {
                const bool store = ref.type == RefType::Store;
                if constexpr (Count) {
                    dcache_plain.access(ref.addr, store);
                    dcache_vc.access(ref.addr, store);
                    conv_d_dm.access(ref.addr, store);
                    conv_d_2w.access(ref.addr, store);
                } else {
                    dcache_plain.warmAccess(ref.addr, store);
                    dcache_vc.warmAccess(ref.addr, store);
                    conv_d_dm.warmAccess(ref.addr, store);
                    conv_d_2w.warmAccess(ref.addr, store);
                }
            });
    }

    void
    resetStats()
    {
        icache_pim.resetStats();
        dcache_plain.resetStats();
        dcache_vc.resetStats();
        conv_i.resetStats();
        conv_d_dm.resetStats();
        conv_d_2w.resetStats();
    }

    /** Label -> live stats views, in the result ordering. */
    std::vector<std::pair<std::string, const AccessStats *>>
    icacheViews() const
    {
        std::vector<std::pair<std::string, const AccessStats *>> v;
        v.emplace_back(cachelabels::proposed, &icache_pim.stats());
        for (std::size_t k = 0; k < conv_i.levels(); ++k)
            v.emplace_back(conv_i.config(k).name, &conv_i.stats(k));
        return v;
    }

    std::vector<std::pair<std::string, const AccessStats *>>
    dcacheViews() const
    {
        std::vector<std::pair<std::string, const AccessStats *>> v;
        v.emplace_back(cachelabels::proposed, &dcache_plain.stats());
        v.emplace_back(cachelabels::proposed_vc, &dcache_vc.stats());
        // conv-16K-dm, conv-16K-2w, conv-64K-dm, conv-256K-2w.
        for (std::size_t k = 0; k < 2; ++k)
            for (const LruInclusionChain *chain : {&conv_d_dm, &conv_d_2w})
                v.emplace_back(chain->config(k).name,
                               &chain->stats(k));
        return v;
    }
};

/**
 * Per-unit miss-rate accumulator over a set of stats views: snapshot
 * the counters at unit start, turn the deltas into one rate sample
 * per cache at unit end (caches a unit never touched contribute no
 * sample for that unit).
 */
class UnitRates
{
  public:
    explicit UnitRates(
        std::vector<std::pair<std::string, const AccessStats *>> views)
        : views_(std::move(views)), start_(views_.size()),
          unit_rates_(views_.size())
    {
    }

    void
    beginUnit()
    {
        for (std::size_t i = 0; i < views_.size(); ++i)
            start_[i] = {views_[i].second->accesses(),
                         views_[i].second->misses()};
    }

    void
    endUnit()
    {
        for (std::size_t i = 0; i < views_.size(); ++i) {
            const std::uint64_t accesses =
                views_[i].second->accesses() - start_[i].first;
            const std::uint64_t misses =
                views_[i].second->misses() - start_[i].second;
            if (accesses > 0)
                unit_rates_[i].add(static_cast<double>(misses) /
                                   static_cast<double>(accesses));
        }
    }

    const SampleStat &
    rates(const std::string &label) const
    {
        for (std::size_t i = 0; i < views_.size(); ++i)
            if (views_[i].first == label)
                return unit_rates_[i];
        MW_FATAL("no sampled cache labelled '", label, "'");
    }

    std::vector<SampledCacheMissRate>
    results(double level) const
    {
        std::vector<SampledCacheMissRate> out;
        out.reserve(views_.size());
        for (std::size_t i = 0; i < views_.size(); ++i)
            out.push_back(SampledCacheMissRate{
                views_[i].first, unit_rates_[i],
                confidenceInterval(unit_rates_[i], level)});
        return out;
    }

  private:
    std::vector<std::pair<std::string, const AccessStats *>> views_;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> start_;
    std::vector<SampleStat> unit_rates_;
};

/**
 * Adaptive stop rule on the headline metrics (proposed icache and
 * proposed+victim dcache): converged once the half-width is within
 * target_ci relative to the mean, floored at a 1% miss rate so
 * near-zero rates (where any relative target is unreachable) still
 * terminate.
 */
bool
headlineConverged(const SamplingPlan &plan, const UnitRates &icaches,
                  const UnitRates &dcaches)
{
    const auto converged = [&](const SampleStat &s) {
        const ConfidenceInterval ci = confidenceInterval(s, plan.level);
        if (!ci.valid)
            return false;
        return ci.half_width <=
               plan.target_ci * std::max(ci.mean, 0.01);
    };
    return converged(icaches.rates(cachelabels::proposed)) &&
           converged(dcaches.rates(cachelabels::proposed_vc));
}

} // namespace

WorkloadMissRates
measureMissRates(const SpecWorkload &workload,
                 const MissRateParams &params)
{
    ComparisonCaches caches;
    SyntheticWorkload source(workload.proxy);
    if (params.stationary_start)
        source.scatterState();

    // Warm up, then reset statistics and measure.
    caches.replay<true>(source, params.warmup_refs);
    caches.resetStats();
    caches.replay<true>(source, params.measured_refs);

    WorkloadMissRates out;
    out.workload = workload.name;
    for (const auto &[label, stats] : caches.icacheViews())
        out.icaches.push_back(CacheMissResult{label, *stats});
    for (const auto &[label, stats] : caches.dcacheViews())
        out.dcaches.push_back(CacheMissResult{label, *stats});
    return out;
}

const SampledCacheMissRate &
SampledWorkloadMissRates::icache(const std::string &label) const
{
    for (const auto &r : icaches)
        if (r.label == label)
            return r;
    MW_FATAL("no sampled icache measurement labelled '", label, "'");
}

const SampledCacheMissRate &
SampledWorkloadMissRates::dcache(const std::string &label) const
{
    for (const auto &r : dcaches)
        if (r.label == label)
            return r;
    MW_FATAL("no sampled dcache measurement labelled '", label, "'");
}

SampledWorkloadMissRates
measureMissRatesSampled(const SpecWorkload &workload,
                        const MissRateParams &params,
                        const SamplingPlan &plan)
{
    plan.validate();

    ComparisonCaches caches;
    UnitRates icaches(caches.icacheViews());
    UnitRates dcaches(caches.dcacheViews());

    SampledWorkloadMissRates out;
    out.workload = workload.name;
    out.plan = plan.describe();

    const auto ff_fetches = [](Addr, std::uint64_t) {};
    const auto ff_data = [](const MemRef &) {};

    if (plan.scheme == SampleScheme::Systematic) {
        // Walk the one stream the full measurement would replay,
        // phase by phase. A trailing partial detail unit (stream
        // exhausted mid-unit) is discarded.
        SyntheticWorkload source(workload.proxy);
        SystematicCursor cursor(plan);
        std::uint64_t remaining =
            params.warmup_refs + params.measured_refs;
        // Fixed-size plans stop once every unit the stream can hold
        // has run; adaptive plans may stop earlier.
        while (remaining > 0) {
            const std::uint64_t chunk =
                std::min(cursor.phaseRemaining(), remaining);
            switch (cursor.mode()) {
            case SampleMode::FastForward:
                source.generateSplit(chunk, ff_fetches, ff_data);
                out.ff_refs += chunk;
                break;
            case SampleMode::Warm:
                caches.replay<false>(source, chunk);
                out.warm_refs += chunk;
                break;
            case SampleMode::Detail:
                if (cursor.phaseRemaining() == plan.unit_refs) {
                    icaches.beginUnit();
                    dcaches.beginUnit();
                }
                caches.replay<true>(source, chunk);
                out.detail_refs += chunk;
                break;
            }
            cursor.advance(chunk);
            remaining -= chunk;
            if (cursor.unitJustCompleted()) {
                ++out.units;
                icaches.endUnit();
                dcaches.endUnit();
                if (plan.adaptive() && out.units >= plan.units &&
                    (out.units >= plan.max_units ||
                     headlineConverged(plan, icaches, dcaches)))
                    break;
            }
        }
    } else {
        // Stratified: each unit is an independent substream, started
        // from a stationary-state draw of the generator (see
        // SyntheticWorkload::scatterState()), measured against the
        // shared, cumulatively warmed caches. The gap between units
        // is never generated at all, which is where the speedup
        // comes from. Cache history is approximate by construction —
        // the units splice 12+ short stretches of unrelated stream
        // positions into one cache lifetime, so long-reuse-distance
        // behaviour deviates by a bounded amount from a continuous
        // run (the crosscheck bench gates the headline metrics
        // against a steady-state exhaustive run with a documented
        // tolerance). Cold per-unit caches would be worse: warming a
        // large cache from scratch inside each unit's warm window is
        // exactly the cost this scheme exists to avoid.
        const std::uint64_t base =
            pointSeed(plan.seed, workload.proxy.seed);
        const std::uint64_t floor_units = plan.units;
        const std::uint64_t cap =
            plan.adaptive() ? plan.max_units : plan.units;
        SyntheticWorkload source(workload.proxy);
        for (std::uint64_t unit = 0; unit < cap; ++unit) {
            source.reseed(pointSeed(base, unit));
            source.scatterState();
            caches.replay<false>(source, plan.warmup_refs);
            out.warm_refs += plan.warmup_refs;
            icaches.beginUnit();
            dcaches.beginUnit();
            caches.replay<true>(source, plan.unit_refs);
            out.detail_refs += plan.unit_refs;
            icaches.endUnit();
            dcaches.endUnit();
            ++out.units;
            if (plan.adaptive() && out.units >= floor_units &&
                headlineConverged(plan, icaches, dcaches))
                break;
        }
    }

    out.icaches = icaches.results(plan.level);
    out.dcaches = dcaches.results(plan.level);
    return out;
}

HierarchyRates
measureHierarchyRates(const SpecWorkload &workload,
                      const HierarchyConfig &config,
                      const MissRateParams &params)
{
    Cache l1i(config.l1i);
    Cache l1d(config.l1d);
    std::unique_ptr<Cache> l2;
    if (config.has_l2)
        l2 = std::make_unique<Cache>(config.l2);

    struct ClassCounters
    {
        std::uint64_t accesses = 0;
        std::uint64_t l1_hits = 0;
        std::uint64_t l2_hits = 0;
    };
    ClassCounters ifetch, load, store;
    bool counting = false;

    SyntheticWorkload source(workload.proxy);
    const auto sink = [&](const MemRef &ref) {
        const bool is_store = ref.type == RefType::Store;
        ClassCounters &ctr = ref.type == RefType::IFetch
            ? ifetch
            : (is_store ? store : load);
        Cache &l1 = ref.type == RefType::IFetch ? l1i : l1d;
        const bool l1_hit = l1.access(ref.addr, is_store).hit;
        bool l2_hit = false;
        if (!l1_hit && l2)
            l2_hit = l2->access(ref.addr, is_store).hit;
        if (counting) {
            ++ctr.accesses;
            if (l1_hit)
                ++ctr.l1_hits;
            else if (l2_hit)
                ++ctr.l2_hits;
        }
    };

    source.generateInto(params.warmup_refs, sink);
    counting = true;
    source.generateInto(params.measured_refs, sink);

    auto rates = [](const ClassCounters &ctr, double &hit,
                    double &l2_cond) {
        if (ctr.accesses == 0) {
            hit = 1.0;
            l2_cond = 1.0;
            return;
        }
        hit = static_cast<double>(ctr.l1_hits) /
              static_cast<double>(ctr.accesses);
        const std::uint64_t misses = ctr.accesses - ctr.l1_hits;
        l2_cond = misses
            ? static_cast<double>(ctr.l2_hits) /
                  static_cast<double>(misses)
            : 1.0;
    };

    HierarchyRates out;
    rates(ifetch, out.icache_hit, out.icache_l2_hit);
    rates(load, out.load_hit, out.load_l2_hit);
    rates(store, out.store_hit, out.store_l2_hit);
    return out;
}

HierarchyRates
measureIntegratedRates(const SpecWorkload &workload, bool victim_cache,
                       const MissRateParams &params)
{
    ColumnCacheConfig cfg;
    cfg.victim_enabled = victim_cache;
    ColumnInstrCache icache(cfg);
    ColumnDataCache dcache(cfg);

    // Separate I and D caches: the split delivery applies.
    SyntheticWorkload source(workload.proxy);
    const auto fetches = [&](Addr first_pc, std::uint64_t count) {
        icache.fetchRun(first_pc, count);
    };
    const auto data = [&](const MemRef &ref) {
        dcache.access(ref.addr, ref.type == RefType::Store);
    };

    source.generateSplit(params.warmup_refs, fetches, data);
    icache.resetStats();
    dcache.resetStats();
    source.generateSplit(params.measured_refs, fetches, data);

    const AccessStats &is = icache.stats();
    const AccessStats &ds = dcache.stats();

    HierarchyRates out;
    out.icache_hit = is.accesses()
        ? 1.0 - static_cast<double>(is.misses()) /
                    static_cast<double>(is.accesses())
        : 1.0;
    out.load_hit = ds.loads()
        ? static_cast<double>(ds.load_hits.value()) /
              static_cast<double>(ds.loads())
        : 1.0;
    out.store_hit = ds.stores()
        ? static_cast<double>(ds.store_hits.value()) /
              static_cast<double>(ds.stores())
        : 1.0;
    // No second level on the integrated device.
    out.icache_l2_hit = 0.0;
    out.load_l2_hit = 0.0;
    out.store_l2_hit = 0.0;
    return out;
}

} // namespace memwall
