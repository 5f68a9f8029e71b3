/**
 * @file
 * Miss-ratio measurement harness (the Shade-replacement loop).
 *
 * Runs a workload proxy's reference stream once and feeds every
 * cache configuration under study simultaneously, reproducing the
 * methodology of Sections 5.2/5.3: "Cache hit and miss rates were
 * measured for instruction and data caches, both for the proposed
 * architecture and for comparable conventional cache architectures."
 */

#ifndef MEMWALL_WORKLOADS_MISSRATE_HH
#define MEMWALL_WORKLOADS_MISSRATE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "mem/cache.hh"
#include "mem/column_cache.hh"
#include "mem/hierarchy.hh"
#include "sampling/confidence.hh"
#include "sampling/plan.hh"
#include "workloads/spec_suite.hh"

namespace memwall {

/** Result for one cache configuration. */
struct CacheMissResult
{
    /** Display label, e.g. "proposed" or "conv-16K-dm". */
    std::string label;
    /** Hit/miss counters after the measured window. */
    AccessStats stats;

    double missRate() const { return stats.missRate(); }
};

/** Figure 7 / Figure 8 measurements for one workload. */
struct WorkloadMissRates
{
    std::string workload;
    /** Instruction caches: proposed first, then conventional. */
    std::vector<CacheMissResult> icaches;
    /** Data caches: proposed, proposed+victim, then conventional. */
    std::vector<CacheMissResult> dcaches;

    const CacheMissResult &icache(const std::string &label) const;
    const CacheMissResult &dcache(const std::string &label) const;
};

/** Measurement window sizes. */
struct MissRateParams
{
    /** References to generate after warm-up. */
    std::uint64_t measured_refs = 4'000'000;
    /** References used to warm the caches (stats discarded). */
    std::uint64_t warmup_refs = 1'000'000;
    /**
     * Scatter the generator to a stationary-state draw before
     * warming (SyntheticWorkload::scatterState()), so the measured
     * window estimates the steady-state miss rate instead of the
     * cold start-of-stream window. The stratified sampling scheme
     * targets the same population; the crosscheck bench gates it
     * against an exhaustive run with this flag set.
     */
    bool stationary_start = false;
};

/** Labels used for the standard comparison set. */
namespace cachelabels {
inline constexpr const char *proposed = "proposed";
inline constexpr const char *proposed_vc = "proposed+vc";
inline constexpr const char *conv8 = "conv-8K-dm";
inline constexpr const char *conv16 = "conv-16K-dm";
inline constexpr const char *conv16w2 = "conv-16K-2w";
inline constexpr const char *conv32 = "conv-32K-dm";
inline constexpr const char *conv64 = "conv-64K-dm";
inline constexpr const char *conv256w2 = "conv-256K-2w";
} // namespace cachelabels

/**
 * Measure the full Figure 7 + Figure 8 comparison set for
 * @p workload: proposed column-buffer caches (with and without the
 * victim cache) against conventional direct-mapped/2-way caches with
 * 32-byte lines.
 */
WorkloadMissRates measureMissRates(const SpecWorkload &workload,
                                   const MissRateParams &params = {});

/** Sampled estimate of one cache configuration's miss rate. */
struct SampledCacheMissRate
{
    std::string label;
    /** One miss-rate sample per detail unit that touched the cache. */
    SampleStat unit_rates;
    /** Interval over the unit rates at the plan's level. */
    ConfidenceInterval ci;

    double mean() const { return unit_rates.mean(); }
};

/** Sampled Figure 7 / Figure 8 measurements for one workload. */
struct SampledWorkloadMissRates
{
    std::string workload;
    /** SamplingPlan::describe() of the plan that produced this. */
    std::string plan;
    std::vector<SampledCacheMissRate> icaches;
    std::vector<SampledCacheMissRate> dcaches;

    /** Detail units completed (== max sample count per cache). */
    std::uint64_t units = 0;
    /** References each mode accounts for. */
    std::uint64_t detail_refs = 0;
    std::uint64_t warm_refs = 0;
    std::uint64_t ff_refs = 0;

    const SampledCacheMissRate &icache(const std::string &label) const;
    const SampledCacheMissRate &dcache(const std::string &label) const;
};

/**
 * Sampled version of measureMissRates(): runs the same comparison set
 * under @p plan instead of replaying the full stream in detail.
 *
 * Systematic plans walk the single reference stream of length
 * warmup_refs + measured_refs phase by phase: fast-forward advances
 * the generator only, warm phases update cache state without
 * statistics, and each detail unit contributes one miss-rate sample
 * per cache. Stratified plans draw each unit from an independent
 * substream (seed = pointSeed(pointSeed(plan.seed, proxy seed),
 * unit)) against shared, cumulatively warmed caches — the natural fit
 * for the stationary synthetic proxies, and far cheaper because the
 * fast-forward gap is never generated at all.
 *
 * Adaptive plans (target_ci > 0) keep adding units until the
 * headline metrics — the proposed icache and proposed+victim dcache —
 * reach the target relative half-width (with a 1% miss-rate floor so
 * near-zero rates terminate), bounded by max_units and, for
 * systematic plans, by the stream length.
 */
SampledWorkloadMissRates
measureMissRatesSampled(const SpecWorkload &workload,
                        const MissRateParams &params,
                        const SamplingPlan &plan);

/** Hit ratios of a two-level conventional hierarchy (Section 5.5). */
struct HierarchyRates
{
    /** L1 instruction hit probability. */
    double icache_hit = 1.0;
    /** P(L2 hit | L1 instruction miss). */
    double icache_l2_hit = 1.0;
    /** L1 hit probability for loads. */
    double load_hit = 1.0;
    double load_l2_hit = 1.0;
    /** L1 hit probability for stores. */
    double store_hit = 1.0;
    double store_l2_hit = 1.0;
};

/**
 * Measure per-level hit ratios of @p config under @p workload —
 * the rates "dialed directly into" the Figure 10/11 GSPN model.
 */
HierarchyRates measureHierarchyRates(const SpecWorkload &workload,
                                     const HierarchyConfig &config,
                                     const MissRateParams &params = {});

/**
 * Hit ratios of the proposed integrated device for @p workload,
 * expressed in the same shape (no L2 level).
 */
HierarchyRates measureIntegratedRates(const SpecWorkload &workload,
                                      bool victim_cache,
                                      const MissRateParams &params = {});

} // namespace memwall

#endif // MEMWALL_WORKLOADS_MISSRATE_HH
