/**
 * @file
 * End-to-end SPEC'95 estimation — the Table 3 / Table 4 pipeline.
 *
 * For each benchmark: measure the cache hit ratios once (Sections
 * 5.2-5.4, workloads/missrate.hh), dial them into the processor/memory
 * GSPN (Section 5.5) at every latency or bank point, combine the
 * memory CPI with the benchmark's base CPI, and convert to a SPEC
 * ratio via the per-benchmark calibration.
 */

#ifndef MEMWALL_WORKLOADS_SPEC_EVAL_HH
#define MEMWALL_WORKLOADS_SPEC_EVAL_HH

#include <string>

#include "cpu/cpi_model.hh"
#include "gspn/models.hh"
#include "workloads/missrate.hh"

namespace memwall {

/** One row of Table 3 or Table 4. */
struct SpecEstimate
{
    std::string name;
    /** Measured hit ratios fed into the GSPN. */
    HierarchyRates rates;
    /** base + memory CPI decomposition. */
    CpiBreakdown cpi;
    /** Estimated SPEC ratio (k / CPI calibration). */
    double spec_ratio = 0.0;
    /** Mean memory-bank utilisation from the GSPN. */
    double bank_utilisation = 0.0;
};

/** Knobs for the estimation pipeline. */
struct SpecEvalParams
{
    MissRateParams missrate = {};
    /** Monte-Carlo instructions per GSPN evaluation. */
    std::uint64_t gspn_instructions = 150'000;
    std::uint64_t seed = 42;
    /** Memory banks (Section 5.6 sweeps this). */
    unsigned banks = 16;
    /** DRAM array access time in cycles. */
    double bank_access = 6.0;
    double bank_precharge = 4.0;
};

/**
 * The GSPN inputs of @p workload: its instruction mix and the hit
 * ratios @p rates, on the net's default machine (scoreboarding, no
 * L2, 16 banks), which the estimate functions below then set.
 */
ProcessorModelParams gspnInputs(const SpecWorkload &workload,
                                const HierarchyRates &rates);

/**
 * Price @p rates from measureIntegratedRates() on the integrated
 * device with the banks and DRAM timing of @p params (Tables 3/4,
 * Figure 12). No cache is simulated here.
 */
SpecEstimate estimateIntegrated(const SpecWorkload &workload,
                                const HierarchyRates &rates,
                                const SpecEvalParams &params = {});

/**
 * Price @p rates from measureHierarchyRates() on
 * HierarchyConfig::reference() (16 KB split L1, 256 KB unified L2) on
 * the conventional system of Section 5.5: the given L2 and memory
 * latencies in cycles, @p params.banks banks — Figure 11's machine.
 */
SpecEstimate estimateReference(const SpecWorkload &workload,
                               const HierarchyRates &rates,
                               double l2_latency_cycles,
                               double memory_latency_cycles,
                               const SpecEvalParams &params = {});

} // namespace memwall

#endif // MEMWALL_WORKLOADS_SPEC_EVAL_HH
