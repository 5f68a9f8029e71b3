#include "workloads/spec_eval.hh"

namespace memwall {

namespace {

/** Run the GSPN on @p model with the banks of @p params and combine
 *  the memory CPI with the base CPI. */
SpecEstimate
price(const SpecWorkload &workload, const HierarchyRates &rates,
      ProcessorModelParams model, const SpecEvalParams &params)
{
    model.banks = params.banks;
    model.bank_precharge = params.bank_precharge;
    const CpiEstimate mc =
        estimateCpi(model, params.gspn_instructions, params.seed);

    SpecEstimate est;
    est.name = workload.name;
    est.rates = rates;
    est.cpi.base = workload.base_cpi;
    est.cpi.memory = mc.memory_cpi;
    est.bank_utilisation = mc.bank_utilisation;
    est.spec_ratio = workload.in_spec_tables
        ? workload.calibration().ratio(est.cpi.total())
        : 0.0;
    return est;
}

} // namespace

ProcessorModelParams
gspnInputs(const SpecWorkload &workload, const HierarchyRates &rates)
{
    ProcessorModelParams model;
    model.p_load = workload.load_frac;
    model.p_store = workload.store_frac;
    model.icache_hit = rates.icache_hit;
    model.icache_l2_hit = rates.icache_l2_hit;
    model.load_hit = rates.load_hit;
    model.load_l2_hit = rates.load_l2_hit;
    model.store_hit = rates.store_hit;
    model.store_l2_hit = rates.store_l2_hit;
    return model;
}

SpecEstimate
estimateIntegrated(const SpecWorkload &workload,
                   const HierarchyRates &rates,
                   const SpecEvalParams &params)
{
    ProcessorModelParams model = gspnInputs(workload, rates);
    model.bank_access = params.bank_access;
    return price(workload, rates, model, params);
}

SpecEstimate
estimateReference(const SpecWorkload &workload,
                  const HierarchyRates &rates,
                  double l2_latency_cycles,
                  double memory_latency_cycles,
                  const SpecEvalParams &params)
{
    ProcessorModelParams model = gspnInputs(workload, rates);
    model.has_l2 = true;
    model.l2_latency = l2_latency_cycles;
    model.bank_access = memory_latency_cycles;
    return price(workload, rates, model, params);
}

} // namespace memwall
