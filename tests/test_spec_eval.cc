/**
 * @file
 * Tests for the Table 3/4 estimation pipeline (cache sim + GSPN).
 */

#include <gtest/gtest.h>

#include "workloads/spec_tables.hh"

using namespace memwall;

namespace {

SpecEvalParams
quick()
{
    SpecEvalParams p;
    p.missrate.measured_refs = 250'000;
    p.missrate.warmup_refs = 80'000;
    p.gspn_instructions = 20'000;
    return p;
}

HierarchyRates
integratedRates(const SpecWorkload &w, bool victim_cache)
{
    return measureIntegratedRates(w, victim_cache, quick().missrate);
}

HierarchyRates
referenceRates(const SpecWorkload &w)
{
    return measureHierarchyRates(w, HierarchyConfig::reference(),
                                 quick().missrate);
}

} // namespace

TEST(SpecEval, EstimateHasPaperStructure)
{
    const auto &gcc = findWorkload("126.gcc");
    const SpecEstimate est =
        estimateIntegrated(gcc, integratedRates(gcc, true), quick());
    EXPECT_EQ(est.name, "126.gcc");
    EXPECT_DOUBLE_EQ(est.cpi.base, 1.01);  // Table 3 cpu component
    EXPECT_GE(est.cpi.memory, 0.0);
    EXPECT_LT(est.cpi.memory, 1.0);
    EXPECT_GT(est.spec_ratio, 3.0);
    EXPECT_LT(est.spec_ratio, 15.0);
}

TEST(SpecEval, VictimCacheReducesMemoryCpiForConflictCodes)
{
    const auto &swim = findWorkload("102.swim");
    const SpecEstimate without =
        estimateIntegrated(swim, integratedRates(swim, false), quick());
    const SpecEstimate with =
        estimateIntegrated(swim, integratedRates(swim, true), quick());
    EXPECT_LT(with.cpi.memory, 0.5 * without.cpi.memory);
    // Lower CPI means higher SPEC ratio.
    EXPECT_GT(with.spec_ratio, without.spec_ratio);
}

TEST(SpecEval, MemoryCpiNearPaperForRepresentatives)
{
    // The Table 3 "shape" targets: swim is the worst case, mgrid is
    // nearly free.
    const auto &swim = findWorkload("102.swim");
    EXPECT_GT(
        estimateIntegrated(swim, integratedRates(swim, false), quick())
            .cpi.memory,
        0.5);
    const auto &mgrid = findWorkload("107.mgrid");
    EXPECT_LT(
        estimateIntegrated(mgrid, integratedRates(mgrid, false), quick())
            .cpi.memory,
        0.1);
}

TEST(SpecEval, SlowerDramRaisesCpi)
{
    SpecEvalParams fast = quick();
    fast.bank_access = 2.0;  // 10 ns
    SpecEvalParams slow = quick();
    slow.bank_access = 14.0;  // 70 ns
    const auto &go = findWorkload("099.go");
    const HierarchyRates rates = integratedRates(go, true);
    const double cpi_fast =
        estimateIntegrated(go, rates, fast).cpi.total();
    const double cpi_slow =
        estimateIntegrated(go, rates, slow).cpi.total();
    EXPECT_GT(cpi_slow, cpi_fast);
}

TEST(SpecEval, ReferenceSystemSensitiveToMemoryLatency)
{
    const auto &gcc = findWorkload("126.gcc");
    const HierarchyRates rates = referenceRates(gcc);
    const double near =
        estimateReference(gcc, rates, 6.0, 10.0, quick()).cpi.total();
    const double far =
        estimateReference(gcc, rates, 6.0, 80.0, quick()).cpi.total();
    EXPECT_GT(far, near + 0.1);
}

TEST(SpecEval, IntegratedBeatsTypicalConventional)
{
    // Figure 11/12 punchline: at the 30 ns design point the
    // integrated device's CPI is well below the conventional
    // system's in its typical operating region (L2 6 cycles, memory
    // 150 ns = 30 cycles).
    const auto &gcc = findWorkload("126.gcc");
    const double integrated =
        estimateIntegrated(gcc, integratedRates(gcc, true), quick())
            .cpi.total();
    const double conventional =
        estimateReference(gcc, referenceRates(gcc), 6.0, 30.0, quick())
            .cpi.total();
    EXPECT_LT(integrated, conventional);
}

TEST(SpecEval, SuiteRunsAllTableRows)
{
    SpecEvalParams p = quick();
    p.missrate.measured_refs = 60'000;
    p.missrate.warmup_refs = 20'000;
    p.gspn_instructions = 5'000;
    const auto rows = specTableWorkloads();
    EXPECT_EQ(rows.size(), 18u);
    for (const SpecWorkload *w : rows) {
        const SpecEstimate row = runSpecTablePoint(*w, true, p);
        EXPECT_GE(row.cpi.total(), 1.0) << row.name;
        EXPECT_GT(row.spec_ratio, 0.0) << row.name;
    }
}

TEST(SpecEval, BankUtilisationIsLowAtDesignPoint)
{
    // Section 5.6: "in gcc each of the 16 banks are busy only 1.2%
    // of the time".
    const auto &gcc = findWorkload("126.gcc");
    const SpecEstimate est =
        estimateIntegrated(gcc, integratedRates(gcc, true), quick());
    EXPECT_LT(est.bank_utilisation, 0.06);
}

TEST(SpecEval, FewerBanksRaiseUtilisationNotCpi)
{
    SpecEvalParams two = quick();
    two.banks = 2;
    SpecEvalParams sixteen = quick();
    sixteen.banks = 16;
    const auto &gcc = findWorkload("126.gcc");
    const HierarchyRates rates = integratedRates(gcc, true);
    const SpecEstimate est2 = estimateIntegrated(gcc, rates, two);
    const SpecEstimate est16 = estimateIntegrated(gcc, rates, sixteen);
    EXPECT_GT(est2.bank_utilisation, est16.bank_utilisation);
    // "the performance differences were below the error limits".
    EXPECT_NEAR(est2.cpi.total(), est16.cpi.total(),
                0.15 * est16.cpi.total());
}

TEST(SpecEval, PricesTheRatesItIsGiven)
{
    // Pricing simulates no cache: perfect hit ratios cost no memory
    // CPI, and measured rates priced here give the Table 4 row.
    const auto &gcc = findWorkload("126.gcc");
    EXPECT_EQ(estimateIntegrated(gcc, HierarchyRates{}, quick())
                  .cpi.memory,
              0.0);
    const HierarchyRates rates = integratedRates(gcc, true);
    const SpecEstimate est = estimateIntegrated(gcc, rates, quick());
    EXPECT_EQ(est.rates.load_hit, rates.load_hit);
    EXPECT_EQ(est.cpi.memory,
              runSpecTablePoint(gcc, true, quick()).cpi.memory);
    const ProcessorModelParams model = gspnInputs(gcc, rates);
    EXPECT_EQ(model.p_load, gcc.load_frac);
    EXPECT_EQ(model.icache_hit, rates.icache_hit);
    EXPECT_FALSE(model.has_l2);
}
