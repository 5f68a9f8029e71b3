/**
 * @file
 * Tests for the sampled-simulation subsystem: Student-t critical
 * values, confidence intervals, plan parsing/validation, the
 * systematic phase cursor and the sampled miss-rate harness.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "sampling/confidence.hh"
#include "sampling/plan.hh"
#include "workloads/missrate.hh"
#include "workloads/spec_suite.hh"

using namespace memwall;

// --- Student-t critical values -------------------------------------

TEST(TCritical, MatchesTableAnchors)
{
    EXPECT_DOUBLE_EQ(tCritical(1, 0.95), 12.706);
    EXPECT_DOUBLE_EQ(tCritical(10, 0.95), 2.228);
    EXPECT_DOUBLE_EQ(tCritical(30, 0.95), 2.042);
    EXPECT_DOUBLE_EQ(tCritical(1, 0.90), 6.314);
    EXPECT_DOUBLE_EQ(tCritical(5, 0.99), 4.032);
}

TEST(TCritical, ZeroDfIsInfinite)
{
    EXPECT_TRUE(std::isinf(tCritical(0, 0.95)));
}

TEST(TCritical, TailConvergesToNormalQuantile)
{
    // Beyond the table the 1/df correction decays toward z.
    const double t40 = tCritical(40, 0.95);
    const double t1000 = tCritical(1000, 0.95);
    EXPECT_GT(t40, t1000);
    EXPECT_GT(t1000, 1.960);
    EXPECT_NEAR(t1000, 1.960, 0.01);
    // Real t_{40, 0.025} = 2.021; the smooth tail is within 0.1%.
    EXPECT_NEAR(t40, 2.021, 0.003);
}

TEST(TCritical, MonotoneInDf)
{
    for (std::uint64_t df = 1; df < 60; ++df)
        EXPECT_GE(tCritical(df, 0.95), tCritical(df + 1, 0.95));
}

TEST(TCritical, LevelSelection)
{
    // Wider confidence => wider critical value at every df.
    for (std::uint64_t df : {1u, 10u, 100u}) {
        EXPECT_LT(tCritical(df, 0.90), tCritical(df, 0.95));
        EXPECT_LT(tCritical(df, 0.95), tCritical(df, 0.99));
    }
}

// --- Confidence intervals ------------------------------------------

TEST(ConfidenceIntervalTest, MatchesHandComputation)
{
    SampleStat s;
    for (double x : {10.0, 12.0, 14.0, 16.0, 18.0})
        s.add(x);
    const ConfidenceInterval ci = confidenceInterval(s, 0.95);
    EXPECT_TRUE(ci.valid);
    EXPECT_EQ(ci.n, 5u);
    EXPECT_DOUBLE_EQ(ci.mean, 14.0);
    // s = sqrt(10), t_{4,.025} = 2.776: hw = 2.776*sqrt(10)/sqrt(5).
    EXPECT_NEAR(ci.half_width, 2.776 * std::sqrt(10.0 / 5.0), 1e-9);
    EXPECT_TRUE(ci.contains(14.0));
    EXPECT_TRUE(ci.contains(ci.lo()));
    EXPECT_FALSE(ci.contains(ci.hi() + 1e-6));
    EXPECT_NEAR(ci.relative(), ci.half_width / 14.0, 1e-12);
}

TEST(ConfidenceIntervalTest, DegenerateSamplesAreInvalid)
{
    // Regression: n < 2 used to yield a zero-width "interval" that
    // trivially contained (only) its own mean and passed any
    // relative-width stop rule immediately.
    SampleStat s;
    ConfidenceInterval ci = confidenceInterval(s);
    EXPECT_FALSE(ci.valid);
    EXPECT_TRUE(std::isinf(ci.half_width));
    EXPECT_FALSE(ci.contains(0.0));
    EXPECT_TRUE(std::isinf(ci.relative()));

    s.add(7.0);
    ci = confidenceInterval(s);
    EXPECT_FALSE(ci.valid);
    EXPECT_TRUE(std::isinf(ci.half_width));
    EXPECT_FALSE(ci.contains(7.0));
}

TEST(ConfidenceIntervalTest, ZeroSpreadIsZeroWidth)
{
    SampleStat s;
    s.add(3.0);
    s.add(3.0);
    const ConfidenceInterval ci = confidenceInterval(s);
    EXPECT_TRUE(ci.valid);
    EXPECT_DOUBLE_EQ(ci.half_width, 0.0);
    EXPECT_TRUE(ci.contains(3.0));
    EXPECT_DOUBLE_EQ(ci.relative(), 0.0);
}

// --- Plan parsing and validation -----------------------------------

TEST(SamplingPlanTest, EmptyStringGivesDefaults)
{
    const SamplingPlan plan = parseSamplingPlan("");
    EXPECT_EQ(plan.scheme, SampleScheme::Systematic);
    EXPECT_EQ(plan.unit_refs, 1000u);
    EXPECT_EQ(plan.warmup_refs, 2000u);
    EXPECT_EQ(plan.period_units, 50u);
    EXPECT_FALSE(plan.adaptive());
}

TEST(SamplingPlanTest, ParsesSystematicSpec)
{
    const SamplingPlan plan =
        parseSamplingPlan("U=500,W=1500,k=10,ci=0.05,max=200,"
                          "level=0.99,seed=7");
    EXPECT_EQ(plan.scheme, SampleScheme::Systematic);
    EXPECT_EQ(plan.unit_refs, 500u);
    EXPECT_EQ(plan.warmup_refs, 1500u);
    EXPECT_EQ(plan.period_units, 10u);
    EXPECT_DOUBLE_EQ(plan.target_ci, 0.05);
    EXPECT_TRUE(plan.adaptive());
    EXPECT_EQ(plan.max_units, 200u);
    EXPECT_DOUBLE_EQ(plan.level, 0.99);
    EXPECT_EQ(plan.seed, 7u);
}

TEST(SamplingPlanTest, ParsesStratifiedSpec)
{
    const SamplingPlan plan =
        parseSamplingPlan("mode=strat,U=1000,W=2000,n=24");
    EXPECT_EQ(plan.scheme, SampleScheme::Stratified);
    EXPECT_EQ(plan.units, 24u);
    EXPECT_NE(plan.describe().find("stratified"), std::string::npos);
    EXPECT_NE(plan.describe().find("n=24"), std::string::npos);
}

TEST(SamplingPlanDeathTest, RejectsMalformedSpecs)
{
    EXPECT_DEATH(parseSamplingPlan("U=1000,bogus=3"), "unknown key");
    EXPECT_DEATH(parseSamplingPlan("U"), "malformed");
    EXPECT_DEATH(parseSamplingPlan("U=abc"), "invalid number");
    EXPECT_DEATH(parseSamplingPlan("mode=quantum"), "unknown mode");
}

TEST(SamplingPlanDeathTest, RejectsInconsistentPlans)
{
    // W + U must fit inside the systematic period k*U.
    EXPECT_DEATH(parseSamplingPlan("U=1000,W=5000,k=2"),
                 "cannot fit");
    EXPECT_DEATH(parseSamplingPlan("U=0"), "must be positive");
    EXPECT_DEATH(parseSamplingPlan("mode=strat,n=0"), "n >= 1");
    EXPECT_DEATH(parseSamplingPlan("level=1.5"), "level");
}

// --- Systematic cursor ---------------------------------------------

TEST(SystematicCursorTest, WalksWarmDetailFastForward)
{
    SamplingPlan plan;
    plan.unit_refs = 10;
    plan.warmup_refs = 20;
    plan.period_units = 5;  // period 50: W 20, D 10, FF 20
    plan.validate();
    SystematicCursor c(plan);

    EXPECT_EQ(c.mode(), SampleMode::Warm);
    EXPECT_EQ(c.phaseRemaining(), 20u);
    c.advance(20);
    EXPECT_EQ(c.mode(), SampleMode::Detail);
    EXPECT_EQ(c.phaseRemaining(), 10u);
    EXPECT_EQ(c.unitsCompleted(), 0u);
    c.advance(10);
    EXPECT_TRUE(c.unitJustCompleted());
    EXPECT_EQ(c.unitsCompleted(), 1u);
    EXPECT_EQ(c.mode(), SampleMode::FastForward);
    EXPECT_EQ(c.phaseRemaining(), 20u);
    c.advance(20);
    EXPECT_FALSE(c.unitJustCompleted());
    // Second period begins with warming again.
    EXPECT_EQ(c.mode(), SampleMode::Warm);
}

TEST(SystematicCursorTest, SingleStepAdvancesMatchPhaseWalk)
{
    SamplingPlan plan;
    plan.unit_refs = 5;
    plan.warmup_refs = 10;
    plan.period_units = 4;  // period 20: W 10, D 5, FF 5
    plan.validate();
    SystematicCursor c(plan);

    std::uint64_t warm = 0, detail = 0, ff = 0, completions = 0;
    for (int i = 0; i < 200; ++i) {  // 10 periods, one ref at a time
        switch (c.mode()) {
        case SampleMode::Warm: ++warm; break;
        case SampleMode::Detail: ++detail; break;
        case SampleMode::FastForward: ++ff; break;
        }
        c.advance(1);
        if (c.unitJustCompleted())
            ++completions;
    }
    EXPECT_EQ(warm, 100u);
    EXPECT_EQ(detail, 50u);
    EXPECT_EQ(ff, 50u);
    EXPECT_EQ(completions, 10u);
    EXPECT_EQ(c.unitsCompleted(), 10u);
}

TEST(SystematicCursorTest, NoFastForwardWhenPeriodIsFull)
{
    SamplingPlan plan;
    plan.unit_refs = 10;
    plan.warmup_refs = 10;
    plan.period_units = 2;  // period 20 = W 10 + D 10, FF 0
    plan.validate();
    SystematicCursor c(plan);
    c.advance(10);
    EXPECT_EQ(c.mode(), SampleMode::Detail);
    c.advance(10);
    // Straight back into the next period's warm phase.
    EXPECT_EQ(c.mode(), SampleMode::Warm);
    EXPECT_EQ(c.unitsCompleted(), 1u);
}

// --- Sampled miss-rate harness -------------------------------------

namespace {

MissRateParams
quickParams()
{
    MissRateParams p;
    p.warmup_refs = 20'000;
    p.measured_refs = 100'000;
    return p;
}

} // namespace

TEST(SampledMissRates, SystematicRunsAndIsDeterministic)
{
    const SpecWorkload &w = specSuite().front();
    const SamplingPlan plan = parseSamplingPlan("U=1000,W=2000,k=10");
    const SampledWorkloadMissRates a =
        measureMissRatesSampled(w, quickParams(), plan);
    const SampledWorkloadMissRates b =
        measureMissRatesSampled(w, quickParams(), plan);

    EXPECT_GT(a.units, 0u);
    EXPECT_GT(a.detail_refs, 0u);
    EXPECT_GT(a.ff_refs, 0u);
    ASSERT_FALSE(a.icaches.empty());
    ASSERT_FALSE(a.dcaches.empty());
    for (std::size_t i = 0; i < a.icaches.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.icaches[i].mean(), b.icaches[i].mean());
        EXPECT_DOUBLE_EQ(a.icaches[i].ci.half_width,
                         b.icaches[i].ci.half_width);
    }
    for (std::size_t i = 0; i < a.dcaches.size(); ++i)
        EXPECT_DOUBLE_EQ(a.dcaches[i].mean(), b.dcaches[i].mean());
    // Every reference of the stream lands in exactly one mode.
    EXPECT_EQ(a.detail_refs + a.warm_refs + a.ff_refs,
              quickParams().warmup_refs + quickParams().measured_refs);
}

TEST(SampledMissRates, SystematicTracksExhaustiveRate)
{
    const SpecWorkload &w = specSuite().front();
    const WorkloadMissRates full = measureMissRates(w, quickParams());
    const SampledWorkloadMissRates sampled = measureMissRatesSampled(
        w, quickParams(), parseSamplingPlan("U=1000,W=3000,k=5"));

    const double full_rate =
        full.icache(cachelabels::proposed).missRate();
    const SampledCacheMissRate &est =
        sampled.icache(cachelabels::proposed);
    // The estimate lands near the exhaustive value (the crosscheck
    // bench gates the tight statistical contract; this is a sanity
    // bound for the quick unit-test configuration).
    EXPECT_NEAR(est.mean(), full_rate, 0.02);
    EXPECT_TRUE(est.ci.valid);
}

TEST(SampledMissRates, StratifiedSeedsAreReproducibleAndDistinct)
{
    const SpecWorkload &w = specSuite().front();
    SamplingPlan plan = parseSamplingPlan("mode=strat,U=500,W=1500,n=8");
    const SampledWorkloadMissRates a =
        measureMissRatesSampled(w, quickParams(), plan);
    const SampledWorkloadMissRates b =
        measureMissRatesSampled(w, quickParams(), plan);
    EXPECT_EQ(a.units, 8u);
    for (std::size_t i = 0; i < a.dcaches.size(); ++i)
        EXPECT_DOUBLE_EQ(a.dcaches[i].mean(), b.dcaches[i].mean());

    plan.seed = 1234;
    const SampledWorkloadMissRates c =
        measureMissRatesSampled(w, quickParams(), plan);
    // A different base seed draws different substreams. (Identical
    // estimates for every cache at once would mean the seed is
    // ignored.)
    bool any_different = false;
    for (std::size_t i = 0; i < c.dcaches.size(); ++i)
        if (c.dcaches[i].mean() != a.dcaches[i].mean())
            any_different = true;
    EXPECT_TRUE(any_different);
}

TEST(SampledMissRates, AdaptiveStopsWithinBounds)
{
    const SpecWorkload &w = specSuite().front();
    // Loose target: should stop well before max_units; the plan's n
    // is the adaptive minimum.
    const SamplingPlan plan = parseSamplingPlan(
        "mode=strat,U=500,W=1500,n=6,ci=0.5,max=64");
    const SampledWorkloadMissRates r =
        measureMissRatesSampled(w, quickParams(), plan);
    EXPECT_GE(r.units, 6u);
    EXPECT_LE(r.units, 64u);
}
