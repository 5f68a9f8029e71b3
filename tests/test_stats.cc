/**
 * @file
 * Tests for counters, sample statistics and the load/store miss
 * accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.hh"

using namespace memwall;

TEST(Counter, StartsAtZeroAndAccumulates)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SampleStat, EmptyIsSafe)
{
    SampleStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    // No samples: a variance does not exist. It used to read 0.0,
    // which let a zero-unit sampled run report a zero-width
    // confidence interval; NaN poisons any arithmetic built on it.
    EXPECT_FALSE(s.hasVariance());
    EXPECT_TRUE(std::isnan(s.variance()));
    EXPECT_TRUE(std::isnan(s.stddev()));
}

TEST(SampleStat, SingleSampleHasNoVariance)
{
    SampleStat s;
    s.add(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    // One observation says nothing about spread: the n-1 denominator
    // is zero. Regression for the 1-unit sampled run that claimed a
    // zero-width interval.
    EXPECT_FALSE(s.hasVariance());
    EXPECT_TRUE(std::isnan(s.variance()));
    EXPECT_TRUE(std::isnan(s.stddev()));
}

TEST(SampleStat, TwoSamplesGainVariance)
{
    SampleStat s;
    s.add(1.0);
    EXPECT_FALSE(s.hasVariance());
    s.add(3.0);
    EXPECT_TRUE(s.hasVariance());
    EXPECT_DOUBLE_EQ(s.variance(), 2.0);
}

TEST(SampleStat, MeanAndVariance)
{
    SampleStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance with n-1 denominator: 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SampleStat, MinMaxTotal)
{
    SampleStat s;
    s.add(-3.0);
    s.add(10.0);
    s.add(2.0);
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.max(), 10.0);
    EXPECT_DOUBLE_EQ(s.total(), 9.0);
}

TEST(SampleStat, WelfordStableForLargeOffsets)
{
    SampleStat s;
    // Classic catastrophic-cancellation case for naive variance.
    for (int i = 0; i < 1000; ++i)
        s.add(1e9 + (i % 2));
    EXPECT_NEAR(s.variance(), 0.25, 1e-3);
}

TEST(SampleStat, ResetClears)
{
    SampleStat s;
    s.add(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.total(), 0.0);
    EXPECT_FALSE(s.hasVariance());
}

namespace {

/** Two-pass textbook variance for cross-checking Welford. */
double
naiveVariance(const std::vector<double> &xs)
{
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= static_cast<double>(xs.size());
    double ss = 0.0;
    for (double x : xs)
        ss += (x - mean) * (x - mean);
    return ss / static_cast<double>(xs.size() - 1);
}

} // namespace

TEST(SampleStat, WelfordMatchesTwoPassOnAdversarialSequences)
{
    // Sequences chosen to break one-pass sum-of-squares: huge common
    // offsets, alternating magnitudes, near-cancellation, and a
    // monotone ramp whose mean drifts the whole run.
    const std::vector<std::vector<double>> cases = {
        {1e12, 1e12 + 1, 1e12 + 2, 1e12 + 3},
        {1e8, -1e8, 1e8, -1e8, 1e8, -1e8, 42.0},
        {3.14159, 3.14159, 3.14159, 3.1416, 3.14158},
        {1e-9, 2e-9, 3e-9, 4e-9, 5e-9},
        {1e15, 1.0, -1e15, 2.0, 1e15, 3.0},
    };
    for (const auto &xs : cases) {
        SampleStat s;
        for (double x : xs)
            s.add(x);
        const double expect = naiveVariance(xs);
        // Welford should agree with the stable two-pass formula to
        // high relative precision (absolute floor for variance ~0).
        const double tol = 1e-9 * std::max(1.0, expect);
        EXPECT_NEAR(s.variance(), expect, tol)
            << "sequence starting at " << xs.front();
    }
}

TEST(SampleStat, RampMeanStaysExact)
{
    // 0..9999 around a 1e9 offset: naive single-pass variance loses
    // every significant digit here; Welford keeps them all.
    SampleStat s;
    const double n = 10000.0;
    for (int i = 0; i < 10000; ++i)
        s.add(1e9 + i);
    EXPECT_NEAR(s.mean(), 1e9 + (n - 1) / 2.0, 1e-3);
    // Sample variance of 0..n-1 is n(n+1)/12. Welford's rounding at
    // this offset is O(10); the naive sum-of-squares formula is off
    // by O(1e6) here, so the tolerance separates them cleanly.
    EXPECT_NEAR(s.variance(), n * (n + 1.0) / 12.0, 500.0);
}

TEST(AccessStats, RatesSplitByType)
{
    AccessStats s;
    s.load_hits.inc(60);
    s.load_misses.inc(20);
    s.store_hits.inc(15);
    s.store_misses.inc(5);
    EXPECT_EQ(s.accesses(), 100u);
    EXPECT_EQ(s.misses(), 25u);
    EXPECT_DOUBLE_EQ(s.missRate(), 0.25);
    EXPECT_DOUBLE_EQ(s.loadMissRate(), 0.20);
    EXPECT_DOUBLE_EQ(s.storeMissRate(), 0.05);
    // The figure-8 stacked bars: load + store fractions = total.
    EXPECT_DOUBLE_EQ(s.loadMissRate() + s.storeMissRate(),
                     s.missRate());
}

TEST(AccessStats, IdleIsZero)
{
    AccessStats s;
    EXPECT_DOUBLE_EQ(s.missRate(), 0.0);
    EXPECT_DOUBLE_EQ(s.loadMissRate(), 0.0);
}

TEST(AccessStats, ResetClears)
{
    AccessStats s;
    s.load_hits.inc(3);
    s.store_misses.inc(2);
    s.reset();
    EXPECT_EQ(s.accesses(), 0u);
}

TEST(PercentString, Formats)
{
    EXPECT_EQ(percentString(0.1234, 2), "12.34%");
    EXPECT_EQ(percentString(0.5, 0), "50%");
    EXPECT_EQ(percentString(1.0, 1), "100.0%");
}
