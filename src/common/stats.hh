/**
 * @file
 * Lightweight statistics primitives used by every timing model.
 *
 * The design borrows gem5's idea of named, self-describing statistics
 * grouped per component, but stays deliberately small: counters,
 * ratios (formulas over two counters), and scalar samples with
 * mean/stddev.
 */

#ifndef MEMWALL_COMMON_STATS_HH
#define MEMWALL_COMMON_STATS_HH

#include <cstdint>
#include <string>

namespace memwall {

/** Monotonic event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t n = 1) { value_ += n; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Accumulates scalar samples and reports mean / variance / extrema.
 * Uses Welford's algorithm so long runs stay numerically stable.
 */
class SampleStat
{
  public:
    void add(double x);
    void reset();

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /**
     * Whether a sample variance exists at all: the n-1 denominator
     * needs at least two samples. Confidence-interval code must check
     * this instead of treating the degenerate case as "no spread" —
     * a single observation says nothing about the width of the
     * distribution, and reporting 0.0 here once made a 1-unit
     * sampled run claim a zero-width confidence interval.
     */
    bool hasVariance() const { return n_ >= 2; }
    /** Sample variance (n-1 denominator); NaN when !hasVariance(). */
    double variance() const;
    /** Sample standard deviation; NaN when !hasVariance(). */
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double total() const { return sum_; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * The miss-rate bookkeeping every cache model exposes, split by
 * access type exactly as Figure 8 of the paper plots it (load misses
 * and store misses stack into the total miss fraction).
 */
struct AccessStats
{
    Counter load_hits;
    Counter load_misses;
    Counter store_hits;
    Counter store_misses;

    std::uint64_t loads() const
    {
        return load_hits.value() + load_misses.value();
    }
    std::uint64_t stores() const
    {
        return store_hits.value() + store_misses.value();
    }
    std::uint64_t accesses() const { return loads() + stores(); }
    std::uint64_t misses() const
    {
        return load_misses.value() + store_misses.value();
    }

    /** Total miss fraction over all accesses (0 when idle). */
    double missRate() const;
    /** Load-miss fraction over all accesses (Figure 8's lower bar). */
    double loadMissRate() const;
    /** Store-miss fraction over all accesses (Figure 8's upper bar). */
    double storeMissRate() const;

    void reset();
};

/** Render a rate as a percentage string with @p digits decimals. */
std::string percentString(double fraction, int digits = 2);

} // namespace memwall

#endif // MEMWALL_COMMON_STATS_HH
