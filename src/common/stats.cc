#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace memwall {

void
SampleStat::add(double x)
{
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
SampleStat::reset()
{
    *this = SampleStat{};
}

double
SampleStat::variance() const
{
    if (!hasVariance())
        return std::numeric_limits<double>::quiet_NaN();
    return m2_ / static_cast<double>(n_ - 1);
}

double
SampleStat::stddev() const
{
    return std::sqrt(variance());
}

double
AccessStats::missRate() const
{
    const auto total = accesses();
    return total ? static_cast<double>(misses()) /
                       static_cast<double>(total)
                 : 0.0;
}

double
AccessStats::loadMissRate() const
{
    const auto total = accesses();
    return total ? static_cast<double>(load_misses.value()) /
                       static_cast<double>(total)
                 : 0.0;
}

double
AccessStats::storeMissRate() const
{
    const auto total = accesses();
    return total ? static_cast<double>(store_misses.value()) /
                       static_cast<double>(total)
                 : 0.0;
}

void
AccessStats::reset()
{
    load_hits.reset();
    load_misses.reset();
    store_hits.reset();
    store_misses.reset();
}

std::string
percentString(double fraction, int digits)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f%%", digits, fraction * 100.0);
    return buf;
}

} // namespace memwall
