/**
 * @file
 * Shared helpers for the SPLASH kernel implementations.
 */

#ifndef MEMWALL_WORKLOADS_SPLASH_SPLASH_COMMON_HH
#define MEMWALL_WORKLOADS_SPLASH_SPLASH_COMMON_HH

#include <algorithm>
#include <cstdint>

#include "common/logging.hh"
#include "mp/shared.hh"
#include "workloads/splash/splash.hh"

namespace memwall {

/** Collect makespan and machine counters after a run. */
inline SplashResult
collectResult(MpRuntime &rt, double checksum)
{
    SplashResult res;
    for (unsigned cpu = 0; cpu < rt.ncpus(); ++cpu)
        res.makespan =
            std::max(res.makespan, rt.scheduler().cpuTime(cpu));
    res.accesses = rt.machine().totalAccesses();
    res.remote_loads = rt.machine().totalRemoteLoads();
    res.invalidations = rt.machine().totalInvalidations();
    res.checksum = checksum;
    return res;
}

/** [first, last) slice of @p total items for @p cpu of @p p. */
struct Slice
{
    unsigned first;
    unsigned last;
};

inline Slice
sliceOf(unsigned total, unsigned cpu, unsigned p)
{
    // cpu < p keeps every intermediate below `total`; without the
    // bound an out-of-range cpu silently wraps `cpu * base` in
    // unsigned arithmetic for large synthetic-scaling totals.
    MW_ASSERT(p > 0 && cpu < p,
              "sliceOf: cpu ", cpu, " out of range for ", p,
              " processors");
    const std::uint64_t base = total / p;
    const std::uint64_t extra = total % p;
    const std::uint64_t first =
        cpu * base + std::min<std::uint64_t>(cpu, extra);
    const std::uint64_t count = base + (cpu < extra ? 1 : 0);
    return Slice{static_cast<unsigned>(first),
                 static_cast<unsigned>(first + count)};
}

} // namespace memwall

#endif // MEMWALL_WORKLOADS_SPLASH_SPLASH_COMMON_HH
