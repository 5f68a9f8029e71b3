/**
 * @file
 * Fundamental scalar types and unit helpers shared by every module.
 *
 * The conventions follow the paper's machine model: a 200 MHz clock
 * (5 ns cycle), byte-granular 64-bit physical addresses, and cache
 * geometry expressed in bytes.
 */

#ifndef MEMWALL_COMMON_TYPES_HH
#define MEMWALL_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace memwall {

/** Physical/virtual byte address. */
using Addr = std::uint64_t;

/** A duration or timestamp measured in CPU clock cycles. */
using Cycles = std::uint64_t;

/** Simulated timestamp (same unit as Cycles in this code base). */
using Tick = std::uint64_t;

/** Sentinel for "no address". */
inline constexpr Addr invalid_addr = std::numeric_limits<Addr>::max();

/** Sentinel for "never" / unscheduled. */
inline constexpr Tick max_tick = std::numeric_limits<Tick>::max();

/** Byte-quantity literals used throughout the cache geometry code. */
inline constexpr std::uint64_t KiB = 1024;
inline constexpr std::uint64_t MiB = 1024 * KiB;
inline constexpr std::uint64_t GiB = 1024 * MiB;

/** @return true iff @p v is a power of two (and non-zero). */
constexpr bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @return floor(log2(v)); v must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/** @return the smallest power of two >= v (v must be non-zero). */
constexpr std::uint64_t
ceilPowerOfTwo(std::uint64_t v)
{
    std::uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/**
 * Clock parameters of the proposed device (Section 4.1): 200 MHz core,
 * 30 ns DRAM array access (6 cycles).
 */
struct ClockParams
{
    /** Core frequency in MHz. */
    double freq_mhz = 200.0;

    /** @return the cycle time in nanoseconds. */
    double cycleNs() const { return 1000.0 / freq_mhz; }

    /** @return @p ns converted to whole cycles, rounding up. */
    Cycles
    nsToCycles(double ns) const
    {
        const double cycles = ns / cycleNs();
        const auto whole = static_cast<Cycles>(cycles);
        return (cycles > static_cast<double>(whole)) ? whole + 1 : whole;
    }

    /** @return @p cycles converted to nanoseconds. */
    double cyclesToNs(Cycles cycles) const
    {
        return static_cast<double>(cycles) * cycleNs();
    }
};

} // namespace memwall

#endif // MEMWALL_COMMON_TYPES_HH
