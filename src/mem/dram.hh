/**
 * @file
 * Multi-bank DRAM array timing model (Section 4.1).
 *
 * The proposed 256 Mbit device has sixteen independently controlled
 * banks. An array access moves an entire 4 Kbit (512-byte) column
 * between the sense amplifiers and a column buffer in one shot; the
 * access takes 30 ns (6 cycles at 200 MHz) and is followed by a
 * precharge window during which the bank cannot accept a new
 * transaction (Figure 9: transitions T1/T3 = access, T2 = precharge).
 *
 * The model tracks per-bank ready times and busy statistics; the
 * busy fractions reproduce the Section 5.6 observation that banks
 * are nearly always idle (gcc: 1.2% at 16 banks, 9.6% at 2 banks).
 */

#ifndef MEMWALL_MEM_DRAM_HH
#define MEMWALL_MEM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace memwall {

/** Geometry and timing of the on-chip DRAM array. */
struct DramConfig
{
    /** Number of independent banks. */
    std::uint32_t banks = 16;
    /** Bytes transferred per array access (one column buffer). */
    std::uint32_t column_bytes = 512;
    /** Array access time in CPU cycles (30 ns at 200 MHz). */
    Cycles access_cycles = 6;
    /** Precharge time before the bank accepts the next access. */
    Cycles precharge_cycles = 4;
    /** Total capacity in bytes (256 Mbit = 32 MiB). */
    std::uint64_t capacity = 32 * MiB;
    /** Name used in reports. */
    std::string name = "dram";

    void validate() const;
};

/** Completion information for one DRAM access. */
struct DramResult
{
    /** Tick at which the data is available in the column buffer. */
    Tick done = 0;
    /** Cycles the request waited for a busy bank. */
    Cycles queued = 0;
    /** Bank that served the request. */
    std::uint32_t bank = 0;
};

/**
 * Timing model of the banked DRAM array. Banks are interleaved at
 * column granularity, so consecutive 512-byte columns live in
 * consecutive banks — the mapping that makes the column buffers act
 * as cache sets.
 */
class Dram
{
  public:
    explicit Dram(DramConfig config = {});

    /** @return the bank holding the column that contains @p addr. */
    std::uint32_t bankFor(Addr addr) const;

    /** @return the first byte address of @p addr's column. */
    Addr columnAddr(Addr addr) const;

    /**
     * Issue an array access for @p addr's column at time @p now.
     * Accounts queueing if the bank is still busy or precharging.
     */
    DramResult access(Tick now, Addr addr);

    /** Tick at which @p bank can accept a new transaction. */
    Tick bankReadyAt(std::uint32_t bank) const;

    /**
     * Fraction of the observation window each bank spent busy
     * (access + precharge). @p window_end must be >= the last access.
     */
    double bankUtilisation(std::uint32_t bank, Tick window_end) const;

    /** Mean utilisation across banks. */
    double meanUtilisation(Tick window_end) const;

    std::uint64_t totalAccesses() const { return accesses_.value(); }
    std::uint64_t totalQueuedCycles() const { return queued_.value(); }

    const DramConfig &config() const { return config_; }

    void resetStats();

  private:
    DramConfig config_;
    unsigned column_shift_;
    std::vector<Tick> ready_at_;
    std::vector<std::uint64_t> busy_cycles_;
    Counter accesses_;
    Counter queued_;
};

} // namespace memwall

#endif // MEMWALL_MEM_DRAM_HH
