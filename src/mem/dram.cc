#include "mem/dram.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memwall {

void
DramConfig::validate() const
{
    if (banks == 0 || !isPowerOfTwo(banks))
        MW_FATAL(name, ": bank count must be a power of two, got ",
                 banks);
    if (!isPowerOfTwo(column_bytes))
        MW_FATAL(name, ": column size must be a power of two");
    if (capacity % (static_cast<std::uint64_t>(banks) * column_bytes))
        MW_FATAL(name, ": capacity must be a multiple of banks*column");
}

Dram::Dram(DramConfig config)
    : config_(config)
{
    config_.validate();
    column_shift_ = floorLog2(config_.column_bytes);
    ready_at_.assign(config_.banks, 0);
    busy_cycles_.assign(config_.banks, 0);
}

std::uint32_t
Dram::bankFor(Addr addr) const
{
    return static_cast<std::uint32_t>(
        (addr >> column_shift_) & (config_.banks - 1));
}

Addr
Dram::columnAddr(Addr addr) const
{
    return addr & ~static_cast<Addr>(config_.column_bytes - 1);
}

DramResult
Dram::access(Tick now, Addr addr)
{
    const std::uint32_t bank = bankFor(addr);
    DramResult result;
    result.bank = bank;

    const Tick start = std::max(now, ready_at_[bank]);
    result.queued = start - now;
    result.done = start + config_.access_cycles;
    // The bank is occupied for the access plus the precharge window.
    ready_at_[bank] = result.done + config_.precharge_cycles;
    busy_cycles_[bank] +=
        config_.access_cycles + config_.precharge_cycles;

    accesses_.inc();
    queued_.inc(result.queued);
    return result;
}

Tick
Dram::bankReadyAt(std::uint32_t bank) const
{
    MW_ASSERT(bank < config_.banks, "bank index out of range");
    return ready_at_[bank];
}

double
Dram::bankUtilisation(std::uint32_t bank, Tick window_end) const
{
    MW_ASSERT(bank < config_.banks, "bank index out of range");
    if (window_end == 0)
        return 0.0;
    return static_cast<double>(busy_cycles_[bank]) /
           static_cast<double>(window_end);
}

double
Dram::meanUtilisation(Tick window_end) const
{
    if (window_end == 0 || config_.banks == 0)
        return 0.0;
    std::uint64_t total = 0;
    for (auto busy : busy_cycles_)
        total += busy;
    return static_cast<double>(total) /
           (static_cast<double>(window_end) * config_.banks);
}

void
Dram::resetStats()
{
    std::fill(busy_cycles_.begin(), busy_cycles_.end(), 0);
    accesses_.reset();
    queued_.reset();
}

} // namespace memwall
