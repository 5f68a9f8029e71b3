#include "io/refresh.hh"

#include "common/logging.hh"

namespace memwall {

RefreshAgent::RefreshAgent(RefreshConfig config,
                           const DramConfig &dram)
    : config_(config), banks_(dram.banks),
      column_bytes_(dram.column_bytes)
{
    MW_ASSERT(config_.rows_per_bank > 0, "need at least one row");
    MW_ASSERT(config_.max_per_call > 0,
              "refresh drain cap must be positive");
    const double window_cycles =
        config_.interval_ms * 1e-3 * config_.clock_mhz * 1e6;
    const double total_rows =
        static_cast<double>(config_.rows_per_bank) * banks_;
    interval_ = window_cycles / total_rows;
    MW_ASSERT(interval_ >= 1.0,
              "refresh rate exceeds one per cycle");
}

unsigned
RefreshAgent::drainUpTo(Dram &dram, Tick now)
{
    unsigned issued = 0;
    while (next_due_ <= static_cast<double>(now) &&
           issued < config_.max_per_call) {
        // Rotate across banks; the row within the bank is
        // irrelevant to timing, so address by bank stride.
        const std::uint32_t bank =
            static_cast<std::uint32_t>(rotor_ % banks_);
        const std::uint32_t row = static_cast<std::uint32_t>(
            rotor_ / banks_ % config_.rows_per_bank);
        const Addr addr =
            static_cast<Addr>(bank) * column_bytes_ +
            row * static_cast<Addr>(banks_) * column_bytes_;
        dram.access(static_cast<Tick>(next_due_), addr);
        issued_.inc();
        ++issued;
        ++rotor_;
        if (observer_)
            observer_->onRefresh(bank, row,
                                 static_cast<Tick>(next_due_));
        next_due_ += interval_;
    }
    return issued;
}

double
RefreshAgent::overheadFraction(const DramConfig &dram) const
{
    const double busy = static_cast<double>(dram.access_cycles +
                                            dram.precharge_cycles);
    return busy / (interval_ * banks_);
}

} // namespace memwall
