/**
 * @file
 * Per-transaction watchdog: turns protocol livelocks into staged,
 * diagnosable escalations.
 *
 * A transaction that keeps getting NACKed and retried is a livelock
 * candidate: the watchdog counts retries per transaction and
 * escalates when thresholds are crossed. Completed accesses whose
 * total latency is pathological are reported the same way.
 *
 * Escalation is staged per transaction: warn (a line on the dump
 * stream + recorder entry) -> dump (flight-recorder post-mortem) ->
 * fatal (handler; default MW_FATAL). Each stage fires at most once
 * per transaction, so a livelocked run produces one readable report,
 * not a log flood.
 */

#ifndef MEMWALL_VERIFY_WATCHDOG_HH
#define MEMWALL_VERIFY_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <unordered_map>

#include "common/types.hh"
#include "verify/flight_recorder.hh"

namespace memwall {

/** Escalation thresholds. */
struct WatchdogConfig
{
    /** Retries of one transaction before a warning. */
    unsigned warn_retries = 4;
    /** Retries before a flight-recorder dump. */
    unsigned dump_retries = 6;
    /** Retries before the fatal handler runs. */
    unsigned fatal_retries = 32;
    /** Completed-access latency (cycles) that triggers a warning. */
    Cycles warn_latency = 100'000;
    /** Completed-access latency that triggers the fatal handler. */
    Cycles fatal_latency = 1'000'000;
};

/** Watchdog over protocol transactions. */
class TransactionWatchdog
{
  public:
    using FatalHandler = std::function<void(const std::string &)>;

    /**
     * @param config    thresholds
     * @param recorder  optional flight recorder dumped at the dump
     *                  stage (and fed warn events)
     */
    explicit TransactionWatchdog(WatchdogConfig config = {},
                                 FlightRecorder *recorder = nullptr);

    /** Where dump-stage post-mortems go (default: std::cerr). */
    void setDumpStream(std::ostream &os) { dump_stream_ = &os; }

    /** Replace the fatal action (default: MW_FATAL). */
    void setFatalHandler(FatalHandler handler)
    {
        fatal_handler_ = std::move(handler);
    }

    /** Report the @p tries-th retry of @p cpu's transaction. */
    void onRetry(unsigned cpu, Addr block, unsigned tries);

    /** Report a completed access and its total latency. */
    void onComplete(unsigned cpu, Addr block, Cycles latency);

    // ---- Outcome counters -----------------------------------------
    std::uint64_t warnings() const { return warnings_; }
    std::uint64_t dumps() const { return dumps_; }
    std::uint64_t fatals() const { return fatals_; }

  private:
    /** Highest escalation stage already fired (0 = none). */
    enum Stage : std::uint8_t { None = 0, Warned, Dumped, Fataled };

    /** Escalate to @p target if not already there. */
    void escalate(Stage &stage, Stage target, unsigned node,
                  Addr block, const std::string &why);

    WatchdogConfig config_;
    FlightRecorder *recorder_;
    std::ostream *dump_stream_;
    FatalHandler fatal_handler_;
    /** Escalation stage of the current transaction per (cpu, block);
     * reset when a different block is reported. */
    std::unordered_map<unsigned, std::pair<Addr, Stage>> sync_stage_;
    std::uint64_t warnings_ = 0;
    std::uint64_t dumps_ = 0;
    std::uint64_t fatals_ = 0;
};

} // namespace memwall

#endif // MEMWALL_VERIFY_WATCHDOG_HH
