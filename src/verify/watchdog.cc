#include "verify/watchdog.hh"

#include <iostream>
#include <sstream>

#include "common/logging.hh"

namespace memwall {

TransactionWatchdog::TransactionWatchdog(WatchdogConfig config,
                                         FlightRecorder *recorder)
    : config_(config), recorder_(recorder),
      dump_stream_(&std::cerr)
{
}

void
TransactionWatchdog::escalate(Stage &stage, Stage target,
                              unsigned node, Addr block,
                              const std::string &why)
{
    // Fire every stage between the current one and the target, each
    // at most once per transaction.
    if (target >= Warned && stage < Warned) {
        stage = Warned;
        ++warnings_;
        // Warnings follow the dump stream (stderr by default) so a
        // harness that redirects diagnostics per sweep point keeps
        // its stdout/stderr deterministic under --jobs N.
        (*dump_stream_) << "warn: watchdog: " << why << "\n";
        if (recorder_)
            recorder_->record(node, FlightKind::WatchdogWarn, 0,
                              block, Warned);
    }
    if (target >= Dumped && stage < Dumped) {
        stage = Dumped;
        ++dumps_;
        if (recorder_) {
            recorder_->record(node, FlightKind::WatchdogWarn, 0,
                              block, Dumped);
            recorder_->dump(*dump_stream_, "watchdog: " + why);
        }
    }
    if (target >= Fataled && stage < Fataled) {
        stage = Fataled;
        ++fatals_;
        if (fatal_handler_)
            fatal_handler_(why);
        else
            MW_FATAL("watchdog: ", why);
    }
}

void
TransactionWatchdog::onRetry(unsigned cpu, Addr block,
                             unsigned tries)
{
    auto &[cur_block, stage] = sync_stage_[cpu];
    if (cur_block != block) {
        cur_block = block;
        stage = None;
    }
    Stage target = None;
    if (tries >= config_.fatal_retries)
        target = Fataled;
    else if (tries >= config_.dump_retries)
        target = Dumped;
    else if (tries >= config_.warn_retries)
        target = Warned;
    if (target == None)
        return;
    std::ostringstream os;
    os << "transaction by node " << cpu << " on block 0x"
       << std::hex << block << std::dec << " retried " << tries
       << " times (possible livelock)";
    escalate(stage, target, cpu, block, os.str());
}

void
TransactionWatchdog::onComplete(unsigned cpu, Addr block,
                                Cycles latency)
{
    // A completed transaction resets the per-cpu livelock stage.
    auto it = sync_stage_.find(cpu);
    if (it != sync_stage_.end())
        sync_stage_.erase(it);
    Stage target = None;
    if (latency >= config_.fatal_latency)
        target = Fataled;
    else if (latency >= config_.warn_latency)
        target = Warned;
    if (target == None)
        return;
    Stage stage = None;
    std::ostringstream os;
    os << "access by node " << cpu << " on block 0x" << std::hex
       << block << std::dec << " took " << latency << " cycles";
    escalate(stage, target, cpu, block, os.str());
}

} // namespace memwall
