#include "mp/scheduler.hh"

#include <algorithm>
#include <exception>

#include "mp/fiber.hh"

namespace memwall {

struct MpScheduler::Fibers
{
    using Context = fiber::Context<fiber::NativeSwitch>;

    struct Cpu
    {
        fiber::Stack stack;
        Context context{stack};
    };

    std::unique_ptr<Cpu[]> cpus;
    /** The thread inside run(), resumed when the fibers are done. */
    Context *host = nullptr;
};

MpScheduler::MpScheduler(unsigned ncpus, Tick quantum)
    : ncpus_(ncpus), quantum_(quantum), time_(ncpus, 0),
      state_(ncpus, State::Finished), running_(ncpus), limit_(max_tick),
      fibers_(std::make_unique<Fibers>())
{
    MW_ASSERT(ncpus_ >= 1, "need at least one cpu");
    fibers_->cpus = std::make_unique<Fibers::Cpu[]>(ncpus_);
}

MpScheduler::~MpScheduler() = default;

unsigned
MpScheduler::lowestRunnable() const
{
    unsigned best = ncpus_;
    for (unsigned i = 0; i < ncpus_; ++i) {
        if (state_[i] != State::Runnable)
            continue;
        if (best == ncpus_ || time_[i] < time_[best])
            best = i;
    }
    return best;
}

void
MpScheduler::refreshLimit()
{
    Tick lowest = max_tick;
    for (unsigned i = 0; i < ncpus_; ++i)
        if (i != running_ && state_[i] == State::Runnable)
            lowest = std::min(lowest, time_[i]);
    limit_ = lowest > max_tick - quantum_ ? max_tick : lowest + quantum_;
}

void
MpScheduler::switchTo(unsigned next)
{
    Fibers::Context &from = fibers_->cpus[running_].context;
    running_ = next;
    refreshLimit();
    from.switchTo(fibers_->cpus[next].context);
}

void
MpScheduler::yield()
{
    // The running CPU is past the limit, so a peer is lower.
    switchTo(lowestRunnable());
}

void
MpScheduler::notRunning(unsigned cpu, const char *what) const
{
    MW_ASSERT(cpu < ncpus_, "bad cpu id");
    MW_PANIC(what, " without the execution token (cpu ", cpu, ")");
}

void
MpScheduler::setQuantum(Tick quantum)
{
    quantum_ = quantum;
    refreshLimit();
}

void
MpScheduler::block(unsigned cpu)
{
    if (cpu != running_)
        notRunning(cpu, "block");
    state_[cpu] = State::Blocked;
    const unsigned next = lowestRunnable();
    if (next == ncpus_)
        MW_PANIC("MP workload deadlock: cpu ", cpu,
                 " blocked and no peer is runnable");
    switchTo(next);
}

void
MpScheduler::unblock(unsigned cpu, Tick at)
{
    MW_ASSERT(cpu < ncpus_, "bad cpu id");
    MW_ASSERT(state_[cpu] == State::Blocked,
              "unblocking a cpu that is not blocked");
    time_[cpu] = std::max(time_[cpu], at);
    state_[cpu] = State::Runnable;
    // No token transfer: the caller continues; the woken CPU gets
    // the token at the caller's next yield point.
    refreshLimit();
}

void
MpScheduler::fiberEntry(void *sched)
{
    // run() and switchTo() make a CPU the running one before entering
    // its fiber.
    auto &self = *static_cast<MpScheduler *>(sched);
    self.runCpu(self.running_);
}

void
MpScheduler::runCpu(unsigned cpu)
{
    // Unwinding must stop here: above this frame is the fiber's
    // trampoline.
    try {
        SimContext ctx(*this, cpu);
        (*body_)(ctx);
    } catch (const std::exception &e) {
        MW_PANIC("cpu ", cpu, " body threw: ", e.what());
    } catch (...) {
        MW_PANIC("cpu ", cpu, " body threw a non-std::exception");
    }
    state_[cpu] = State::Finished;
    running_ = lowestRunnable();
    refreshLimit();
    fibers_->cpus[cpu].context.exitTo(
        running_ < ncpus_ ? fibers_->cpus[running_].context
                          : *fibers_->host);
}

Tick
MpScheduler::run(const std::function<void(SimContext &)> &body)
{
    MW_ASSERT(!body_, "scheduler already running");
    std::fill(time_.begin(), time_.end(), 0);
    std::fill(state_.begin(), state_.end(), State::Runnable);
    Fibers::Context host;
    fibers_->host = &host;
    body_ = &body;
    for (unsigned cpu = 0; cpu < ncpus_; ++cpu)
        fibers_->cpus[cpu].context.start(&MpScheduler::fiberEntry, this);
    // Every clock reads 0, so CPU 0 is the lowest.
    running_ = 0;
    refreshLimit();
    host.switchTo(fibers_->cpus[0].context);

    // Back on this thread: no CPU is runnable any more.
    body_ = nullptr;
    fibers_->host = nullptr;
    Tick makespan = 0;
    for (unsigned i = 0; i < ncpus_; ++i) {
        if (state_[i] == State::Blocked)
            MW_PANIC("MP workload deadlock: cpu ", i,
                     " is still blocked after the last runnable cpu "
                     "finished");
        makespan = std::max(makespan, time_[i]);
    }
    return makespan;
}

} // namespace memwall
