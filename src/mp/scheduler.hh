/**
 * @file
 * Deterministic execution-driven multiprocessor scheduler.
 *
 * The CacheMire-replacement (see DESIGN.md): SPLASH kernels run as
 * real C++ code, one stackful fiber per simulated CPU, all on the host
 * thread that calls run(). Exactly one simulated CPU executes at any
 * instant, so simulated machine state needs no locking. Every
 * simulated memory access charges its latency via advance(); when a
 * CPU runs more than a bounded quantum ahead of the slowest runnable
 * CPU, the execution token moves to the lowest (virtual time, cpu id)
 * runnable CPU. Scheduling is a pure function of the virtual
 * timeline, so runs are deterministic; the quantum bounds the timing
 * skew between interacting CPUs (quantum 0 = exact lowest-time-first
 * interleaving).
 */

#ifndef MEMWALL_MP_SCHEDULER_HH
#define MEMWALL_MP_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace memwall {

class MpScheduler;

/** Handle the workload body uses to interact with simulated time. */
class SimContext
{
  public:
    SimContext(MpScheduler &sched, unsigned cpu)
        : sched_(&sched), cpu_(cpu)
    {
    }

    /** Simulated CPU id (0-based). */
    unsigned cpuId() const { return cpu_; }

    /** Charge @p cycles of virtual time (may switch CPUs). */
    void advance(Cycles cycles);

    /** Current virtual time of this CPU. */
    Tick now() const;

    MpScheduler &scheduler() { return *sched_; }

  private:
    MpScheduler *sched_;
    unsigned cpu_;
};

/**
 * Lowest-virtual-time-first scheduler over fibers with a
 * bounded-skew quantum.
 */
class MpScheduler
{
  public:
    /**
     * @param ncpus   simulated processors
     * @param quantum cycles a CPU may run ahead of the slowest
     *                runnable CPU before yielding (0 = exact)
     */
    explicit MpScheduler(unsigned ncpus, Tick quantum = 64);
    ~MpScheduler();

    MpScheduler(const MpScheduler &) = delete;
    MpScheduler &operator=(const MpScheduler &) = delete;

    /**
     * Run @p body once per CPU to completion, every CPU on its own
     * fiber on the calling thread. Panics if a CPU is still blocked
     * when the last runnable CPU finishes, or if @p body throws.
     * @return the makespan (max final virtual time).
     */
    Tick run(const std::function<void(SimContext &)> &body);

    unsigned ncpus() const { return ncpus_; }
    Tick quantum() const { return quantum_; }

    /**
     * Change the skew quantum mid-run. The sampled-simulation layer
     * inflates the quantum during fast-forward stretches (timing
     * fidelity is not being measured there) and restores it for
     * warming/detail units. Scheduling remains a pure function of the
     * virtual timeline — the quantum switch itself happens at
     * deterministic points of that timeline — so runs stay
     * reproducible. Must be called by the running CPU (or before
     * run()).
     */
    void setQuantum(Tick quantum);

    /** Final virtual time of @p cpu after run(). */
    Tick cpuTime(unsigned cpu) const { return timeOf(cpu); }

    // --- Interface for SimContext and the sync primitives ----------

    /** Charge time to @p cpu; yields when too far ahead. */
    void
    advance(unsigned cpu, Cycles cycles)
    {
        if (cpu != running_) [[unlikely]]
            notRunning(cpu, "advance");
        time_[cpu] += cycles;
        if (time_[cpu] > limit_) [[unlikely]]
            yield();
    }

    /** Current virtual time of @p cpu. */
    Tick
    timeOf(unsigned cpu) const
    {
        MW_ASSERT(cpu < ncpus_, "bad cpu id");
        return time_[cpu];
    }

    /**
     * Block the calling CPU until another CPU calls unblock() on
     * it. Must be called by @p cpu itself while it holds the
     * execution token.
     */
    void block(unsigned cpu);

    /**
     * Mark @p cpu runnable again with its clock advanced to at
     * least @p at. The caller KEEPS the execution token; the woken
     * CPU runs when the token next reaches it.
     */
    void unblock(unsigned cpu, Tick at);

  private:
    enum class State : std::uint8_t { Runnable, Blocked, Finished };
    struct Fibers;

    static void fiberEntry(void *arg);
    /** Run the body on @p cpu's fiber, then pass the token on. */
    [[noreturn]] void runCpu(unsigned cpu);
    [[noreturn]] void notRunning(unsigned cpu, const char *what) const;
    /** Index of the minimum-(time, id) runnable CPU, or ncpus_. */
    unsigned lowestRunnable() const;
    /** Recompute limit_ for the running CPU. */
    void refreshLimit();
    /** Hand the token to the lowest runnable CPU. */
    void yield();
    /** Make @p next the running CPU and switch to its fiber. */
    void switchTo(unsigned next);

    unsigned ncpus_;
    Tick quantum_;
    std::vector<Tick> time_;
    std::vector<State> state_;
    /** CPU holding the execution token; ncpus_ outside run(). */
    unsigned running_;
    /**
     * advance() yields once the running CPU's time exceeds this: the
     * lowest time of the other runnable CPUs plus the quantum. Only a
     * token transfer, unblock() or setQuantum() can change it.
     */
    Tick limit_;
    const std::function<void(SimContext &)> *body_ = nullptr;
    std::unique_ptr<Fibers> fibers_;
};

inline void
SimContext::advance(Cycles cycles)
{
    sched_->advance(cpu_, cycles);
}

inline Tick
SimContext::now() const
{
    return sched_->timeOf(cpu_);
}

} // namespace memwall

#endif // MEMWALL_MP_SCHEDULER_HH
