/**
 * @file
 * Test-only oracle for MpScheduler: the same lowest-(virtual time,
 * cpu id)-first schedule with a bounded-skew quantum, run on one host
 * thread per simulated CPU. An explicit execution token passes between
 * the threads under a mutex with one condition variable per CPU, so
 * exactly one CPU runs at any instant. Every advance() scans all CPUs
 * for the slowest runnable peer; nothing is cached. The lockstep tests
 * check that MpScheduler's fibers produce the same schedule.
 */

#ifndef MEMWALL_TESTS_THREADED_REFERENCE_SCHEDULER_HH
#define MEMWALL_TESTS_THREADED_REFERENCE_SCHEDULER_HH

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace memwall {

class ThreadedReferenceScheduler
{
  public:
    explicit ThreadedReferenceScheduler(unsigned ncpus, Tick quantum = 64)
        : ncpus_(ncpus), quantum_(quantum), cvs_(ncpus),
          time_(ncpus, 0), state_(ncpus, State::Finished)
    {
        MW_ASSERT(ncpus_ >= 1, "need at least one cpu");
    }

    ThreadedReferenceScheduler(const ThreadedReferenceScheduler &) =
        delete;
    ThreadedReferenceScheduler &
    operator=(const ThreadedReferenceScheduler &) = delete;

    /** Run @p body(cpu) once per CPU; @return the makespan. */
    Tick
    run(const std::function<void(unsigned)> &body)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            MW_ASSERT(!running_, "scheduler already running");
            running_ = true;
            std::fill(time_.begin(), time_.end(), 0);
            std::fill(state_.begin(), state_.end(), State::Runnable);
            running_cpu_ = -1;
        }

        std::vector<std::thread> threads;
        threads.reserve(ncpus_);
        for (unsigned cpu = 0; cpu < ncpus_; ++cpu) {
            threads.emplace_back([this, cpu, &body] {
                {
                    std::unique_lock<std::mutex> lock(mutex_);
                    waitForToken(lock, cpu);
                }
                body(cpu);
                {
                    std::unique_lock<std::mutex> lock(mutex_);
                    state_[cpu] = State::Finished;
                    transferToken();
                }
            });
        }
        // Hand the token to the first CPU.
        {
            std::unique_lock<std::mutex> lock(mutex_);
            transferToken();
        }
        for (auto &t : threads)
            t.join();

        Tick makespan = 0;
        std::unique_lock<std::mutex> lock(mutex_);
        running_ = false;
        for (unsigned i = 0; i < ncpus_; ++i) {
            MW_ASSERT(state_[i] == State::Finished,
                      "cpu ", i, " did not finish");
            makespan = std::max(makespan, time_[i]);
        }
        return makespan;
    }

    Tick
    timeOf(unsigned cpu) const
    {
        std::unique_lock<std::mutex> lock(mutex_);
        MW_ASSERT(cpu < ncpus_, "bad cpu id");
        return time_[cpu];
    }

    Tick cpuTime(unsigned cpu) const { return timeOf(cpu); }

    void
    advance(unsigned cpu, Cycles cycles)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        MW_ASSERT(cpu < ncpus_, "bad cpu id");
        MW_ASSERT(running_cpu_ == static_cast<int>(cpu),
                  "advance without the execution token");
        time_[cpu] += cycles;

        // Keep the token while within the skew quantum of the slowest
        // runnable peer.
        const int min = minRunnable();
        if (min < 0 || min == static_cast<int>(cpu) ||
            time_[cpu] <= time_[min] + quantum_)
            return;
        transferToken();
        waitForToken(lock, cpu);
    }

    void
    block(unsigned cpu)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        MW_ASSERT(running_cpu_ == static_cast<int>(cpu),
                  "block without the execution token");
        state_[cpu] = State::Blocked;
        if (minRunnable() < 0)
            MW_PANIC("MP workload deadlock: cpu ", cpu,
                     " blocked and no peer is runnable");
        transferToken();
        // Wait until someone unblocks us AND the token reaches us.
        cvs_[cpu].wait(lock, [&] {
            return running_cpu_ == static_cast<int>(cpu) &&
                   state_[cpu] == State::Runnable;
        });
    }

    void
    unblock(unsigned cpu, Tick at)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        MW_ASSERT(cpu < ncpus_, "bad cpu id");
        MW_ASSERT(state_[cpu] == State::Blocked,
                  "unblocking a cpu that is not blocked");
        time_[cpu] = std::max(time_[cpu], at);
        state_[cpu] = State::Runnable;
    }

  private:
    enum class State { Runnable, Blocked, Finished };

    /** Index of the minimum-time runnable CPU, or -1. */
    int
    minRunnable() const
    {
        int best = -1;
        for (unsigned i = 0; i < ncpus_; ++i) {
            if (state_[i] != State::Runnable)
                continue;
            if (best < 0 || time_[i] < time_[best])
                best = static_cast<int>(i);
        }
        return best;
    }

    /** Hand the token to the minimum-time runnable CPU. */
    void
    transferToken()
    {
        const int next = minRunnable();
        running_cpu_ = next;
        if (next >= 0)
            cvs_[next].notify_one();
    }

    void
    waitForToken(std::unique_lock<std::mutex> &lock, unsigned cpu)
    {
        cvs_[cpu].wait(lock, [&] {
            return running_cpu_ == static_cast<int>(cpu);
        });
    }

    const unsigned ncpus_;
    /** Guards every member below it. */
    mutable std::mutex mutex_;
    Tick quantum_;
    std::vector<std::condition_variable> cvs_;
    std::vector<Tick> time_;
    std::vector<State> state_;
    /** CPU currently holding the execution token, or -1. */
    int running_cpu_ = -1;
    bool running_ = false;
};

} // namespace memwall

#endif // MEMWALL_TESTS_THREADED_REFERENCE_SCHEDULER_HH
