/**
 * @file
 * Thread pool for the experiment harness.
 *
 * All workers take tasks from one FIFO queue, so queued tasks START
 * in submission order: a later batch of work never overtakes an
 * earlier one, and a sweep's point 0 is never the last to begin.
 * Tasks may FINISH in any order; deterministic experiment output is
 * the job of ParallelSweep, which commits results in submission
 * order regardless of which worker finished first (see
 * parallel_sweep.hh).
 */

#ifndef MEMWALL_HARNESS_THREAD_POOL_HH
#define MEMWALL_HARNESS_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace memwall {

/**
 * Fixed-size pool of worker threads sharing one FIFO task queue.
 * Fire-and-forget: completion tracking belongs to the caller
 * (ParallelSweep keeps a future per point).
 */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** @param workers thread count; 0 = defaultWorkers(). */
    explicit ThreadPool(unsigned workers = 0);

    /** Waits for all submitted tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task; it starts after every task submitted
     *  before it has started. */
    void submit(Task task);

    /** Block until every submitted task has finished executing. */
    void waitIdle();

    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Number of tasks that exited via an exception. A fire-and-forget
     * pool has nowhere to rethrow, so a throwing task must never take
     * the worker thread (and with it the whole process) down: the
     * exception is caught, counted and warned about, and the worker
     * moves on to the next task. Callers that care about per-task
     * failure (the experiment service) catch inside their own
     * closures; this is the backstop for the ones that forget.
     */
    std::uint64_t taskExceptions() const;

    /** Hardware concurrency with a floor of 1. */
    static unsigned defaultWorkers();

  private:
    void workerLoop();

    mutable std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::deque<Task> queue_;       // guarded by mu_
    std::vector<std::thread> threads_;
    std::uint64_t in_flight_ = 0;  // queued + executing tasks
    std::uint64_t task_exceptions_ = 0;
    bool stopping_ = false;
};

} // namespace memwall

#endif // MEMWALL_HARNESS_THREAD_POOL_HH
