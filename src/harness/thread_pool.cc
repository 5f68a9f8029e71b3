#include "harness/thread_pool.hh"

#include <exception>

#include "common/logging.hh"

namespace memwall {

unsigned
ThreadPool::defaultWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::ThreadPool(unsigned workers)
{
    if (workers == 0)
        workers = defaultWorkers();
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    waitIdle();
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

void
ThreadPool::submit(Task task)
{
    MW_ASSERT(task, "cannot submit an empty task");
    {
        std::lock_guard<std::mutex> lock(mu_);
        MW_ASSERT(!stopping_, "submit() on a stopping pool");
        queue_.push_back(std::move(task));
        ++in_flight_;
    }
    work_cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        work_cv_.wait(lock,
                      [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stopping, and nothing left to run
        Task task = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        bool threw = false;
        try {
            task();
        } catch (const std::exception &e) {
            threw = true;
            MW_WARN("thread pool task threw: ", e.what());
        } catch (...) {
            threw = true;
            MW_WARN("thread pool task threw a non-std exception");
        }
        // Release the closure before reporting completion so any
        // captured state dies before waitIdle() returns.
        task = nullptr;
        lock.lock();
        if (threw)
            ++task_exceptions_;
        if (--in_flight_ == 0)
            idle_cv_.notify_all();
    }
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

std::uint64_t
ThreadPool::taskExceptions() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return task_exceptions_;
}

} // namespace memwall
