/**
 * @file
 * Tests of the parallel experiment harness: the FIFO ThreadPool,
 * the order-preserving ParallelSweep, per-point seed
 * derivation, and — the property the figure/table binaries rely on —
 * that a parallel sweep over real simulation points produces results
 * identical to the serial reference run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/parallel_sweep.hh"
#include "harness/thread_pool.hh"
#include "workloads/missrate.hh"
#include "workloads/spec_suite.hh"

using namespace memwall;

namespace {

TEST(PointSeed, DeterministicAndDistinct)
{
    EXPECT_EQ(pointSeed(42, 0), pointSeed(42, 0));
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seeds.insert(pointSeed(42, i));
    EXPECT_EQ(seeds.size(), 1000u) << "adjacent indices must map to "
                                      "distinct seeds";
    EXPECT_NE(pointSeed(42, 5), pointSeed(43, 5))
        << "seed must depend on the base seed";
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&count] {
            count.fetch_add(1, std::memory_order_relaxed);
        });
    pool.waitIdle();
    EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, TinyTaskStressRunsEveryTask)
{
    // Thousands of near-empty tasks force workers through the
    // submit/take machinery far more often than they compute.
    ThreadPool pool(4);
    std::atomic<std::uint64_t> sum{0};
    constexpr int tasks = 8000;
    for (int i = 0; i < tasks; ++i)
        pool.submit([&sum, i] {
            sum.fetch_add(static_cast<std::uint64_t>(i),
                          std::memory_order_relaxed);
        });
    pool.waitIdle();
    EXPECT_EQ(sum.load(),
              static_cast<std::uint64_t>(tasks) * (tasks - 1) / 2);
}

TEST(ThreadPool, QueuedTasksStartInSubmissionOrder)
{
    // With every worker busy, queued work must start first-in first-
    // out: a later server batch may not overtake earlier requests'
    // units, and a sweep's point 0 may not start last.
    for (const unsigned workers : {1u, 2u}) {
        std::mutex mu;
        std::condition_variable cv;
        std::vector<int> started;
        int permits = 0;
        // Each task logs its start, then holds its worker until the
        // test hands out a permit, so exactly one worker frees up at
        // a time and the next start is the queue's next pop.
        const auto task = [&](int id) {
            return [&, id] {
                std::unique_lock<std::mutex> lock(mu);
                started.push_back(id);
                cv.notify_all();
                cv.wait(lock, [&] { return permits > 0; });
                --permits;
            };
        };
        ThreadPool pool(workers);
        std::unique_lock<std::mutex> lock(mu);
        for (unsigned w = 0; w < workers; ++w)
            pool.submit(task(-1));
        cv.wait(lock, [&] { return started.size() == workers; });
        lock.unlock();
        constexpr int queued = 8;
        for (int i = 0; i < queued; ++i)
            pool.submit(task(i));
        lock.lock();
        for (int i = 0; i < queued; ++i) {
            ++permits;
            cv.notify_all();
            cv.wait(lock, [&] {
                return started.size() == workers + i + 1;
            });
        }
        permits += static_cast<int>(workers);
        cv.notify_all();
        lock.unlock();
        pool.waitIdle();

        const std::vector<int> order(started.begin() + workers,
                                     started.end());
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}))
            << workers << " worker(s)";
    }
}

TEST(ThreadPool, WaitIdleIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&count] { ++count; });
        pool.waitIdle();
        EXPECT_EQ(count.load(), 50 * (round + 1));
    }
}

TEST(ParallelSweep, CommitsInSubmissionOrder)
{
    // Points deliberately finish out of order (earlier points sleep
    // longer); commits must still observe index order.
    ParallelSweep<int> sweep(/*jobs=*/8, /*base_seed=*/1);
    std::vector<std::size_t> commit_order;
    constexpr int points = 16;
    for (int p = 0; p < points; ++p) {
        sweep.submit(
            [p](const PointContext &) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds((points - p) % 5));
                return p * p;
            },
            [&commit_order](const PointContext &ctx, int v) {
                EXPECT_EQ(v, static_cast<int>(ctx.index * ctx.index));
                commit_order.push_back(ctx.index);
            });
    }
    sweep.finish();
    ASSERT_EQ(commit_order.size(), static_cast<std::size_t>(points));
    for (std::size_t i = 0; i < commit_order.size(); ++i)
        EXPECT_EQ(commit_order[i], i);
    EXPECT_EQ(sweep.submitted(), static_cast<std::size_t>(points));
    EXPECT_EQ(sweep.committed(), static_cast<std::size_t>(points));
}

TEST(ParallelSweep, SerialModeRunsInlineAtSubmit)
{
    ParallelSweep<int> sweep(/*jobs=*/1, /*base_seed=*/9);
    int committed = 0;
    sweep.submit([](const PointContext &ctx) {
        return static_cast<int>(ctx.index) + 100;
    },
                 [&committed](const PointContext &, int v) {
                     EXPECT_EQ(v, 100);
                     ++committed;
                 });
    // With jobs == 1 the commit happens before submit() returns.
    EXPECT_EQ(committed, 1);
    sweep.finish();
}

TEST(ParallelSweep, PointSeedsMatchPointSeedFunction)
{
    constexpr std::uint64_t base = 777;
    ParallelSweep<std::uint64_t> sweep(/*jobs=*/4, base);
    for (int p = 0; p < 8; ++p)
        sweep.submit(
            [](const PointContext &ctx) { return ctx.seed; },
            [](const PointContext &ctx, std::uint64_t seed) {
                EXPECT_EQ(seed, pointSeed(base, ctx.index));
            });
    sweep.finish();
}

/** Run the fig7/fig8 sweep body over a few workloads. */
std::vector<WorkloadMissRates>
sweepMissRates(unsigned jobs)
{
    MissRateParams params;
    params.measured_refs = 20'000;
    params.warmup_refs = 5'000;
    std::vector<WorkloadMissRates> out;
    ParallelSweep<WorkloadMissRates> sweep(jobs, /*base_seed=*/42);
    for (const char *name : {"099.go", "126.gcc", "102.swim"}) {
        const SpecWorkload &w = findWorkload(name);
        sweep.submit(
            [&w, &params](const PointContext &) {
                return measureMissRates(w, params);
            },
            [&out](const PointContext &, WorkloadMissRates rates) {
                out.push_back(std::move(rates));
            });
    }
    sweep.finish();
    return out;
}

TEST(ParallelSweep, RealPointsIdenticalAcrossJobCounts)
{
    // The guarantee the figure/table binaries print in their --help:
    // any --jobs N reproduces the --jobs 1 output exactly.
    const auto serial = sweepMissRates(1);
    const auto parallel = sweepMissRates(8);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].workload, parallel[i].workload);
        ASSERT_EQ(serial[i].icaches.size(),
                  parallel[i].icaches.size());
        ASSERT_EQ(serial[i].dcaches.size(),
                  parallel[i].dcaches.size());
        for (std::size_t c = 0; c < serial[i].icaches.size(); ++c) {
            EXPECT_EQ(serial[i].icaches[c].stats.accesses(),
                      parallel[i].icaches[c].stats.accesses());
            EXPECT_EQ(serial[i].icaches[c].stats.misses(),
                      parallel[i].icaches[c].stats.misses());
        }
        for (std::size_t c = 0; c < serial[i].dcaches.size(); ++c) {
            EXPECT_EQ(serial[i].dcaches[c].stats.accesses(),
                      parallel[i].dcaches[c].stats.accesses());
            EXPECT_EQ(serial[i].dcaches[c].stats.misses(),
                      parallel[i].dcaches[c].stats.misses());
        }
    }
}

// --- Shutdown edge cases the experiment service depends on -------

TEST(ThreadPool, DestructionDrainsQueuedButUnstartedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        // Far more tasks than workers: most are still queued when
        // the destructor starts. It must run them all, not drop them.
        for (int i = 0; i < 200; ++i)
            pool.submit([&ran] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                ++ran;
            });
    }
    EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, ThrowingTaskDoesNotKillWorkerOrPool)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.submit([] { throw std::runtime_error("boom"); });
    pool.submit([] { throw 42; }); // non-std exception
    for (int i = 0; i < 50; ++i)
        pool.submit([&ran] { ++ran; });
    pool.waitIdle();
    EXPECT_EQ(pool.taskExceptions(), 2u);
    EXPECT_EQ(ran.load(), 50);
    // The pool is still fully operational after the exceptions.
    pool.submit([&ran] { ++ran; });
    pool.waitIdle();
    EXPECT_EQ(ran.load(), 51);
}

TEST(ThreadPool, ReentrantSubmitFromWorkerCompletesBeforeShutdown)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        // Each task spawns a child from inside the worker; the chain
        // must be fully executed before the destructor returns, and
        // the re-entrant submit must not deadlock on the pool lock.
        std::function<void(int)> chain = [&](int depth) {
            ++ran;
            if (depth > 0)
                pool.submit([&chain, depth] { chain(depth - 1); });
        };
        for (int i = 0; i < 8; ++i)
            pool.submit([&chain] { chain(10); });
        pool.waitIdle();
    }
    EXPECT_EQ(ran.load(), 8 * 11);
}

TEST(ThreadPool, ReentrantSubmitDuringDestructorDrain)
{
    // A queued task that itself submits while the destructor is
    // draining: in_flight_ stays nonzero until the child finishes,
    // so waitIdle() in the destructor covers it.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        pool.submit([&] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
            pool.submit([&ran] { ++ran; });
        });
    }
    EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelSweep, ManyMorePointsThanWorkers)
{
    ParallelSweep<std::size_t> sweep(/*jobs=*/3, /*base_seed=*/5);
    std::vector<std::size_t> results;
    constexpr std::size_t points = 200;
    for (std::size_t p = 0; p < points; ++p)
        sweep.submit(
            [](const PointContext &ctx) { return ctx.index * 3; },
            [&results](const PointContext &, std::size_t v) {
                results.push_back(v);
            });
    sweep.finish();
    ASSERT_EQ(results.size(), points);
    for (std::size_t i = 0; i < points; ++i)
        EXPECT_EQ(results[i], i * 3);
}

} // namespace
