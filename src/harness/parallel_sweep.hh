/**
 * @file
 * Deterministic parallel experiment runner.
 *
 * Every table/figure binary is a sweep over independent
 * (workload x configuration x seed) simulation points. ParallelSweep
 * executes the points concurrently on a ThreadPool (which starts
 * them in submission order but may finish them in any order) and
 * COMMITS their results strictly in submission order on the caller's
 * thread, so the produced tables are byte-for-byte identical to a
 * serial run:
 *
 *   - each point receives its own RNG seed derived from
 *     (base seed, point index) via pointSeed(), never from a shared
 *     generator whose draw order would depend on scheduling;
 *   - point functions receive only their PointContext and must not
 *     touch shared mutable state;
 *   - commit functions run only on the thread calling submit()/
 *     finish(), one at a time, in index order.
 *
 * With jobs == 1 no threads are created and every point runs
 * inline at submit() — the serial reference behaviour the parallel
 * run must reproduce exactly, failures included: a point's exception
 * reaches the caller when the in-order commit reaches the point.
 */

#ifndef MEMWALL_HARNESS_PARALLEL_SWEEP_HH
#define MEMWALL_HARNESS_PARALLEL_SWEEP_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <utility>

#include "common/logging.hh"
#include "harness/thread_pool.hh"

namespace memwall {

/** Everything a simulation point may depend on besides its inputs. */
struct PointContext
{
    /** Submission index (0-based, canonical output order). */
    std::size_t index = 0;
    /** Per-point seed: splitmix64-style mix of (base seed, index). */
    std::uint64_t seed = 0;
};

/**
 * Derive the RNG seed of point @p index from @p base_seed. The mix is
 * a fixed function of both arguments, so any execution order — or a
 * rerun of a single point in isolation — sees the same stream.
 */
inline std::uint64_t
pointSeed(std::uint64_t base_seed, std::uint64_t index)
{
    std::uint64_t x =
        base_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Order-preserving parallel sweep producing @p Result per point.
 *
 * Usage:
 * @code
 *   ParallelSweep<Row> sweep(opt.jobs, opt.seed);
 *   for (const auto &w : specSuite())
 *       sweep.submit(
 *           [&w](const PointContext &ctx) { return simulate(w, ctx); },
 *           [&table](const PointContext &, Row row) {
 *               table.addRow(std::move(row));
 *           });
 *   sweep.finish();
 * @endcode
 */
template <typename Result>
class ParallelSweep
{
  public:
    using PointFn = std::function<Result(const PointContext &)>;
    using CommitFn = std::function<void(const PointContext &, Result)>;

    /**
     * @param jobs      worker count; 1 = run serially inline, 0 = one
     *                  per hardware thread
     * @param base_seed seed the per-point streams derive from
     */
    explicit ParallelSweep(unsigned jobs = 0, std::uint64_t base_seed = 42)
        : base_seed_(base_seed)
    {
        if (jobs == 0)
            jobs = ThreadPool::defaultWorkers();
        if (jobs > 1)
            pool_ = std::make_unique<ThreadPool>(jobs);
    }

    /** Commits what is left; a failure no finish() reported is only
     *  warned about, as a destructor must not throw. pool_'s
     *  destructor then waits for every running point. */
    ~ParallelSweep()
    {
        try {
            finish();
        } catch (const std::exception &e) {
            MW_WARN("sweep point failed unreported: ", e.what());
        } catch (...) {
            MW_WARN("sweep point failed unreported: non-std exception");
        }
    }

    ParallelSweep(const ParallelSweep &) = delete;
    ParallelSweep &operator=(const ParallelSweep &) = delete;

    /**
     * Register point number index() and start it (or, serially, run
     * it to completion right here). Earlier points whose results have
     * arrived are committed before submit returns, so output streams
     * while later points still run.
     */
    void
    submit(PointFn fn, CommitFn commit)
    {
        PointContext ctx;
        ctx.index = next_index_++;
        ctx.seed = pointSeed(base_seed_, ctx.index);

        if (!pool_) {
            commit(ctx, fn(ctx));
            ++committed_;
            return;
        }

        // The task owns the point and its result slot, so it never
        // touches the sweep; a throw is stored in the future.
        auto task = std::make_shared<std::packaged_task<Result()>>(
            [fn = std::move(fn), ctx] { return fn(ctx); });
        pending_.push_back({ctx, std::move(commit), task->get_future()});
        pool_->submit([task] { (*task)(); });
        drainReady(/*wait=*/false);
    }

    /** Points submitted so far. */
    std::size_t submitted() const { return next_index_; }

    /** Points whose commit function has run. */
    std::size_t committed() const { return committed_; }

    /**
     * Wait for every outstanding point and commit the remainder in
     * submission order. Idempotent; also called by the destructor.
     */
    void
    finish()
    {
        if (pool_)
            drainReady(/*wait=*/true);
    }

  private:
    struct Pending
    {
        PointContext ctx;
        CommitFn commit;
        std::future<Result> result;
    };

    /**
     * Commit the contiguous prefix of completed points; with
     * @p wait, block until everything submitted has committed. A
     * failed point's exception is rethrown here, and the points after
     * it are dropped uncommitted.
     */
    void
    drainReady(bool wait)
    {
        while (!pending_.empty()) {
            if (!wait && pending_.front().result.wait_for(
                             std::chrono::seconds(0)) !=
                             std::future_status::ready)
                return;
            Pending point = std::move(pending_.front());
            pending_.pop_front();
            Result result{};
            try {
                result = point.result.get();
            } catch (...) {
                pending_.clear();
                throw;
            }
            point.commit(point.ctx, std::move(result));
            ++committed_;
        }
    }

    std::uint64_t base_seed_;
    std::size_t next_index_ = 0;
    std::size_t committed_ = 0;
    std::deque<Pending> pending_;
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace memwall

#endif // MEMWALL_HARNESS_PARALLEL_SWEEP_HH
