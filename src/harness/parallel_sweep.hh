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
 * run must reproduce exactly.
 */

#ifndef MEMWALL_HARNESS_PARALLEL_SWEEP_HH
#define MEMWALL_HARNESS_PARALLEL_SWEEP_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

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
    /** Memoization probe: fill @p out and return true to skip the
     * point function entirely (resume from a journal). */
    using MemoLookupFn = std::function<bool(std::size_t, Result &)>;
    /** Called on the commit thread, in submission order, for every
     * computed (non-memoized) result just before its commit. */
    using MemoStoreFn =
        std::function<void(std::size_t, const Result &)>;

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

    ~ParallelSweep() { finish(); }

    ParallelSweep(const ParallelSweep &) = delete;
    ParallelSweep &operator=(const ParallelSweep &) = delete;

    /**
     * Attach resume memoization. A lookup hit replaces running the
     * point (its commit still runs, in order, with the memoized
     * result); every computed result is handed to @p store on the
     * commit thread in submission order — the crash-safe place to
     * journal it. Must be set before the first submit().
     */
    void
    setMemo(MemoLookupFn lookup, MemoStoreFn store)
    {
        MW_ASSERT(next_index_ == 0,
                  "memo hooks must be set before the first point");
        memo_lookup_ = std::move(lookup);
        memo_store_ = std::move(store);
    }

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

        Result memoized{};
        const bool from_memo =
            memo_lookup_ && memo_lookup_(ctx.index, memoized);

        if (!pool_) {
            if (from_memo) {
                commit(ctx, std::move(memoized));
            } else {
                Result r = fn(ctx);
                if (memo_store_)
                    memo_store_(ctx.index, r);
                commit(ctx, std::move(r));
            }
            ++committed_;
            return;
        }

        auto slot = std::make_unique<Slot>();
        slot->ctx = ctx;
        slot->commit = std::move(commit);
        slot->from_memo = from_memo;
        if (from_memo) {
            slot->result = std::move(memoized);
            slot->done = true;
        }
        Slot *raw = slot.get();
        {
            std::lock_guard<std::mutex> lock(mu_);
            slots_.push_back(std::move(slot));
        }
        if (!from_memo) {
            pool_->submit([this, raw, fn = std::move(fn)] {
                Result r = fn(raw->ctx);
                std::lock_guard<std::mutex> lock(mu_);
                raw->result = std::move(r);
                raw->done = true;
                done_cv_.notify_all();
            });
        }
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
    struct Slot
    {
        PointContext ctx;
        CommitFn commit;
        Result result{};
        bool done = false;  // guarded by mu_
        bool from_memo = false;
    };

    /**
     * Commit the contiguous prefix of completed points; with
     * @p wait, block until everything submitted has committed.
     */
    void
    drainReady(bool wait)
    {
        for (;;) {
            Slot *slot = nullptr;
            {
                std::unique_lock<std::mutex> lock(mu_);
                const std::size_t i = committed_;
                if (i >= slots_.size())
                    return;
                if (!slots_[i]->done) {
                    if (!wait)
                        return;
                    done_cv_.wait(
                        lock, [&] { return slots_[i]->done; });
                }
                slot = slots_[i].get();
            }
            // Commit outside the lock: commit functions may be slow
            // (formatting) and must never deadlock against workers
            // finishing later points. The memo store runs here too,
            // so journal appends happen in submission order on the
            // caller's thread.
            if (!slot->from_memo && memo_store_)
                memo_store_(slot->ctx.index, slot->result);
            slot->commit(slot->ctx, std::move(slot->result));
            std::lock_guard<std::mutex> lock(mu_);
            ++committed_;
            slots_[committed_ - 1].reset();
        }
    }

    std::uint64_t base_seed_;
    MemoLookupFn memo_lookup_;
    MemoStoreFn memo_store_;
    std::size_t next_index_ = 0;
    std::size_t committed_ = 0;
    std::unique_ptr<ThreadPool> pool_;
    std::mutex mu_;
    std::condition_variable done_cv_;
    std::vector<std::unique_ptr<Slot>> slots_;
};

} // namespace memwall

#endif // MEMWALL_HARNESS_PARALLEL_SWEEP_HH
