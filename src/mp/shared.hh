/**
 * @file
 * Shared-memory runtime for the SPLASH kernels.
 *
 * MpRuntime bundles a NumaMachine (timing + coherence), an
 * MpScheduler (virtual time) and a bump allocator over the machine's
 * shared address space. SharedArray<T> stores real values in host
 * memory — the kernels compute real results — while every element
 * access charges the machine's latency for the corresponding
 * simulated address (execution-driven simulation of data references
 * only, exactly the paper's methodology in Section 6.1).
 */

#ifndef MEMWALL_MP_SHARED_HH
#define MEMWALL_MP_SHARED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coherence/numa.hh"
#include "mp/scheduler.hh"
#include "mp/sync.hh"

namespace memwall {

/** Scheduler + machine + allocator bundle. */
class MpRuntime
{
  public:
    MpRuntime(unsigned ncpus, NumaConfig machine_config);

    MpScheduler &scheduler() { return sched_; }
    NumaMachine &machine() { return machine_; }
    unsigned ncpus() const { return sched_.ncpus(); }

    /**
     * Reserve @p bytes of simulated shared address space.
     * Allocations are page-aligned so home-node interleaving is
     * predictable.
     */
    Addr allocate(std::uint64_t bytes, const std::string &name = "");

    /** Run @p body on every CPU; @return the makespan in cycles. */
    Tick run(const std::function<void(SimContext &)> &body)
    {
        return sched_.run(body);
    }

    /** Charge one simulated access and advance the caller's clock. */
    void
    access(SimContext &ctx, Addr addr, bool store)
    {
        ctx.advance(
            machine_.access(ctx.cpuId(), addr, store, ctx.now()));
    }

  private:
    MpScheduler sched_;
    NumaMachine machine_;
    Addr next_addr_ = 0x10000000;
};

/**
 * Typed shared array: real data, simulated timing.
 */
template <typename T>
class SharedArray
{
  public:
    SharedArray(MpRuntime &rt, std::size_t n,
                const std::string &name = "array")
        : rt_(&rt), base_(rt.allocate(n * sizeof(T), name)),
          data_(n)
    {
    }

    std::size_t size() const { return data_.size(); }
    Addr addrOf(std::size_t i) const { return base_ + i * sizeof(T); }

    /** Simulated read of element @p i. */
    T
    read(SimContext &ctx, std::size_t i) const
    {
        rt_->access(ctx, addrOf(i), false);
        return data_[i];
    }

    /** Simulated write of element @p i. */
    void
    write(SimContext &ctx, std::size_t i, T value)
    {
        rt_->access(ctx, addrOf(i), true);
        data_[i] = value;
    }

    /** Read-modify-write helper. */
    template <typename Fn>
    void
    update(SimContext &ctx, std::size_t i, Fn &&fn)
    {
        T v = read(ctx, i);
        write(ctx, i, fn(v));
    }

    /** Host-side access WITHOUT timing (initialisation only). */
    T &raw(std::size_t i) { return data_[i]; }
    const T &raw(std::size_t i) const { return data_[i]; }

  private:
    MpRuntime *rt_;
    Addr base_;
    std::vector<T> data_;
};

} // namespace memwall

#endif // MEMWALL_MP_SHARED_HH
