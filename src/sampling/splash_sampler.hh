/**
 * @file
 * SMARTS-style sampling of the execution-driven CC-NUMA runs.
 *
 * The SPLASH kernels execute every instruction regardless (their
 * results are real), and on a coherent machine the protocol state
 * cannot be skipped either: a fast-forward gap that froze the caches
 * and directory would bias the next detail unit — sharing-heavy
 * kernels (lu's panel broadcasts) would re-pay remote fetches that
 * the full run amortised across the gap, and invalidation churn
 * would vanish from producer-consumer kernels (ocean). The sampler
 * therefore warms continuously: every access runs the full machine
 * model, in one of three modes.
 *
 *   Detail        exact scheduling; the per-access latency is
 *                 recorded, one mean per unit.
 *   Warm          exact scheduling, no statistics; restores faithful
 *                 CPU interleaving before a detail unit.
 *   Fast-forward  coarse scheduling, no statistics. The simulated
 *                 time of a batch of accesses is charged to the
 *                 scheduler in one advance, and the skew quantum is
 *                 moderately inflated, so token hand-offs become
 *                 rare (see Pending for why that matters less on
 *                 fibers).
 *
 * Coarse scheduling perturbs only the interleaving (every access
 * still reaches the caches, directory and INC), and the warm window
 * before each detail unit re-establishes exact interleaving, so the
 * sampled latencies track the full run closely. Makespans of sampled
 * runs are approximations; the sampled metric of record is the mean
 * data-access latency with its confidence interval.
 */

#ifndef MEMWALL_SAMPLING_SPLASH_SAMPLER_HH
#define MEMWALL_SAMPLING_SPLASH_SAMPLER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "mp/shared.hh"
#include "sampling/confidence.hh"
#include "sampling/plan.hh"

namespace memwall {

/** AccessSampler implementing a systematic SamplingPlan. */
class SplashSampler : public AccessSampler
{
  public:
    /**
     * @param plan            systematic plan, in units of accesses
     * @param ncpus           simulated CPUs sharing this sampler
     * @param normal_quantum  the scheduler's configured quantum
     */
    SplashSampler(const SamplingPlan &plan, unsigned ncpus,
                  Tick normal_quantum);

    void access(NumaMachine &machine, SimContext &ctx, Addr addr,
                bool store) override;

    /** Per-unit mean latencies (one sample per detail unit). */
    const SampleStat &unitLatency() const { return unit_means_; }

    /** Interval over the unit means at the plan's level. */
    ConfidenceInterval
    latencyCi() const
    {
        return confidenceInterval(unit_means_, plan_.level);
    }

    std::uint64_t detailAccesses() const { return detail_; }
    std::uint64_t warmAccesses() const { return warm_; }
    std::uint64_t ffAccesses() const { return ff_; }

    /** True once the adaptive stop rule has fired. */
    bool stopped() const { return stopped_; }

    const SamplingPlan &plan() const { return plan_; }

  private:
    /** Advance the schedule by one access from mode @p before. */
    void step(SimContext &ctx, SampleMode before);
    void setFastForwardQuantum(SimContext &ctx, bool ff);
    /** Charge this CPU's batched fast-forward cycles. */
    void
    flushPending(SimContext &ctx)
    {
        Pending &p = pending_[ctx.cpuId()];
        if (p.cycles == 0)
            return;
        ctx.advance(p.cycles);
        p.cycles = 0;
        p.accesses = 0;
    }

    SamplingPlan plan_;
    SystematicCursor cursor_;
    Tick normal_quantum_;
    bool stopped_ = false;
    bool quantum_inflated_ = false;

    /**
     * Fast-forwarded simulated time is charged to the scheduler in
     * batches. The batching was sized when every scheduler advance
     * took a mutex and scanned for the minimum-time peer; on fibers an
     * advance is an add and a compare, so it saves little now, but
     * ff_flush_accesses and the quantum inflation stay because the
     * sampled goldens depend on them. The skew a batch introduces is
     * bounded (ff_flush_accesses * the access latency) and
     * fast-forward interleaving is coarse by design; detail and warm
     * accesses always flush first, so their machine timing sees the
     * exact clock.
     */
    struct Pending
    {
        std::uint64_t cycles = 0;
        std::uint32_t accesses = 0;
    };
    std::vector<Pending> pending_;

    // Current-unit accumulator.
    std::uint64_t unit_cycles_ = 0;
    std::uint64_t unit_count_ = 0;

    SampleStat unit_means_;

    std::uint64_t detail_ = 0;
    std::uint64_t warm_ = 0;
    std::uint64_t ff_ = 0;
};

} // namespace memwall

#endif // MEMWALL_SAMPLING_SPLASH_SAMPLER_HH
