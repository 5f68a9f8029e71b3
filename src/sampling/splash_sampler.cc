#include "sampling/splash_sampler.hh"

#include <algorithm>

namespace memwall {

namespace {

/**
 * Quantum multiplier during fast-forward. Larger values make token
 * hand-offs rarer but coarsen the CPU interleaving, which perturbs
 * the coherence traffic the warm window then has to re-establish; a
 * modest 16x keeps the distortion inside the sampling noise
 * (validated by bench/validation_sampling_crosscheck).
 */
constexpr Tick ff_quantum_scale = 16;

/** Fast-forward accesses batched per scheduler advance. */
constexpr std::uint32_t ff_flush_accesses = 512;

} // namespace

SplashSampler::SplashSampler(const SamplingPlan &plan, unsigned ncpus,
                             Tick normal_quantum)
    : plan_(plan), cursor_(plan), normal_quantum_(normal_quantum),
      pending_(ncpus)
{
    MW_ASSERT(plan_.scheme == SampleScheme::Systematic,
              "the MP sampler interleaves one access stream and "
              "supports systematic plans only");
}

void
SplashSampler::access(NumaMachine &machine, SimContext &ctx,
                      Addr addr, bool store)
{
    const SampleMode mode =
        stopped_ ? SampleMode::FastForward : cursor_.mode();
    switch (mode) {
    case SampleMode::Detail: {
        flushPending(ctx);
        const Cycles lat =
            machine.access(ctx.cpuId(), addr, store, ctx.now());
        ++detail_;
        unit_cycles_ += lat;
        ++unit_count_;
        ctx.advance(lat);
        break;
    }
    case SampleMode::Warm: {
        flushPending(ctx);
        ++warm_;
        ctx.advance(
            machine.access(ctx.cpuId(), addr, store, ctx.now()));
        break;
    }
    case SampleMode::FastForward: {
        // Full machine model (continuous functional warming), coarse
        // time accounting: the latency is banked and charged in one
        // batched advance.
        ++ff_;
        Pending &p = pending_[ctx.cpuId()];
        p.cycles +=
            machine.access(ctx.cpuId(), addr, store, ctx.now());
        if (++p.accesses >= ff_flush_accesses)
            flushPending(ctx);
        break;
    }
    }
    if (!stopped_)
        step(ctx, mode);
}

void
SplashSampler::step(SimContext &ctx, SampleMode before)
{
    cursor_.advance(1);
    if (cursor_.unitJustCompleted()) {
        // Zero-access detail units cannot happen: the cursor only
        // completes a unit after unit_refs accesses passed through
        // the Detail branch above.
        unit_means_.add(static_cast<double>(unit_cycles_) /
                        static_cast<double>(unit_count_));
        unit_cycles_ = 0;
        unit_count_ = 0;
        if (plan_.adaptive() &&
            unit_means_.count() >= plan_.units) {
            const ConfidenceInterval ci = latencyCi();
            if ((ci.valid && ci.relative() <= plan_.target_ci) ||
                unit_means_.count() >= plan_.max_units)
                stopped_ = true;  // fast-forward to the end
        }
    }
    const SampleMode after =
        stopped_ ? SampleMode::FastForward : cursor_.mode();
    if (after != before)
        setFastForwardQuantum(ctx,
                              after == SampleMode::FastForward);
}

void
SplashSampler::setFastForwardQuantum(SimContext &ctx, bool ff)
{
    if (ff == quantum_inflated_)
        return;
    quantum_inflated_ = ff;
    // max() keeps the inflation meaningful for quantum 0 (exact
    // lowest-time-first interleaving).
    ctx.scheduler().setQuantum(
        ff ? std::max<Tick>(normal_quantum_, 1) * ff_quantum_scale
           : normal_quantum_);
}

} // namespace memwall
