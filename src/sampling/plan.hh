/**
 * @file
 * Sampled-simulation plans (the SMARTS methodology).
 *
 * A run is divided into fixed-size units of U references (or data
 * accesses, for the execution-driven MP model). Under a plan, only a
 * small subset of units runs in full detail; the simulator interleaves
 * three modes:
 *
 *   FastForward  functional progress only — no cache/timing model
 *   Warm         functional warming: caches/directory/INC updated,
 *                no timing statistics
 *   Detail       full model + statistics; one sample per unit
 *
 * Two unit-selection schemes are supported:
 *
 *   Systematic   one detail unit every k units (period k*U), each
 *                preceded by W references of warming — the classic
 *                SMARTS schedule for a single sequential stream.
 *   Stratified   n independent units, each drawn from a fresh
 *                per-unit substream seeded via the splitmix64
 *                per-point scheme (pointSeed), so `--jobs N` sweeps
 *                stay byte-identical and units are statistically
 *                independent. Only meaningful for the synthetic
 *                (stationary, seed-parameterised) reference streams.
 */

#ifndef MEMWALL_SAMPLING_PLAN_HH
#define MEMWALL_SAMPLING_PLAN_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"

namespace memwall {

/** What the simulator does with the current unit. */
enum class SampleMode : std::uint8_t { FastForward, Warm, Detail };

/** Unit-selection scheme. */
enum class SampleScheme : std::uint8_t { Systematic, Stratified };

/** Parameters of one sampled run. */
struct SamplingPlan
{
    SampleScheme scheme = SampleScheme::Systematic;
    /** Detail unit length U, in references/accesses. */
    std::uint64_t unit_refs = 1000;
    /** Functional-warming length W before each detail unit. */
    std::uint64_t warmup_refs = 2000;
    /** Systematic period: one detail unit every k units of U. */
    std::uint64_t period_units = 50;
    /** Stratified: number of units (also the adaptive minimum). */
    std::uint64_t units = 30;
    /**
     * Adaptive stopping: keep sampling until the relative confidence
     * half-width of every tracked metric is <= target_ci (0 = off,
     * fixed-size run). Bounded by max_units.
     */
    double target_ci = 0.0;
    std::uint64_t max_units = 1000;
    /** Confidence level for reported intervals and the stop rule. */
    double level = 0.95;
    /** Seed of the stratified per-unit substreams. */
    std::uint64_t seed = 42;

    bool adaptive() const { return target_ci > 0.0; }
    /** Validate; fatal on inconsistency (e.g. W does not fit k*U). */
    void validate() const;
    /**
     * Non-fatal validation: returns false with a reason in @p why.
     * The form servers use on untrusted request parameters, where a
     * bad plan must become an error response, not a process abort.
     */
    bool tryValidate(std::string *why) const;
    /** Human-readable one-line summary. */
    std::string describe() const;
};

/**
 * Parse a `--sample` flag value, e.g. "U=1000,W=2000,k=50",
 * "mode=strat,n=24,U=500,W=1000", "U=1000,W=2000,k=50,ci=0.05".
 * Keys: U (unit), W (warmup), k (period), n (stratified units),
 * mode (sys|strat), ci (target relative CI), level, seed, max.
 * Unknown keys or malformed values are fatal. Empty string = default
 * plan.
 */
SamplingPlan parseSamplingPlan(const std::string &text);

/**
 * Non-fatal variant of parseSamplingPlan for untrusted input (the
 * server's "sample" request field): returns false with a reason in
 * @p why instead of aborting, leaving @p plan validated on success.
 */
bool tryParseSamplingPlan(const std::string &text, SamplingPlan &plan,
                          std::string *why);

/**
 * FNV-1a hash over every plan parameter. Checkpoints taken under a
 * plan embed it, so state captured for one schedule is never applied
 * to a run using another.
 */
std::uint64_t samplingPlanHash(const SamplingPlan &plan);

/**
 * Streaming schedule for a systematic plan: reports the mode of the
 * next reference and how many references remain in the current
 * phase, so drivers can process whole phases at a time. The period
 * is laid out Warm -> Detail -> FastForward, which both warms caches
 * before the very first detail unit and guarantees at least one
 * completed detail unit before the first fast-forward stretch (the
 * MP sampler charges fast-forwarded accesses the running mean of the
 * detailed latencies).
 */
class SystematicCursor
{
  public:
    explicit SystematicCursor(const SamplingPlan &plan);

    /** Mode of the next reference. */
    SampleMode mode() const { return mode_; }

    /** References left in the current phase (>= 1). */
    std::uint64_t phaseRemaining() const { return remaining_; }

    /**
     * Consume @p n references of the current phase
     * (n <= phaseRemaining()); advances to the next phase when the
     * current one is exhausted. Inline: the MP sampler calls this
     * once per simulated access.
     */
    void
    advance(std::uint64_t n)
    {
        MW_ASSERT(n <= remaining_,
                  "cursor advanced past the phase end");
        unit_completed_ = false;
        remaining_ -= n;
        if (remaining_ == 0)
            nextPhase();
    }

    /** Detail units fully completed so far. */
    std::uint64_t unitsCompleted() const { return units_done_; }

    /**
     * True exactly once per completed detail unit: set when advance()
     * finishes a detail phase, cleared by the next advance().
     */
    bool unitJustCompleted() const { return unit_completed_; }

  private:
    void enterPhase(SampleMode mode, std::uint64_t len);
    /** Phase-transition tail of advance() (cold path). */
    void nextPhase();

    std::uint64_t unit_;
    std::uint64_t warm_;
    std::uint64_t ff_;  ///< fast-forward refs per period
    SampleMode mode_ = SampleMode::Warm;
    std::uint64_t remaining_ = 0;
    std::uint64_t units_done_ = 0;
    bool unit_completed_ = false;
};

} // namespace memwall

#endif // MEMWALL_SAMPLING_PLAN_HH
