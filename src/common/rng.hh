/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic component in the library (GSPN races, workload
 * proxies, replacement tie-breaks, the MP scheduler's arbitration)
 * draws from an explicitly seeded Rng so that all experiments are
 * bit-reproducible. The generator is xoshiro256++, which is small,
 * fast and has no observable bias for our purposes.
 */

#ifndef MEMWALL_COMMON_RNG_HH
#define MEMWALL_COMMON_RNG_HH

#include <array>
#include <cstdint>

namespace memwall {

/**
 * xoshiro256++ generator with convenience distributions.
 *
 * Satisfies the essentials of UniformRandomBitGenerator so it can be
 * handed to standard algorithms when needed.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Seed via splitmix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** @return the next raw 64-bit value. */
    result_type operator()() { return next(); }

    /** @return a uniform integer in [0, bound); bound must be > 0. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformRange(std::uint64_t lo, std::uint64_t hi);

    /** @return a uniform double in [0, 1). */
    double uniformReal();

    /** @return true with probability @p p (clamped to [0,1]). */
    bool bernoulli(double p);

    /** @return an Exp(1/mean)-distributed double; mean must be > 0. */
    double exponential(double mean);

    /** @return a geometrically distributed count with success prob p. */
    std::uint64_t geometric(double p);

    /**
     * Derive an independent child generator. Used to hand each
     * component its own stream so adding a component does not perturb
     * the draws of the others.
     */
    Rng split();

  private:
    std::uint64_t next();

    std::array<std::uint64_t, 4> s_;
};

} // namespace memwall

#endif // MEMWALL_COMMON_RNG_HH
