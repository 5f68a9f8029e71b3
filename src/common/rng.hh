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

namespace detail {
/** Out-of-line failure of Rng::uniformInt's bound check. */
[[noreturn]] void rngBoundFailed();
} // namespace detail

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
    std::uint64_t
    uniformInt(std::uint64_t bound)
    {
        if (bound == 0)
            detail::rngBoundFailed();
        // Rejection sampling to avoid modulo bias.
        const std::uint64_t limit = max() - max() % bound;
        std::uint64_t v;
        do {
            v = next();
        } while (v >= limit);
        return v % bound;
    }

    /** @return a uniform integer in [lo, hi] inclusive. */
    std::uint64_t uniformRange(std::uint64_t lo, std::uint64_t hi);

    /**
     * @return 53 uniform random bits, the draw uniformReal() scales:
     * uniformReal() == uniformBits53() * 2^-53 exactly.
     */
    std::uint64_t uniformBits53() { return next() >> 11; }

    /** @return a uniform double in [0, 1). */
    double
    uniformReal()
    {
        return static_cast<double>(uniformBits53()) * 0x1.0p-53;
    }

    /** @return true with probability @p p (clamped to [0,1]). */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniformReal() < p;
    }

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
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    std::array<std::uint64_t, 4> s_;
};

} // namespace memwall

#endif // MEMWALL_COMMON_RNG_HH
