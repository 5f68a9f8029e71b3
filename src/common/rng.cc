#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace memwall {

namespace {

/** splitmix64 step used for seeding. */
std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

void
detail::rngBoundFailed()
{
    MW_PANIC("assertion failed: bound > 0 ",
             "uniformInt bound must be positive");
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s_)
        word = splitmix64(sm);
    // A zero state would lock the generator at zero; splitmix64 cannot
    // produce four zero outputs from any seed, but be defensive.
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0)
        s_[0] = 1;
}

std::uint64_t
Rng::uniformRange(std::uint64_t lo, std::uint64_t hi)
{
    MW_ASSERT(lo <= hi, "uniformRange requires lo <= hi");
    if (lo == 0 && hi == max())
        return next();
    return lo + uniformInt(hi - lo + 1);
}

double
Rng::exponential(double mean)
{
    MW_ASSERT(mean > 0.0, "exponential mean must be positive");
    double u;
    do {
        u = uniformReal();
    } while (u == 0.0);
    return -mean * std::log(u);
}

std::uint64_t
Rng::geometric(double p)
{
    MW_ASSERT(p > 0.0 && p <= 1.0, "geometric probability out of range");
    if (p == 1.0)
        return 0;
    double u;
    do {
        u = uniformReal();
    } while (u == 0.0);
    return static_cast<std::uint64_t>(std::log(u) / std::log1p(-p));
}

Rng
Rng::split()
{
    // Mix two successive outputs into a fresh seed; streams derived
    // this way are independent for all practical purposes.
    const std::uint64_t a = next();
    const std::uint64_t b = next();
    return Rng(a ^ rotl(b, 32) ^ 0xd1b54a32d192ed03ULL);
}

} // namespace memwall
