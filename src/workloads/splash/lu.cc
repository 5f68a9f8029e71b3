/**
 * @file
 * SPLASH LU: dense LU decomposition without pivoting, with
 * block-cyclic column ownership (the contiguous-block assignment the
 * SPLASH report recommends so that column data can be placed at its
 * owner).
 *
 * For each step k: the owner of column k scales the sub-column,
 * everyone synchronises, then each processor updates the trailing
 * columns it owns with the (remotely read) pivot column — the
 * pivot-column reads are the coherence traffic of interest.
 */

#include "workloads/splash/splash.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "mp/shared.hh"
#include "workloads/splash/splash_common.hh"

namespace memwall {

namespace {

/** Column-major index. */
inline std::size_t
idx(unsigned n, unsigned i, unsigned j)
{
    return static_cast<std::size_t>(j) * n + i;
}

} // namespace

SplashResult
runLu(const SplashParams &params)
{
    const unsigned n = std::max(
        16u, static_cast<unsigned>(200 * std::sqrt(params.scale)));
    const unsigned p = params.nprocs;
    // Block-cyclic column ownership: blocks of 8 columns, so a
    // processor's columns are contiguous at roughly page granularity
    // and first-touch places them in its local DRAM.
    const unsigned block_cols = 8;
    auto owner = [&](unsigned j) {
        return (j / block_cols) % p;
    };

    MpRuntime rt(p, params.machine);
    SharedArray<double> a(rt, static_cast<std::size_t>(n) * n, "A");

    // Deterministic diagonally dominant matrix.
    Rng rng(7321);
    for (unsigned j = 0; j < n; ++j)
        for (unsigned i = 0; i < n; ++i)
            a.raw(idx(n, i, j)) =
                (i == j) ? n + 1.0 : rng.uniformReal();

    SimBarrier barrier(p);

    rt.run([&](SimContext &ctx) {
        const unsigned me = ctx.cpuId();
        for (unsigned k = 0; k < n; ++k) {
            // Column k's owner scales the sub-column.
            if (owner(k) == me) {
                const double pivot = a.read(ctx, idx(n, k, k));
                for (unsigned i = k + 1; i < n; ++i)
                    a.update(ctx, idx(n, i, k),
                             [&](double v) { return v / pivot; });
            }
            barrier.wait(ctx);
            // Update trailing columns owned by this processor.
            for (unsigned j = k + 1; j < n; ++j) {
                if (owner(j) != me)
                    continue;
                const double akj = a.read(ctx, idx(n, k, j));
                for (unsigned i = k + 1; i < n; ++i) {
                    const double aik = a.read(ctx, idx(n, i, k));
                    a.update(ctx, idx(n, i, j), [&](double v) {
                        return v - aik * akj;
                    });
                }
            }
            barrier.wait(ctx);
        }
    });

    double sum = 0.0;
    for (unsigned i = 0; i < n; ++i)
        sum += std::fabs(a.raw(idx(n, i, i)));
    return collectResult(rt, sum);
}

} // namespace memwall
