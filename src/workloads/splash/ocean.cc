/**
 * @file
 * SPLASH OCEAN: ocean-basin simulation. The computational core is a
 * red-black successive-over-relaxation solver on a 128x128 grid,
 * iterating until the residual falls below the tolerance. Rows are
 * block-partitioned; boundary rows are the (true-sharing) coherence
 * traffic between neighbouring processors.
 */

#include "workloads/splash/splash.hh"

#include <cmath>

#include "common/rng.hh"
#include "workloads/splash/splash_common.hh"

namespace memwall {

SplashResult
runOcean(const SplashParams &params)
{
    const unsigned n = std::max(
        32u, static_cast<unsigned>(128 * std::sqrt(params.scale)));
    const double tolerance = 1e-7;
    const unsigned max_sweeps = 40;
    const unsigned p = params.nprocs;

    MpRuntime rt(p, params.machine);
    SharedArray<double> grid(rt, static_cast<std::size_t>(n) * n,
                             "grid");
    // Per-processor partial residuals (padded to a coherence unit
    // each to avoid false sharing, as SPLASH codes do).
    const unsigned pad = coherence_unit / sizeof(double);
    SharedArray<double> residuals(rt, p * pad, "residuals");

    Rng rng(128128);
    for (unsigned i = 0; i < n; ++i)
        for (unsigned j = 0; j < n; ++j)
            grid.raw(static_cast<std::size_t>(i) * n + j) =
                (i == 0 || j == 0 || i == n - 1 || j == n - 1)
                    ? 1.0
                    : rng.uniformReal();

    SimBarrier barrier(p);
    const double omega = 1.5;
    double final_residual = 0.0;

    rt.run([&](SimContext &ctx) {
        const unsigned me = ctx.cpuId();
        // Interior rows 1..n-2 block-partitioned.
        const Slice rows = sliceOf(n - 2, me, p);
        auto at = [&](unsigned i, unsigned j) {
            return static_cast<std::size_t>(i) * n + j;
        };

        for (unsigned sweep = 0; sweep < max_sweeps; ++sweep) {
            double local_res = 0.0;
            // Red then black half-sweeps.
            for (unsigned colour = 0; colour < 2; ++colour) {
                for (unsigned r = rows.first; r < rows.last; ++r) {
                    const unsigned i = r + 1;
                    for (unsigned j = 1 + ((i + colour) & 1);
                         j < n - 1; j += 2) {
                        const double up = grid.read(ctx, at(i - 1, j));
                        const double down =
                            grid.read(ctx, at(i + 1, j));
                        const double left =
                            grid.read(ctx, at(i, j - 1));
                        const double right =
                            grid.read(ctx, at(i, j + 1));
                        const double old = grid.read(ctx, at(i, j));
                        const double gauss =
                            0.25 * (up + down + left + right);
                        const double next =
                            old + omega * (gauss - old);
                        grid.write(ctx, at(i, j), next);
                        local_res += std::fabs(next - old);
                    }
                }
                barrier.wait(ctx);
            }
            residuals.write(ctx, me * pad, local_res);
            barrier.wait(ctx);
            // Everyone reads all partial residuals (reduction).
            double total = 0.0;
            for (unsigned q = 0; q < p; ++q)
                total += residuals.read(ctx, q * pad);
            if (me == 0)
                final_residual = total;
            if (total / (n * n) < tolerance)
                break;
            barrier.wait(ctx);
        }
    });

    return collectResult(rt, final_residual);
}

} // namespace memwall
