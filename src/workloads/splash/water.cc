/**
 * @file
 * SPLASH WATER: N-body water molecular dynamics (288 molecules,
 * 4 time steps). Each molecule is a ~600-byte structure (the paper
 * calls this out: structures are "only partially accessed", which
 * starves the 512-byte column buffers of locality, Section 6.2).
 * Molecules are statically partitioned; the O(N^2/2) force phase
 * reads every other molecule's position block and accumulates
 * forces into BOTH molecules of a pair — the true-sharing traffic
 * that dominates this benchmark.
 */

#include "workloads/splash/splash.hh"

#include <cmath>

#include "common/rng.hh"
#include "workloads/splash/splash_common.hh"

namespace memwall {

namespace {

// 600-byte molecule record = 75 doubles:
//   [0..8]   atom positions (O, H1, H2)
//   [9..17]  velocities
//   [18..26] forces
//   [27..74] higher-order predictor/corrector state (cold fields)
constexpr unsigned mol_doubles = 75;
constexpr unsigned off_pos = 0;
constexpr unsigned off_vel = 9;
constexpr unsigned off_force = 18;

} // namespace

SplashResult
runWater(const SplashParams &params)
{
    const unsigned molecules = std::max(
        16u, static_cast<unsigned>(288 * params.scale));
    const unsigned steps = 4;
    const unsigned p = params.nprocs;
    const double cutoff2 = 6.0;  // squared interaction cutoff

    MpRuntime rt(p, params.machine);
    SharedArray<double> mol(rt,
                            static_cast<std::size_t>(molecules) *
                                mol_doubles,
                            "molecules");
    Rng rng(288288);
    const double box = std::cbrt(static_cast<double>(molecules));
    for (unsigned i = 0; i < molecules; ++i) {
        for (unsigned d = 0; d < 3; ++d) {
            const double centre = rng.uniformReal() * box * 3.1;
            // Three atoms clustered around the molecule centre.
            mol.raw(i * mol_doubles + off_pos + d) = centre;
            mol.raw(i * mol_doubles + off_pos + 3 + d) =
                centre + 0.1;
            mol.raw(i * mol_doubles + off_pos + 6 + d) =
                centre - 0.1;
            mol.raw(i * mol_doubles + off_vel + d) =
                rng.uniformReal() - 0.5;
        }
    }

    SimBarrier barrier(p);
    // One lock per molecule guards its force accumulator (the
    // SPLASH formulation).
    std::vector<SimLock> locks(molecules);

    rt.run([&](SimContext &ctx) {
        const Slice mine = sliceOf(molecules, ctx.cpuId(), p);
        auto fld = [&](unsigned m, unsigned f) {
            return static_cast<std::size_t>(m) * mol_doubles + f;
        };

        for (unsigned step = 0; step < steps; ++step) {
            // --- Force phase: owned i against all j > i ------------
            for (unsigned i = mine.first; i < mine.last; ++i) {
                double pi[3];
                double fi[3] = {0.0, 0.0, 0.0};
                // Molecule i's nine position doubles (three atoms);
                // use the centroid for the distance test.
                for (unsigned d = 0; d < 3; ++d) {
                    double c = 0.0;
                    for (unsigned atom = 0; atom < 3; ++atom)
                        c += mol.read(
                            ctx, fld(i, off_pos + 3 * atom + d));
                    pi[d] = c / 3.0;
                }
                for (unsigned j = i + 1; j < molecules; ++j) {
                    // Partial access of molecule j: the nine
                    // position doubles of its three atoms — 72 of
                    // 600 bytes, the "only partially accessed"
                    // structure of Section 6.2.
                    double pj[3];
                    double dist2 = 0.0;
                    for (unsigned d = 0; d < 3; ++d) {
                        double c = 0.0;
                        for (unsigned atom = 0; atom < 3; ++atom)
                            c += mol.read(
                                ctx,
                                fld(j, off_pos + 3 * atom + d));
                        pj[d] = c / 3.0;
                        const double dd = pi[d] - pj[d];
                        dist2 += dd * dd;
                    }
                    if (dist2 > cutoff2 || dist2 == 0.0)
                        continue;
                    const double f = 1.0 / (dist2 * dist2);
                    // The i-side sum stays in registers; only the
                    // partner molecule needs its lock (the SPLASH
                    // optimisation of accumulating locally and
                    // merging once).
                    for (unsigned d = 0; d < 3; ++d)
                        fi[d] += f * (pi[d] - pj[d]);
                    locks[j].acquire(ctx);
                    for (unsigned d = 0; d < 3; ++d)
                        mol.update(ctx, fld(j, off_force + d),
                                   [&](double v) {
                                       return v -
                                              f * (pi[d] - pj[d]);
                                   });
                    locks[j].release(ctx);
                }
                locks[i].acquire(ctx);
                for (unsigned d = 0; d < 3; ++d)
                    mol.update(ctx, fld(i, off_force + d),
                               [&](double v) { return v + fi[d]; });
                locks[i].release(ctx);
            }
            barrier.wait(ctx);
            // --- Update phase: integrate owned molecules ------------
            for (unsigned i = mine.first; i < mine.last; ++i) {
                for (unsigned d = 0; d < 3; ++d) {
                    const double f =
                        mol.read(ctx, fld(i, off_force + d));
                    const double v =
                        mol.read(ctx, fld(i, off_vel + d)) +
                        0.0001 * f;
                    mol.write(ctx, fld(i, off_vel + d), v);
                    // Move all three atoms.
                    for (unsigned atom = 0; atom < 3; ++atom)
                        mol.update(ctx,
                                   fld(i, off_pos + 3 * atom + d),
                                   [v](double x) {
                                       return x + 0.001 * v;
                                   });
                    mol.write(ctx, fld(i, off_force + d), 0.0);
                }
            }
            barrier.wait(ctx);
        }
    });

    double sum = 0.0;
    for (unsigned i = 0; i < molecules; ++i)
        for (unsigned d = 0; d < 3; ++d)
            sum += mol.raw(static_cast<std::size_t>(i) *
                               mol_doubles +
                           off_vel + d);
    return collectResult(rt, sum);
}

} // namespace memwall
