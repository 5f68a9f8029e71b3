/**
 * @file
 * SPLASH MP3D: 3-D particle-based wind-tunnel simulation.
 *
 * Particles are statically assigned to processors; on every step a
 * particle moves, and the counters of the space-array cell it lands
 * in are updated in shared memory. Cell-counter updates by particles
 * owned by different processors are the notorious coherence traffic
 * that makes MP3D scale poorly on write-invalidate machines.
 */

#include "workloads/splash/splash.hh"

#include <cmath>

#include "common/rng.hh"
#include "workloads/splash/splash_common.hh"

namespace memwall {

SplashResult
runMp3d(const SplashParams &params)
{
    const unsigned particles = std::max(
        256u, static_cast<unsigned>(10'000 * params.scale));
    const unsigned steps = 10;
    const unsigned dim = 14;  // 14^3 = 2744 space cells
    const unsigned cells = dim * dim * dim;
    const unsigned p = params.nprocs;

    MpRuntime rt(p, params.machine);
    // Particle state: x, y, z, vx, vy, vz per particle.
    SharedArray<float> part(rt, particles * 6ull, "particles");
    // Space array: population count and accumulated energy per cell.
    SharedArray<float> cell_energy(rt, cells, "cell_energy");
    SharedArray<std::int32_t> cell_count(rt, cells, "cell_count");

    Rng rng(40423);
    for (unsigned i = 0; i < particles; ++i) {
        part.raw(i * 6 + 0) = static_cast<float>(
            rng.uniformReal() * dim);
        part.raw(i * 6 + 1) = static_cast<float>(
            rng.uniformReal() * dim);
        part.raw(i * 6 + 2) = static_cast<float>(
            rng.uniformReal() * dim);
        part.raw(i * 6 + 3) =
            static_cast<float>(rng.uniformReal() - 0.2);
        part.raw(i * 6 + 4) =
            static_cast<float>(rng.uniformReal() - 0.5);
        part.raw(i * 6 + 5) =
            static_cast<float>(rng.uniformReal() - 0.5);
    }

    SimBarrier barrier(p);

    rt.run([&](SimContext &ctx) {
        const Slice mine = sliceOf(particles, ctx.cpuId(), p);
        for (unsigned step = 0; step < steps; ++step) {
            for (unsigned i = mine.first; i < mine.last; ++i) {
                // Move the particle (reads + writes, mostly local).
                float pos[3];
                for (unsigned d = 0; d < 3; ++d)
                    pos[d] = part.read(ctx, i * 6 + d);
                float vel[3];
                for (unsigned d = 0; d < 3; ++d)
                    vel[d] = part.read(ctx, i * 6 + 3 + d);
                for (unsigned d = 0; d < 3; ++d) {
                    pos[d] += vel[d];
                    // Reflecting boundaries.
                    if (pos[d] < 0.0f)
                        pos[d] = -pos[d];
                    while (pos[d] >= static_cast<float>(dim))
                        pos[d] -= static_cast<float>(dim);
                    part.write(ctx, i * 6 + d, pos[d]);
                }
                // Update the space cell (shared writes: the MP3D
                // hot spot).
                const unsigned cx = static_cast<unsigned>(pos[0]);
                const unsigned cy = static_cast<unsigned>(pos[1]);
                const unsigned cz = static_cast<unsigned>(pos[2]);
                const unsigned cell =
                    (cx * dim + cy) * dim + cz;
                cell_count.update(ctx, cell, [](std::int32_t c) {
                    return c + 1;
                });
                const float e = vel[0] * vel[0] + vel[1] * vel[1] +
                                vel[2] * vel[2];
                cell_energy.update(ctx, cell,
                                   [e](float v) { return v + e; });
            }
            barrier.wait(ctx);
        }
    });

    // Checksum over particle positions: these are written only by
    // their owners, so they are identical across architectures. The
    // cell counters are updated without locks — MP3D's famous data
    // races — and may differ by timing, exactly as on real machines.
    double sum = 0.0;
    for (unsigned i = 0; i < particles; ++i)
        for (unsigned d = 0; d < 3; ++d)
            sum += part.raw(i * 6 + d);
    return collectResult(rt, sum);
}

} // namespace memwall
