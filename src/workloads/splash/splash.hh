/**
 * @file
 * SPLASH kernels for the multiprocessor evaluation (Table 5).
 *
 * Five kernels reimplemented against the execution-driven
 * shared-memory runtime, at the paper's problem sizes:
 *
 *   LU     LU decomposition               200x200 matrix
 *   MP3D   3-D particle wind tunnel       10 K particles, 10 steps
 *   OCEAN  ocean basin simulator          128x128 grids
 *   WATER  N-body molecular dynamics      288 molecules, 4 steps
 *   PTHOR  distributed circuit simulator  RISC circuit, 1000 steps
 *
 * Each kernel computes real results (checksums verify that all
 * three architectures execute identical work) while every shared
 * access is timed by the NumaMachine.
 */

#ifndef MEMWALL_WORKLOADS_SPLASH_SPLASH_HH
#define MEMWALL_WORKLOADS_SPLASH_SPLASH_HH

#include <cstdint>
#include <string>

#include "coherence/numa.hh"

namespace memwall {

/** Outcome of one SPLASH run. */
struct SplashResult
{
    /** Parallel execution time in cycles (the figures' y-axis). */
    Tick makespan = 0;
    /** Total simulated data references. */
    std::uint64_t accesses = 0;
    std::uint64_t remote_loads = 0;
    std::uint64_t invalidations = 0;
    /** Numerical checksum for cross-architecture validation. */
    double checksum = 0.0;
};

/** Common run parameters. */
struct SplashParams
{
    /** Number of processors (= machine nodes used). */
    unsigned nprocs = 4;
    /** Machine model. */
    NumaConfig machine = {};
    /** Problem scale factor: 1.0 = the paper's data set. */
    double scale = 1.0;
};

/** LU decomposition of an n x n matrix (paper: n = 200). */
SplashResult runLu(const SplashParams &params);

/** Particle wind tunnel (paper: 10 K particles, 10 steps). */
SplashResult runMp3d(const SplashParams &params);

/** Ocean basin red-black SOR (paper: 128x128, tol 1e-7). */
SplashResult runOcean(const SplashParams &params);

/** Water molecular dynamics (paper: 288 molecules, 4 steps). */
SplashResult runWater(const SplashParams &params);

/** Distributed digital circuit simulation (paper: RISC circuit,
 * 1000 time steps). */
SplashResult runPthor(const SplashParams &params);

/** Dispatch by name: "lu", "mp3d", "ocean", "water", "pthor". */
SplashResult runSplash(const std::string &name,
                       const SplashParams &params);

} // namespace memwall

#endif // MEMWALL_WORKLOADS_SPLASH_SPLASH_HH
