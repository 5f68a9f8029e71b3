/**
 * @file
 * Regenerates Figure 14: total execution time of SPLASH MP3D
 * (10K-particles-10-steps) on 1..16 processors, comparing the
 * reference CC-NUMA (16 KB FLC + infinite SLC) against the
 * integrated design with and without the victim cache.
 */

#include "splash_report.hh"

int
main(int argc, char **argv)
{
    return memwall::benchutil::runSplashBench(
        memwall::server::Experiment::Fig14Mp3d, argc, argv);
}
