/**
 * @file
 * Regenerates Figure 15: total execution time of SPLASH OCEAN
 * (128x128-grid) on 1..16 processors, comparing the
 * reference CC-NUMA (16 KB FLC + infinite SLC) against the
 * integrated design with and without the victim cache.
 */

#include "splash_report.hh"

int
main(int argc, char **argv)
{
    return memwall::benchutil::runSplashBench(
        memwall::server::Experiment::Fig15Ocean, argc, argv);
}
