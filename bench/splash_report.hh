/**
 * @file
 * The Figure 13-17 benches: one SPLASH kernel on 1..16 processors
 * under the three architectures of Section 6. The text report shows
 * execution time normalised to the 1-CPU reference CC-NUMA run (the
 * curves' relative positions carry the result).
 */

#ifndef MEMWALL_BENCH_SPLASH_REPORT_HH
#define MEMWALL_BENCH_SPLASH_REPORT_HH

#include <cmath>
#include <iostream>
#include <string>

#include "catalog_driver.hh"
#include "common/table.hh"

namespace memwall::benchutil {

/** Every architecture computes the same answer: the points'
 *  checksums must agree. */
inline bool
splashChecksumsAgree(const CatalogResults &results)
{
    const auto points = server::gatherResults<SplashResult>(results);
    for (const SplashResult &res : points)
        if (std::abs(res.checksum - points[0].checksum) >
            1e-6 * (1.0 + std::abs(points[0].checksum)))
            return false;
    return true;
}

inline void
printLatencyTable()
{
    const LatencyTable lat;
    TextTable table("Table 6: memory latencies (processor cycles)");
    table.setHeader({"access", "latency"});
    table.addRow({"hit in column buffer / victim cache / FLC",
                  std::to_string(lat.cache_hit)});
    table.addRow({"local memory & SLC hit",
                  std::to_string(lat.local_memory)});
    table.addRow({"INC data access (+tag check)",
                  std::to_string(lat.inc_access) + " + " +
                      std::to_string(lat.inc_tag_extra)});
    table.addRow({"invalidation round trip",
                  std::to_string(lat.invalidation_round_trip)});
    table.addRow({"load remote data",
                  std::to_string(lat.remote_load)});
    table.print(std::cout);
    std::cout << '\n';
}

inline void
printSplashFigure(const server::RunRequest &req,
                  const CatalogResults &results)
{
    const SplashFigure fig = server::splashFigureOf(req.experiment);
    const std::string kernel = splashFigureKernel(fig);
    const auto points = server::gatherResults<SplashResult>(results);
    printLatencyTable();

    std::cout << "problem scale: " << resolveSplashScale(fig, req.quick)
              << " (1.0 = the paper's data set; runtimes below "
                 "are relative,\nso the architecture comparison "
                 "is scale-consistent)\n\n";
    SeriesChart chart("Execution time, " + kernel +
                          " (normalised to 1-cpu reference)",
                      "processors", "relative time");
    const double base = static_cast<double>(points[0].makespan);
    std::size_t i = 0;
    for (const auto &arch : splashArchs())
        for (unsigned ncpus : splashCpuCounts(req.nodes))
            chart.addPoint(
                arch, ncpus,
                static_cast<double>(points[i++].makespan) / base);
    chart.print(std::cout);
    std::cout << "\ncross-architecture checksums "
              << (splashChecksumsAgree(results) ? "MATCH"
                                                : "MISMATCH -- BUG")
              << "; expected shape: integrated+vc lowest curve; "
                 "reference beats plain\nintegrated where "
                 "coherence misses dominate (OCEAN, WATER).\n";
}

/** Run SPLASH figure @p exp as a one-shot bench. */
inline int
runSplashBench(server::Experiment exp, int argc, char **argv)
{
    const SplashFigure fig = server::splashFigureOf(exp);
    return runCatalogBench(exp,
                           std::string(splashFigureTitle(fig)) +
                               " - SPLASH " + splashFigureKernel(fig) +
                               " (" + splashFigureDataset(fig) + ")",
                           argc, argv, printSplashFigure,
                           splashChecksumsAgree);
}

} // namespace memwall::benchutil

#endif // MEMWALL_BENCH_SPLASH_REPORT_HH
