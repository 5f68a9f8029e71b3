/**
 * @file
 * Regenerates Figure 11: CPI of a conventional 200 MHz single-scalar
 * CPU (16 KB split L1, 256 KB unified L2, dual-banked memory) as a
 * function of second-level-cache and main-memory latency, for the
 * representative high- and low-CPI applications 141.apsi and
 * 126.gcc. The paper's grey "typical operating region" corresponds
 * to L2 ~6-10 cycles and memory ~150-300 ns.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "harness/parallel_sweep.hh"
#include "workloads/spec_tables.hh"

using namespace memwall;

int
main(int argc, char **argv)
{
    auto opt = benchutil::parse(argc, argv);
    benchutil::banner("Figure 11 - cache/memory latency impact "
                      "(conventional CPU)",
                      opt);

    SpecEvalParams params =
        resolveSpecEvalParams(opt.quick, opt.refs, opt.seed);
    params.banks = 2;  // dual-banked conventional main memory

    const double l2_lats[] = {4.0, 6.0, 12.0};
    const double mem_ns[] = {50, 100, 150, 200, 250, 300, 400};
    const ClockParams clock;  // 200 MHz

    SeriesChart chart("Figure 11: conventional CPU CPI vs latency",
                      "memory latency (ns)", "CPI");

    // Every (workload, L2, memory) point is an independent GSPN run,
    // committed in submission order; all share params.seed, as a
    // serial run does.
    ParallelSweep<double> sweep(opt.jobs, opt.seed);
    for (const char *name : {"141.apsi", "126.gcc"}) {
        const SpecWorkload &w = findWorkload(name);
        // One measurement; every latency point prices the same rates.
        const HierarchyRates rates = measureHierarchyRates(
            w, HierarchyConfig::reference(), params.missrate);
        for (double l2 : l2_lats) {
            const std::string series =
                std::string(name) + " L2=" +
                TextTable::num(l2, 0) + "cy";
            for (double ns : mem_ns) {
                const double mem_cycles =
                    static_cast<double>(clock.nsToCycles(ns));
                sweep.submit(
                    [&w, rates, &params, l2,
                     mem_cycles](const PointContext &) {
                        return estimateReference(w, rates, l2,
                                                 mem_cycles, params)
                            .cpi.total();
                    },
                    [&chart, series, ns](const PointContext &,
                                         double cpi) {
                        chart.addPoint(series, ns, cpi);
                    });
            }
        }
    }
    sweep.finish();
    chart.print(std::cout);

    std::cout << "\nNote: the raw (zero-latency-memory) CPI is the "
                 "base component; the paper's\nobservation is that "
                 "memory latency alone can cost up to a factor of 2 "
                 "over raw CPI\nin the typical operating region.\n";
    return 0;
}
