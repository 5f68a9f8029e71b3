/**
 * @file
 * Regenerates Figure 7: instruction-cache miss rates of the proposed
 * 8 KB column-buffer cache (512-byte lines) vs conventional
 * direct-mapped caches (32-byte lines) of 8/16/32/64 KB.
 *
 * The points and the --format json document are the experiment
 * catalog's (see catalog_driver.hh, which also documents --sample,
 * --resume and --ckpt-dir); this file holds the text report.
 */

#include <iostream>

#include "catalog_driver.hh"
#include "common/table.hh"

using namespace memwall;
using namespace memwall::cachelabels;

namespace {

/** "mean±half" table cell, in percent. */
std::string
ciCell(const SampledCacheMissRate &r)
{
    return TextTable::num(r.mean() * 100, 3) + "±" +
           TextTable::num(r.ci.half_width * 100, 3);
}

/** Sampled variant: mean ± CI half-width per configuration. */
void
printSampled(const SamplingPlan &plan,
             const benchutil::CatalogResults &results)
{
    const auto all =
        server::gatherResults<SampledWorkloadMissRates>(results);
    std::cout << "sampling plan: " << plan.describe() << "\n\n";
    TextTable table("Figure 7 (sampled): I-cache miss % ± " +
                    TextTable::num(plan.level * 100, 0) + "% CI");
    table.setHeader({"benchmark", "proposed 8K/512B", "conv 8K",
                     "conv 16K", "conv 32K", "conv 64K", "units"});
    for (const auto &r : all)
        table.addRow({r.workload, ciCell(r.icache(proposed)),
                      ciCell(r.icache(conv8)),
                      ciCell(r.icache(conv16)),
                      ciCell(r.icache(conv32)),
                      ciCell(r.icache(conv64)),
                      std::to_string(r.units)});
    table.print(std::cout);
}

void
printFigure(const server::RunRequest &req,
            const benchutil::CatalogResults &results)
{
    if (req.has_sample)
        return printSampled(req.sample, results);
    const auto all = server::gatherResults<WorkloadMissRates>(results);
    TextTable table("Figure 7: I-cache miss probability (%)");
    table.setHeader({"benchmark", "proposed 8K/512B", "conv 8K",
                     "conv 16K", "conv 32K", "conv 64K",
                     "conv8K/proposed"});

    BarChart chart("Figure 7 (bars): I-cache miss rates", "%");

    for (const auto &rates : all) {
        const double prop = rates.icache(proposed).missRate();
        const double c8 = rates.icache(conv8).missRate();
        const double c16 = rates.icache(conv16).missRate();
        const double c32 = rates.icache(conv32).missRate();
        const double c64 = rates.icache(conv64).missRate();
        table.addRow({rates.workload, TextTable::num(prop * 100, 3),
                      TextTable::num(c8 * 100, 3),
                      TextTable::num(c16 * 100, 3),
                      TextTable::num(c32 * 100, 3),
                      TextTable::num(c64 * 100, 3),
                      prop > 0 ? TextTable::num(c8 / prop, 1)
                               : "inf"});
        chart.add(rates.workload, "proposed", prop * 100);
        chart.add(rates.workload, "conv-8K ", c8 * 100);
        chart.add(rates.workload, "conv-64K", c64 * 100);
    }

    table.print(std::cout);
    std::cout << '\n';
    chart.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return benchutil::runCatalogBench(
        server::Experiment::Fig7,
        "Figure 7 - instruction cache miss rates", argc, argv,
        printFigure);
}
