/**
 * @file
 * Regenerates Figure 8: data-cache miss rates of the proposed 16 KB
 * 2-way column-buffer cache (512-byte lines), with and without the
 * victim cache, vs conventional caches with 32-byte lines.
 * Load and store miss fractions are reported separately, as in the
 * paper's stacked bars.
 *
 * The points and the --format json document are the experiment
 * catalog's (see catalog_driver.hh, which also documents --sample);
 * this file holds the text report.
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
    TextTable table("Figure 8 (sampled): D-cache miss % ± " +
                    TextTable::num(plan.level * 100, 0) + "% CI");
    table.setHeader({"benchmark", "proposed", "conv 16K dm",
                     "conv 16K 2w", "conv 64K dm", "conv 256K 2w",
                     "proposed+VC", "units"});
    for (const auto &r : all)
        table.addRow({r.workload, ciCell(r.dcache(proposed)),
                      ciCell(r.dcache(conv16)),
                      ciCell(r.dcache(conv16w2)),
                      ciCell(r.dcache(conv64)),
                      ciCell(r.dcache(conv256w2)),
                      ciCell(r.dcache(proposed_vc)),
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
    TextTable table(
        "Figure 8: D-cache miss probability (%), load+store");
    table.setHeader({"benchmark", "proposed", "conv 16K dm",
                     "conv 16K 2w", "conv 64K dm", "conv 256K 2w",
                     "proposed+VC", "VC gain"});

    BarChart chart("Figure 8 (bars): D-cache miss rates", "%");

    for (const auto &rates : all) {
        const auto &p = rates.dcache(proposed);
        const auto &pv = rates.dcache(proposed_vc);
        const double c16 = rates.dcache(conv16).missRate();
        const double c16w = rates.dcache(conv16w2).missRate();
        const double c64 = rates.dcache(conv64).missRate();
        const double c256 = rates.dcache(conv256w2).missRate();
        table.addRow(
            {rates.workload, TextTable::num(p.missRate() * 100, 3),
             TextTable::num(c16 * 100, 3),
             TextTable::num(c16w * 100, 3),
             TextTable::num(c64 * 100, 3),
             TextTable::num(c256 * 100, 3),
             TextTable::num(pv.missRate() * 100, 3),
             pv.missRate() > 0
                 ? TextTable::num(p.missRate() / pv.missRate(), 1) + "x"
                 : "inf"});
        chart.add(rates.workload, "proposed    ", p.missRate() * 100);
        chart.add(rates.workload, "proposed+VC ", pv.missRate() * 100);
        chart.add(rates.workload, "conv-16K-dm ", c16 * 100);
        chart.add(rates.workload, "conv-16K-2w ", c16w * 100);
    }

    table.print(std::cout);
    std::cout << '\n';
    chart.print(std::cout);

    std::cout << "\nLoad/store split (proposed+VC), per Figure 8's "
                 "stacked bars:\n";
    TextTable split("");
    split.setHeader({"benchmark", "load-miss %", "store-miss %"});
    for (const auto &rates : all) {
        const auto &pv = rates.dcache(proposed_vc);
        split.addRow({rates.workload,
                      TextTable::num(pv.stats.loadMissRate() * 100, 3),
                      TextTable::num(pv.stats.storeMissRate() * 100,
                                     3)});
    }
    split.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    return benchutil::runCatalogBench(
        server::Experiment::Fig8, "Figure 8 - data cache miss rates",
        argc, argv, printFigure);
}
