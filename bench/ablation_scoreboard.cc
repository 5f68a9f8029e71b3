/**
 * @file
 * Ablation: scoreboarding (Section 5.5).
 *
 * The paper models the integrated core WITH scoreboarding (the T23
 * exponential at rate 1: on average one instruction issues past an
 * incomplete load) and notes the no-scoreboard alternative as the
 * T23-rate-infinity case. This bench quantifies the difference on
 * both GSPN and execution-driven pipelines.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/pim_device.hh"
#include "workloads/spec_eval.hh"

using namespace memwall;

int
main(int argc, char **argv)
{
    auto opt = benchutil::parse(argc, argv);
    // The measured window and the GSPN length are fixed per mode;
    // nothing here would read a reference count.
    if (opt.refs != 0)
        benchutil::usageError(argv[0], {},
                              "--refs does not apply to this ablation "
                              "(its sizes are set by --quick)");
    benchutil::banner("Ablation - scoreboarding", opt);

    SpecEvalParams params;
    params.seed = opt.seed;
    if (opt.quick) {
        params.missrate.measured_refs = 300'000;
        params.missrate.warmup_refs = 100'000;
        params.gspn_instructions = 25'000;
    }

    TextTable table("Total CPI with and without scoreboarding "
                    "(GSPN model)");
    table.setHeader({"benchmark", "scoreboard (T23 rate 1)",
                     "no scoreboard (rate inf)", "penalty"});

    for (const char *name :
         {"099.go", "126.gcc", "102.swim", "101.tomcatv"}) {
        const SpecWorkload &w = findWorkload(name);
        ProcessorModelParams model = gspnInputs(
            w, measureIntegratedRates(w, /*victim=*/true,
                                      params.missrate));
        const auto total_cpi = [&] {
            return w.base_cpi +
                   estimateCpi(model, params.gspn_instructions,
                               params.seed)
                       .memory_cpi;
        };
        const double with_sb = total_cpi();
        model.scoreboarding = false;
        const double without_sb = total_cpi();
        table.addRow({w.name, TextTable::num(with_sb, 3),
                      TextTable::num(without_sb, 3),
                      TextTable::num(100.0 * (without_sb - with_sb) /
                                         with_sb,
                                     1) +
                          "%"});
    }
    table.print(std::cout);

    // Cross-check with the execution-driven pipeline: window 1 vs 0.
    std::cout << "\nExecution-driven cross-check (126.gcc proxy, "
                 "pipeline model):\n";
    TextTable pipe("");
    pipe.setHeader({"scoreboard window", "CPI"});
    for (unsigned window : {0u, 1u, 2u, 4u}) {
        PimDeviceConfig cfg;
        cfg.pipeline.scoreboard_window = window;
        PimDevice device(cfg);
        SyntheticWorkload source(findWorkload("126.gcc").proxy);
        const double cpi = device.runWorkload(
            source, opt.quick ? 300'000 : 2'000'000);
        pipe.addRow({std::to_string(window),
                     TextTable::num(cpi, 3)});
    }
    pipe.print(std::cout);
    return 0;
}
