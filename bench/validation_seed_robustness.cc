/**
 * @file
 * Validation: are the Figure 7/8 conclusions robust to the proxies'
 * random streams?
 *
 * Every workload proxy draws its instruction/data interleaving from
 * a per-benchmark seed. This bench re-rolls those seeds and checks
 * that the quantities the claims rest on — the victim-cache gain,
 * the proposed/conventional ratio, the turb3d regression — move only
 * within narrow bands. (The shapes come from the workloads'
 * structure, not from a lucky seed.)
 */

#include <algorithm>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "workloads/missrate.hh"

using namespace memwall;
using namespace memwall::cachelabels;

int
main(int argc, char **argv)
{
    const std::initializer_list<const char *> flags = {"--reseeds"};
    auto opt = benchutil::parse(argc, argv, flags);
    benchutil::banner("Validation - proxy-seed robustness", opt);

    MissRateParams params;
    params.measured_refs = opt.refs ? opt.refs
                                    : (opt.quick ? 300'000
                                                 : 2'000'000);
    params.warmup_refs = params.measured_refs / 4;

    // Seed deltas to sweep; override with --reseeds 0,777,31415,...
    const std::vector<std::uint64_t> reseeds = benchutil::parseU64List(
        opt.extraOr("--reseeds", "0,777,31415,2718281"), "--reseeds",
        argv[0], flags);

    TextTable table("Key Figure 7/8 quantities across four proxy "
                    "seeds (min .. max)");
    table.setHeader({"quantity", "min", "max"});

    auto sweep = [&](const char *name, auto &&metric,
                     const char *label) {
        double lo = 1e30, hi = -1e30;
        for (std::uint64_t delta : reseeds) {
            SpecWorkload w = findWorkload(name);
            w.proxy.seed += delta;
            const auto rates = measureMissRates(w, params);
            const double v = metric(rates);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        table.addRow({label, TextTable::num(lo, 2),
                      TextTable::num(hi, 2)});
    };

    sweep("102.swim",
          [](const WorkloadMissRates &r) {
              return r.dcache(proposed).missRate() /
                     r.dcache(proposed_vc).missRate();
          },
          "swim: victim-cache miss reduction (x)");
    sweep("101.tomcatv",
          [](const WorkloadMissRates &r) {
              return r.dcache(proposed).missRate() /
                     r.dcache(conv16).missRate();
          },
          "tomcatv: proposed/conv-16K blow-up (x)");
    sweep("107.mgrid",
          [](const WorkloadMissRates &r) {
              return r.dcache(conv16).missRate() /
                     r.dcache(proposed).missRate();
          },
          "mgrid: prefetch win vs conv-16K (x)");
    sweep("125.turb3d",
          [](const WorkloadMissRates &r) {
              return r.icache(proposed).missRate() /
                     std::max(r.icache(conv8).missRate(), 1e-9);
          },
          "turb3d: I-cache regression (x)");
    sweep("099.go",
          [](const WorkloadMissRates &r) {
              return r.dcache(proposed).missRate() /
                     r.dcache(proposed_vc).missRate();
          },
          "go: victim-cache miss reduction (x)");

    table.print(std::cout);
    std::cout << "\nExpected: each band stays on its claim's side "
                 "of 1.0 with modest spread.\n";
    return 0;
}
