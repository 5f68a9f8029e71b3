/**
 * @file
 * Seeded random-stress tester for the coherence protocol, run with
 * the shadow checker attached.
 *
 * Part 1 (torture matrix): drives false-sharing, hot-contended,
 * migratory and random-mix access patterns across all three NodeArch
 * variants x three fault settings x several seeds — at least 32
 * independent points — each simulated under a CoherenceVerifier. A
 * healthy protocol must complete every point with ZERO invariant
 * violations, fault injection included (faults perturb latency and
 * raise machine checks; they must never corrupt coherence).
 *
 * Part 2 (mutation mode): deliberately corrupts one protocol
 * transition per run (NumaConfig::mutation) and demands the checker
 * CATCH it — a violation count of zero in a mutated run means the
 * detector is blind, and the bench fails. This proves the matrix's
 * green result is meaningful. `--mutate <kind|all>` runs only this
 * part (CI uses it as a detector-sensitivity step).
 *
 * Points run on the PR 2 parallel harness (--jobs), committed in
 * submission order, so output is byte-identical at any job count.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/rng.hh"
#include "harness/parallel_sweep.hh"
#include "verify/verifier.hh"

using namespace memwall;
using namespace memwall::benchutil;

namespace {

enum class Pattern { FalseSharing, HotContended, Migratory, RandomMix };

struct FaultSetting
{
    const char *name;
    double nack_rate;
    double bit_error_rate;
    double drop_rate;
};

constexpr FaultSetting kFaultSettings[] = {
    {"none", 0.0, 0.0, 0.0},
    {"low", 0.02, 1e-6, 1e-4},
    {"high", 0.2, 1e-5, 1e-3},
};

struct ArchSetting
{
    const char *name;
    NodeArch arch;
};

constexpr ArchSetting kArchs[] = {
    {"reference", NodeArch::ReferenceCcNuma},
    {"integrated", NodeArch::Integrated},
    {"scoma", NodeArch::SimpleComa},
};

NumaConfig
machineConfig(const ArchSetting &arch, const FaultSetting &fault,
              std::uint64_t seed, unsigned nodes)
{
    NumaConfig config;
    config.nodes = nodes;
    config.arch = arch.arch;
    config.victim_cache = arch.arch == NodeArch::Integrated;
    config.protocol_fault.nack_rate = fault.nack_rate;
    config.protocol_fault.seed = seed;
    if (fault.bit_error_rate > 0.0 || fault.drop_rate > 0.0) {
        config.model_fabric_contention = true;
        config.fabric.fault.bit_error_rate = fault.bit_error_rate;
        config.fabric.fault.drop_rate = fault.drop_rate;
        config.fabric.fault.seed = seed ^ 0x5bf0'3635'dcf8'2aedULL;
    }
    return config;
}

/** Drive @p accesses references of @p pattern; returns end time. */
Tick
drivePattern(NumaMachine &machine, Rng &rng, Pattern pattern,
             std::uint64_t accesses, Tick now)
{
    const unsigned nodes = machine.config().nodes;
    const Addr heap = Addr{1} << 20;
    for (std::uint64_t i = 0; i < accesses; ++i) {
        unsigned cpu = 0;
        Addr addr = heap;
        bool store = false;
        switch (pattern) {
          case Pattern::FalseSharing:
            // Every node hammers its own word of the same handful
            // of 32-byte units: maximal invalidation traffic.
            cpu = static_cast<unsigned>(i % nodes);
            addr = heap + (i / nodes % 8) * 32 + (cpu % 8) * 4;
            store = rng.bernoulli(0.5);
            break;
          case Pattern::HotContended:
            // All nodes read-modify-write a few hot blocks.
            cpu = static_cast<unsigned>(rng.uniformInt(nodes));
            addr = heap + rng.uniformInt(4) * 32;
            store = (i & 1) != 0;
            break;
          case Pattern::Migratory:
            // Ownership walks node to node: each reads the previous
            // owner's dirty data, then writes it (lock-protected
            // data structure shape).
            cpu = static_cast<unsigned>(i / 2 % nodes);
            addr = heap + (i / (2 * nodes) % 16) * 32;
            store = (i & 1) != 0;
            break;
          case Pattern::RandomMix:
            cpu = static_cast<unsigned>(rng.uniformInt(nodes));
            addr = heap + rng.uniformInt(512) * 32;
            store = rng.bernoulli(0.3);
            break;
        }
        now += machine.access(cpu, addr, store, now);
    }
    return now;
}

struct PointResult
{
    std::uint64_t checked = 0;
    std::uint64_t violations = 0;
    std::uint64_t machine_checks = 0;
    std::uint64_t recorded = 0;
    std::string first_violation;
};

PointResult
runPoint(const ArchSetting &arch, const FaultSetting &fault,
         std::uint64_t seed, std::uint64_t accesses_per_pattern)
{
    NumaMachine machine(
        machineConfig(arch, fault, seed, /*nodes=*/8));
    VerifyConfig vc;
    vc.policy = ViolationPolicy::Count;
    CoherenceVerifier verifier(machine, vc);
    // Dumps from machine checks under fault injection are expected;
    // keep them out of the report stream.
    std::ostringstream sink;
    verifier.setReportStream(sink);

    Rng rng(seed);
    Tick now = 0;
    for (Pattern p :
         {Pattern::FalseSharing, Pattern::HotContended,
          Pattern::Migratory, Pattern::RandomMix})
        now = drivePattern(machine, rng, p, accesses_per_pattern,
                           now);

    PointResult res;
    res.checked = verifier.checked();
    res.violations = verifier.violations();
    res.machine_checks = machine.protocolFailures();
    res.recorded = verifier.recorder().recorded();
    if (!verifier.firstViolations().empty())
        res.first_violation = verifier.firstViolations()[0].what;
    return res;
}

struct MutationResult
{
    std::uint64_t mutated = 0;
    std::uint64_t violations = 0;
    bool dumped = false;
    std::string first_violation;
};

MutationResult
runMutation(const ArchSetting &arch, ProtocolMutation mutation,
            std::uint64_t seed, std::uint64_t accesses_per_pattern)
{
    NumaConfig config =
        machineConfig(arch, kFaultSettings[0], seed, /*nodes=*/4);
    config.mutation = mutation;
    NumaMachine machine(config);
    VerifyConfig vc;
    vc.policy = ViolationPolicy::Count;
    CoherenceVerifier verifier(machine, vc);
    std::ostringstream dump;
    verifier.setReportStream(dump);

    Rng rng(seed);
    Tick now = 0;
    for (Pattern p :
         {Pattern::FalseSharing, Pattern::HotContended,
          Pattern::Migratory, Pattern::RandomMix})
        now = drivePattern(machine, rng, p, accesses_per_pattern,
                           now);

    MutationResult res;
    res.mutated = machine.mutatedTransitions();
    res.violations = verifier.violations();
    res.dumped =
        dump.str().find("flight recorder dump") != std::string::npos;
    if (!verifier.firstViolations().empty())
        res.first_violation = verifier.firstViolations()[0].what;
    return res;
}

constexpr ProtocolMutation kMutations[] = {
    ProtocolMutation::SkipInvalidate,
    ProtocolMutation::DropSharer,
    ProtocolMutation::WrongOwner,
    ProtocolMutation::MissedDowngrade,
};

} // namespace

int
main(int argc, char **argv)
{
    const auto flags = {"--mutate", "--seeds"};
    auto opt = parse(argc, argv, flags);
    const std::string seeds = opt.extraOr("--seeds", "4");
    const std::uint64_t nseeds =
        parseUnsignedFlag(seeds.c_str(), "--seeds", argv[0], flags);
    const std::string mutate_only = opt.extraOr("--mutate", "");
    const auto selected = [&](ProtocolMutation m) {
        return mutate_only.empty() || mutate_only == "all" ||
               mutate_only == protocolMutationName(m);
    };
    // No seeds or no mutation would pass having checked nothing.
    if (nseeds == 0)
        usageError(argv[0], flags,
                   "invalid value '" + seeds + "' for --seeds");
    if (std::none_of(std::begin(kMutations), std::end(kMutations),
                     selected))
        usageError(argv[0], flags,
                   "invalid value '" + mutate_only + "' for --mutate");
    banner("protocol torture tester (shadow checker + mutations)",
           opt);

    const std::uint64_t accesses =
        opt.refs ? opt.refs : (opt.quick ? 2'000 : 20'000);

    bool all_ok = true;

    if (mutate_only.empty()) {
        // ---- Part 1: the torture matrix ---------------------------
        std::printf("torture matrix: %u archs x %u fault settings x "
                    "%llu seeds, %llu refs/pattern\n\n",
                    static_cast<unsigned>(std::size(kArchs)),
                    static_cast<unsigned>(
                        std::size(kFaultSettings)),
                    static_cast<unsigned long long>(nseeds),
                    static_cast<unsigned long long>(accesses));
        std::printf("%-12s %-6s %-10s %10s %10s %8s %6s\n", "arch",
                    "fault", "seed", "checked", "violations",
                    "mchecks", "ok");

        ParallelSweep<PointResult> sweep(opt.jobs, opt.seed);
        for (const ArchSetting &arch : kArchs) {
            for (const FaultSetting &fault : kFaultSettings) {
                for (std::uint64_t s = 0; s < nseeds; ++s) {
                    sweep.submit(
                        [&arch, &fault,
                         accesses](const PointContext &ctx) {
                            return runPoint(arch, fault, ctx.seed,
                                            accesses);
                        },
                        [&arch, &fault, &all_ok](
                            const PointContext &ctx,
                            PointResult res) {
                            const bool ok = res.violations == 0;
                            all_ok = all_ok && ok;
                            std::printf("%-12s %-6s %-10llu %10llu "
                                        "%10llu %8llu %6s\n",
                                        arch.name, fault.name,
                                        static_cast<
                                            unsigned long long>(
                                            ctx.seed % 1'000'000),
                                        static_cast<
                                            unsigned long long>(
                                            res.checked),
                                        static_cast<
                                            unsigned long long>(
                                            res.violations),
                                        static_cast<
                                            unsigned long long>(
                                            res.machine_checks),
                                        ok ? "PASS" : "FAIL");
                            if (!ok)
                                std::printf(
                                    "    first violation: %s\n",
                                    res.first_violation.c_str());
                        });
                }
            }
        }
        sweep.finish();
        std::printf("\ntorture matrix: %s (%u points)\n\n",
                    all_ok ? "CLEAN" : "VIOLATIONS DETECTED",
                    static_cast<unsigned>(sweep.committed()));
    }

    // ---- Part 2: mutation mode (detector sensitivity) -------------
    std::printf("mutation mode: every corrupted transition must be "
                "caught\n");
    std::printf("%-18s %-12s %9s %10s %6s %10s\n", "mutation",
                "arch", "mutated", "violations", "dump", "result");
    bool mutations_ok = true;
    for (ProtocolMutation mutation : kMutations) {
        if (!selected(mutation))
            continue;
        for (const ArchSetting &arch : kArchs) {
            const MutationResult res = runMutation(
                arch, mutation, opt.seed,
                std::min<std::uint64_t>(accesses, 5'000));
            const bool detected = res.mutated > 0 &&
                                  res.violations > 0 && res.dumped;
            mutations_ok = mutations_ok && detected;
            std::printf("%-18s %-12s %9llu %10llu %6s %10s\n",
                        protocolMutationName(mutation), arch.name,
                        static_cast<unsigned long long>(res.mutated),
                        static_cast<unsigned long long>(
                            res.violations),
                        res.dumped ? "yes" : "no",
                        detected ? "DETECTED" : "MISSED");
        }
    }
    std::printf("\nmutation mode: %s\n",
                mutations_ok ? "ALL MUTATIONS DETECTED"
                             : "DETECTOR MISSED A MUTATION");

    all_ok = all_ok && mutations_ok;
    std::printf("\noverall: %s\n", all_ok ? "PASS" : "FAIL");
    return all_ok ? 0 : 1;
}
