/**
 * @file
 * perfbench — the benchmark program run.py builds and invokes.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --work-dir DIR --server-bin PATH [--setup-only]
 *
 * Workloads: spec-missrate, splash-mp, server-catalog. Prints one
 * JSON report as its last stdout line: attempted/failed operations,
 * metrics with units, digests of the seed-independent documents,
 * failure details and provenance. With --trace 1 the spans are also
 * written to DIR/trace-<workload>-<seed>.json. --setup-only does the
 * workload's set-up, prints "ready" and exits (run.py times it).
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "server/protocol.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --server-bin PATH "
                 "[--setup-only]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
number(const std::string &flag, const char *text)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage("invalid value '" + std::string(text) + "' for " + flag);
    return v;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    opt.nproc = std::max(1u, std::thread::hardware_concurrency());
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = number(arg, value());
        else if (arg == "--seconds")
            opt.seconds = static_cast<double>(number(arg, value()));
        else if (arg == "--trace")
            opt.trace = number(arg, value()) != 0;
        else if (arg == "--work-dir")
            opt.work_dir = value();
        else if (arg == "--server-bin")
            opt.server_bin = value();
        else if (arg == "--setup-only")
            opt.setup_only = true;
        else
            usage("unknown flag '" + arg + "'");
    }
    if (opt.workload != "spec-missrate" && opt.workload != "splash-mp" &&
        opt.workload != "server-catalog")
        usage("unknown workload '" + opt.workload + "'");
    if (opt.work_dir.empty() || opt.server_bin.empty())
        usage("--work-dir and --server-bin are required");
    return opt;
}

void
provenance(const Options &opt, Report &report)
{
    report.note("workload", opt.workload);
    report.note("seed", std::to_string(opt.seed));
    report.note("nproc", std::to_string(opt.nproc));
    report.note("compiler", PERFBENCH_COMPILER);
    report.note("build_type", PERFBENCH_BUILD_TYPE);
#ifdef __OPTIMIZE__
    report.note("optimized", "true");
#else
    report.note("optimized", "false");
#endif
    report.note("build_id", memwall::server::gitDescribe());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    std::error_code ec;
    std::filesystem::create_directories(opt.work_dir, ec);
    if (ec)
        usage("cannot create " + opt.work_dir + ": " + ec.message());

    if (opt.setup_only) {
        if (opt.workload == "spec-missrate")
            setupSpecMissrate(opt);
        else if (opt.workload == "splash-mp")
            setupSplashMp(opt);
        std::printf("ready\n");
        std::fflush(stdout);
        return 0;
    }

    Report report;
    provenance(opt, report);
    if (opt.workload == "spec-missrate")
        runSpecMissrate(opt, report);
    else if (opt.workload == "splash-mp")
        runSplashMp(opt, report);
    else
        runServerCatalog(opt, report);

    if (opt.trace) {
        runProbes(opt, report);
        const std::string path = opt.work_dir + "/trace-" + opt.workload +
                                 "-" + std::to_string(opt.seed) + ".json";
        std::string why;
        report.check(tracer().write(path, &why), why);
        report.note("spans", std::to_string(tracer().size()));
        report.note("trace_file", path);
    }
    std::printf("%s\n", report.json().c_str());
    return 0;
}
