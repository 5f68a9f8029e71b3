/**
 * @file
 * mwmp — run a SPLASH kernel on a configurable machine from the
 * command line.
 *
 *   mwmp KERNEL [--cpus N] [--arch ARCH] [--scale S] [--no-victim]
 *        [--contention]
 *
 *   KERNEL: lu | mp3d | ocean | water | pthor
 *   ARCH  : integrated (default) | reference | scoma
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parse_unsigned.hh"
#include "core/memwall.hh"

using namespace memwall;

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: mwmp KERNEL [--cpus N] [--arch "
                     "integrated|reference|scoma] [--scale S] "
                     "[--no-victim] [--contention]\n");
        return 2;
    }
    const std::string kernel = argv[1];
    SplashParams params;
    params.nprocs = 4;
    params.scale = 0.2;
    params.machine.arch = NodeArch::Integrated;
    // Usage error for the value argv[i] of flag argv[i - 1].
    const auto invalid = [argv](int i) {
        std::fprintf(stderr, "mwmp: invalid value '%s' for %s\n",
                     argv[i], argv[i - 1]);
        return 2;
    };
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--cpus") == 0 && i + 1 < argc) {
            const auto cpus = parseUnsigned<unsigned>(argv[++i]);
            if (!cpus || *cpus == 0 || *cpus > DirEntry::max_nodes)
                return invalid(i);
            params.nprocs = *cpus;
        } else if (std::strcmp(argv[i], "--scale") == 0 &&
                   i + 1 < argc) {
            char *end = nullptr;
            params.scale = std::strtod(argv[++i], &end);
            if (*end != '\0' || !std::isfinite(params.scale) ||
                params.scale <= 0.0)
                return invalid(i);
        } else if (std::strcmp(argv[i], "--arch") == 0 &&
                   i + 1 < argc) {
            const std::string arch = argv[++i];
            if (arch == "integrated")
                params.machine.arch = NodeArch::Integrated;
            else if (arch == "reference")
                params.machine.arch = NodeArch::ReferenceCcNuma;
            else if (arch == "scoma")
                params.machine.arch = NodeArch::SimpleComa;
            else {
                std::fprintf(stderr, "mwmp: unknown arch '%s'\n",
                             arch.c_str());
                return 2;
            }
        } else if (std::strcmp(argv[i], "--no-victim") == 0) {
            params.machine.victim_cache = false;
        } else if (std::strcmp(argv[i], "--contention") == 0) {
            params.machine.model_fabric_contention = true;
        } else {
            std::fprintf(stderr, "mwmp: unknown option '%s'\n",
                         argv[i]);
            return 2;
        }
    }
    params.machine.nodes = params.nprocs;

    const SplashResult res = runSplash(kernel, params);
    std::printf("%s on %u cpus (scale %.2f):\n", kernel.c_str(),
                params.nprocs, params.scale);
    std::printf("  makespan      : %llu cycles (%.2f ms at "
                "200 MHz)\n",
                static_cast<unsigned long long>(res.makespan),
                res.makespan / 200e3);
    std::printf("  accesses      : %llu\n",
                static_cast<unsigned long long>(res.accesses));
    std::printf("  remote loads  : %llu\n",
                static_cast<unsigned long long>(res.remote_loads));
    std::printf("  invalidations : %llu\n",
                static_cast<unsigned long long>(
                    res.invalidations));
    std::printf("  checksum      : %.6g\n", res.checksum);
    return 0;
}
