/**
 * @file
 * mwtrace — reference-trace utility.
 *
 *   mwtrace info  trace.mwtr            summary statistics
 *   mwtrace gen   WORKLOAD N out.mwtr   capture N refs of a proxy
 *   mwtrace sim   trace.mwtr            replay into the standard
 *                                       cache comparison set
 *
 * Traces use the MWTR binary format (trace/trace_file.hh), so any
 * front end — proxies, the MW32 interpreter via `mwasm run --trace`,
 * or external generators — can feed the same cache models.
 */

#include <cstdio>
#include <cstring>
#include <map>

#include "common/parse_unsigned.hh"
#include "core/memwall.hh"

using namespace memwall;

namespace {

int
cmdInfo(const char *path)
{
    TraceBuffer trace;
    if (!trace.load(path)) {
        std::fprintf(stderr, "mwtrace: cannot load '%s'\n", path);
        return 1;
    }
    std::uint64_t fetches = 0, loads = 0, stores = 0;
    Addr min_addr = invalid_addr, max_addr = 0;
    std::map<std::uint64_t, std::uint64_t> pages;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const MemRef &r = trace[i];
        switch (r.type) {
          case RefType::IFetch: ++fetches; break;
          case RefType::Load: ++loads; break;
          case RefType::Store: ++stores; break;
        }
        if (r.type != RefType::IFetch) {
            min_addr = std::min(min_addr, r.addr);
            max_addr = std::max(max_addr, r.addr);
            ++pages[r.addr / 4096];
        }
    }
    std::printf("%s: %zu references\n", path, trace.size());
    std::printf("  fetches %llu, loads %llu, stores %llu\n",
                static_cast<unsigned long long>(fetches),
                static_cast<unsigned long long>(loads),
                static_cast<unsigned long long>(stores));
    if (loads + stores > 0) {
        std::printf("  data range 0x%llx..0x%llx, %zu pages "
                    "touched (%.1f KiB working set)\n",
                    static_cast<unsigned long long>(min_addr),
                    static_cast<unsigned long long>(max_addr),
                    pages.size(), pages.size() * 4.0);
    }
    return 0;
}

int
cmdGen(const char *workload, const char *count_str,
       const char *out_path)
{
    const std::optional<std::uint64_t> count = parseUnsigned(count_str);
    if (!count) {
        std::fprintf(stderr, "mwtrace: invalid value '%s' for N\n",
                     count_str);
        return 2;
    }
    const SpecWorkload &w = findWorkload(workload);
    SyntheticWorkload source(w.proxy);
    TraceBuffer trace;
    source.generate(*count, trace.sink());
    if (!trace.save(out_path)) {
        std::fprintf(stderr, "mwtrace: cannot write '%s'\n",
                     out_path);
        return 1;
    }
    std::printf("wrote %zu references of %s to %s\n", trace.size(),
                w.name.c_str(), out_path);
    return 0;
}

int
cmdSim(const char *path)
{
    TraceBuffer trace;
    if (!trace.load(path)) {
        std::fprintf(stderr, "mwtrace: cannot load '%s'\n", path);
        return 1;
    }

    ColumnCacheConfig pim_cfg;
    ColumnInstrCache icache(pim_cfg);
    ColumnDataCache dcache(pim_cfg);
    ColumnCacheConfig no_vc = pim_cfg;
    no_vc.victim_enabled = false;
    ColumnDataCache dcache_novc(no_vc);
    Cache conv16({16 * KiB, 32, 1, ReplPolicy::LRU, 32, "c16"});
    Cache conv64({64 * KiB, 32, 1, ReplPolicy::LRU, 32, "c64"});

    trace.generate(trace.size(), [&](const MemRef &r) {
        if (r.type == RefType::IFetch) {
            icache.fetch(r.pc);
        } else {
            const bool store = r.type == RefType::Store;
            dcache.access(r.addr, store);
            dcache_novc.access(r.addr, store);
            conv16.access(r.addr, store);
            conv64.access(r.addr, store);
        }
    });

    std::printf("%s replayed through the standard set:\n", path);
    std::printf("  proposed I-cache (8K/512B)   : %6.3f%% miss\n",
                100.0 * icache.stats().missRate());
    std::printf("  proposed D-cache + victim    : %6.3f%% miss\n",
                100.0 * dcache.stats().missRate());
    std::printf("  proposed D-cache, no victim  : %6.3f%% miss\n",
                100.0 * dcache_novc.stats().missRate());
    std::printf("  conventional 16K DM (32B)    : %6.3f%% miss\n",
                100.0 * conv16.stats().missRate());
    std::printf("  conventional 64K DM (32B)    : %6.3f%% miss\n",
                100.0 * conv64.stats().missRate());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 3 && std::strcmp(argv[1], "info") == 0)
        return cmdInfo(argv[2]);
    if (argc >= 5 && std::strcmp(argv[1], "gen") == 0)
        return cmdGen(argv[2], argv[3], argv[4]);
    if (argc >= 3 && std::strcmp(argv[1], "sim") == 0)
        return cmdSim(argv[2]);
    std::fprintf(stderr,
                 "usage: mwtrace info FILE | gen WORKLOAD N FILE | "
                 "sim FILE\n");
    return 2;
}
