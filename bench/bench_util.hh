/**
 * @file
 * Shared plumbing for the table/figure regeneration binaries.
 *
 * Every bench accepts:
 *   --refs N     measured references per workload (default varies)
 *   --quick      cut the workload sizes ~10x for smoke runs
 *   --seed S     RNG seed
 *   --jobs N     worker threads for the point sweep (default: one
 *                per hardware thread; 1 = serial reference run).
 *                Output is byte-identical for every N (see
 *                harness/parallel_sweep.hh).
 *   --format F   output format: "text" (default) or "json" for
 *                benches that support machine-readable results
 *                (e.g. validation_static_crosscheck per-kernel
 *                deltas).
 *
 * A bench may register additional value-taking flags (e.g.
 * `--reseeds 0,777,31415`) by passing them to parse(); their values
 * land in Options::extra keyed by flag name, and the comma-list
 * helpers below turn them into numbers.
 */

#ifndef MEMWALL_BENCH_BENCH_UTIL_HH
#define MEMWALL_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/parse_unsigned.hh"
#include "harness/thread_pool.hh"

namespace memwall::benchutil {

/** Default for --jobs: one worker per hardware thread, at least 1. */
inline unsigned
defaultJobs()
{
    return ThreadPool::defaultWorkers();
}

struct Options
{
    std::uint64_t refs = 0;  ///< 0 = use the bench's default
    bool quick = false;
    std::uint64_t seed = 42;
    /** Sweep worker threads; 1 runs points serially inline. */
    unsigned jobs = defaultJobs();
    /** Output format: "text" or "json". */
    std::string format = "text";

    bool json() const { return format == "json"; }
    /** Values of the bench's registered extra flags, keyed by the
     * flag spelled with its dashes (e.g. "--reseeds"). */
    std::map<std::string, std::string> extra;

    /** Value of extra flag @p flag, or @p fallback if not given. */
    std::string
    extraOr(const std::string &flag,
            const std::string &fallback) const
    {
        auto it = extra.find(flag);
        return it != extra.end() ? it->second : fallback;
    }
};

inline void
printUsage(const char *prog,
           std::initializer_list<const char *> extra_flags)
{
    std::fprintf(stderr,
                 "usage: %s [--refs N] [--quick] [--seed S] "
                 "[--jobs N] [--format text|json]",
                 prog);
    for (const char *flag : extra_flags)
        std::fprintf(stderr, " [%s V[,V...]]", flag);
    std::fprintf(stderr, "\n");
}

[[noreturn]] inline void
usageError(const char *prog,
           std::initializer_list<const char *> extra_flags,
           const std::string &why)
{
    std::fprintf(stderr, "error: %s\n", why.c_str());
    printUsage(prog, extra_flags);
    std::exit(2);
}

/**
 * Parse @p text, the value of @p flag, whole as parseUnsigned() does
 * into a @p T; a sign, junk or a value @p T cannot hold is an error
 * naming the flag rather than a silent default or wrap-around.
 */
template <typename T = std::uint64_t>
T
parseUnsignedFlag(const char *text, const char *flag, const char *prog,
                  std::initializer_list<const char *> extra_flags)
{
    const std::optional<T> value = parseUnsigned<T>(text);
    if (!value)
        usageError(prog, extra_flags,
                   std::string("invalid value '") + text + "' for " +
                       flag);
    return *value;
}

inline Options
parse(int argc, char **argv,
      std::initializer_list<const char *> extra_flags = {})
{
    Options opt;
    const char *prog = argv[0];
    // A value-taking flag in final position has no value: report it
    // by name instead of the generic usage line.
    auto value_of = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            usageError(prog, extra_flags,
                       std::string("missing value for ") + argv[i]);
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            opt.quick = true;
            continue;
        }
        if (std::strcmp(argv[i], "--refs") == 0) {
            opt.refs = parseUnsignedFlag(value_of(i), "--refs", prog,
                                         extra_flags);
            continue;
        }
        if (std::strcmp(argv[i], "--seed") == 0) {
            opt.seed = parseUnsignedFlag(value_of(i), "--seed", prog,
                                         extra_flags);
            continue;
        }
        if (std::strcmp(argv[i], "--format") == 0) {
            opt.format = value_of(i);
            if (opt.format != "text" && opt.format != "json")
                usageError(prog, extra_flags,
                           std::string("invalid value '") +
                               opt.format + "' for --format");
            continue;
        }
        if (std::strcmp(argv[i], "--jobs") == 0) {
            const unsigned jobs = parseUnsignedFlag<unsigned>(
                value_of(i), "--jobs", prog, extra_flags);
            // 0 = auto-detect, same as omitting the flag.
            opt.jobs = jobs ? jobs : defaultJobs();
            continue;
        }
        bool matched = false;
        for (const char *flag : extra_flags) {
            if (std::strcmp(argv[i], flag) == 0) {
                opt.extra[flag] = value_of(i);
                matched = true;
                break;
            }
        }
        if (matched)
            continue;
        usageError(prog, extra_flags,
                   std::string("unknown flag '") + argv[i] + "'");
    }
    return opt;
}

/** Split @p list on commas ("1,2,3" -> {"1","2","3"}). */
inline std::vector<std::string>
splitList(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) {
            out.push_back(list.substr(start));
            break;
        }
        out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

/**
 * Parse @p list, the value of @p flag, as comma-separated unsigned
 * integers, each item whole as parseUnsignedFlag() does.
 */
inline std::vector<std::uint64_t>
parseU64List(const std::string &list, const char *flag,
             const char *prog,
             std::initializer_list<const char *> extra_flags)
{
    std::vector<std::uint64_t> out;
    for (const std::string &item : splitList(list))
        out.push_back(
            parseUnsignedFlag(item.c_str(), flag, prog, extra_flags));
    return out;
}

/**
 * Parse @p list, the value of @p flag, as comma-separated doubles
 * ("0,1e-6,5e-5"). Each item must be a whole, finite number in
 * [0, @p max]; anything else is a usage error naming the flag and
 * the item.
 */
inline std::vector<double>
parseDoubleList(const std::string &list, const char *flag,
                const char *prog,
                std::initializer_list<const char *> extra_flags,
                double max = std::numeric_limits<double>::max())
{
    std::vector<double> out;
    for (const std::string &item : splitList(list)) {
        const char *text = item.c_str();
        char *end = nullptr;
        errno = 0;
        const double value = std::strtod(text, &end);
        if (end == text || *end != '\0' || errno == ERANGE ||
            !std::isfinite(value) || value < 0.0 || value > max)
            usageError(prog, extra_flags,
                       "invalid value '" + item + "' for " + flag);
        out.push_back(value);
    }
    return out;
}

inline void
banner(const std::string &what, const Options &opt)
{
    std::printf("================================================="
                "=============\n");
    std::printf("memwall reproduction: %s\n", what.c_str());
    std::printf("seed=%llu%s\n",
                static_cast<unsigned long long>(opt.seed),
                opt.quick ? "  (quick mode)" : "");
    std::printf("================================================="
                "=============\n\n");
}

} // namespace memwall::benchutil

#endif // MEMWALL_BENCH_BENCH_UTIL_HH
