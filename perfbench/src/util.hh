/**
 * @file
 * Shared plumbing of the perfbench program: clocks, seeded input
 * generation, order statistics, resource usage, the span recorder
 * and the report perfbench prints for run.py.
 *
 * Everything here is the benchmark's own code. It times the memwall
 * libraries from outside, around calls into their public functions,
 * and never reaches into them.
 */

#ifndef PERFBENCH_UTIL_HH
#define PERFBENCH_UTIL_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// --------------------------------------------------------------------
// Clocks

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock since perfbench started. */
std::int64_t nowNs();

/** Seconds on the steady clock since perfbench started. */
inline double
nowS()
{
    return static_cast<double>(nowNs()) * 1e-9;
}

// --------------------------------------------------------------------
// Seeded inputs

/** One splitmix64 step: advances @p state, returns a mixed value. */
std::uint64_t splitmix64(std::uint64_t &state);

/** A value that depends only on (@p seed, @p salt). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/** Fisher-Yates shuffle of @p v driven by @p seed. */
template <typename T>
void
seededShuffle(std::vector<T> &v, std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (std::size_t i = v.size(); i > 1; --i) {
        const std::size_t j = splitmix64(state) % i;
        std::swap(v[i - 1], v[j]);
    }
}

// --------------------------------------------------------------------
// Digests and order statistics

/** FNV-1a 64 of @p bytes (the output-check digest). */
std::uint64_t fnv1a(const std::string &bytes);

/** 16 lowercase hex digits. */
std::string hex64(std::uint64_t v);

/** Median of @p v (mean of the middle pair); 0 when empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p in [0, 100] of @p v; 0 when empty. */
double percentile(std::vector<double> v, double p);

// --------------------------------------------------------------------
// Resource usage

/** Process-wide CPU time, context switches and peak RSS. */
struct Usage
{
    double wall_s = 0.0;
    double user_s = 0.0;
    double sys_s = 0.0;
    std::uint64_t ctx_switches = 0; ///< voluntary + involuntary
    double maxrss_mb = 0.0;
};

Usage usageNow();

/** CPU seconds of every thread of this process, ended ones included. */
double cpuNowS();

/** Peak resident set (VmHWM) of process @p pid in MB; 0 if unknown. */
double peakRssMbOf(int pid);

// --------------------------------------------------------------------
// Spans

/** One timed call into a layer. */
struct Span
{
    const char *name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1; ///< index into the span list, -1 = root
    std::uint64_t request = 0; ///< request id (0 = none)
};

/**
 * In-memory span recorder. Off unless enabled; a disabled recorder
 * costs one branch per scope. Spans are written out once, when the
 * run ends.
 */
class Tracer
{
  public:
    void enable(bool on) { on_ = on; }
    bool on() const { return on_; }

    /** Open a span; returns its index (or -1 when off). */
    std::int32_t open(const char *name, std::uint64_t request);
    void close(std::int32_t index);

    /** Durations (seconds) of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    std::size_t size() const;

    /** Write all spans as one JSON document to @p path. */
    bool write(const std::string &path, std::string *why) const;

  private:
    bool on_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_
};

/** The program's single recorder. */
Tracer &tracer();

/** RAII span around one layer call; the enclosing span is its parent. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, std::uint64_t request = 0);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    std::int32_t index_ = -1;
    std::int32_t saved_parent_ = -1;
};

// --------------------------------------------------------------------
// The report

/** What one perfbench invocation measured and checked. */
class Report
{
  public:
    /** Sets @p name unless it is set already: a workload's own
     *  measurement wins over a probe's. */
    void metric(const std::string &name, double value,
                const std::string &unit);
    bool has(const std::string &name) const;

    /** A seed-independent document, compared by run.py against the
     *  digest kept with the benchmark. */
    void document(const std::string &name, const std::string &bytes);

    /** One checked operation: counts it, and as failed unless @p ok. */
    void check(bool ok, const std::string &what);

    /** A free-form fact for the summary line (sample counts...). */
    void note(const std::string &key, const std::string &value);

    /** One JSON object, on one line. */
    std::string json() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> documents_;
    std::vector<std::string> failures_;
    std::vector<std::pair<std::string, std::string>> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** Each column's median over the rows. */
std::vector<double> columnMedians(const std::vector<std::vector<double>> &rows);

/**
 * End-to-end metrics of a batch workload from its untraced passes.
 * @p rows holds one row per pass: the seconds of each point in a fixed
 * order, then one last column for rendering and loop overhead. Each
 * column's median over the passes estimates that point's cost, and
 * pass_s is their sum; a pass the host slowed moves no median unless
 * half the passes were slowed, and the median does not drift with the
 * number of passes. sim_refs_per_s and req_per_s (documents per
 * second) follow from pass_s; op_p50_ms / op_p90_ms are percentiles
 * of the per-point medians.
 */
void reportPasses(const std::vector<std::vector<double>> &rows,
                  double sim_refs_per_pass, double docs_per_pass,
                  Report &report);

/**
 * Tracing overhead of a batch workload: the per-point medians of its
 * traced passes, summed, over those of its untraced passes, minus one.
 * Both sides use the pass_s estimator, so host drift between single
 * passes does not show up as overhead.
 */
double tracingOverhead(const std::vector<std::vector<double>> &traced,
                       const std::vector<std::vector<double>> &untraced);

/** JSON string literal for @p s (quotes included). */
std::string jsonQuote(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_UTIL_HH
