#include "util.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <time.h>

namespace perfbench {

namespace {

const Clock::time_point g_start = Clock::now();

/** The innermost open span of the calling thread. */
thread_local std::int32_t t_parent = -1;

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - g_start)
        .count();
}

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t state = seed ^ (salt * 0xd1342543de82ef95ULL);
    splitmix64(state);
    return splitmix64(state);
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx = rank < 1.0
        ? 0
        : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
    return v[idx];
}

Usage
usageNow()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.wall_s = nowS();
    u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw) +
                     static_cast<std::uint64_t>(ru.ru_nivcsw);
    u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return u;
}

double
cpuNowS()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMbOf(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    return 0.0;
}

// --------------------------------------------------------------------

std::int32_t
Tracer::open(const char *name, std::uint64_t request)
{
    Span s;
    s.name = name;
    s.parent = t_parent;
    s.request = request;
    s.start_ns = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
}

void
Tracer::close(std::int32_t index)
{
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.end_ns != 0 && name == s.name)
            out.push_back(static_cast<double>(s.end_ns - s.start_ns) *
                          1e-9);
    return out;
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
Tracer::write(const std::string &path, std::string *why) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) {
        *why = "cannot write " + path;
        return false;
    }
    out << "{\"spans\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "{\"id\":" << i << ",\"name\":" << jsonQuote(s.name)
            << ",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) {
        *why = "short write to " + path;
        return false;
    }
    return true;
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

SpanScope::SpanScope(const char *name, std::uint64_t request)
{
    Tracer &t = tracer();
    if (!t.on())
        return;
    index_ = t.open(name, request);
    saved_parent_ = t_parent;
    t_parent = index_;
}

SpanScope::~SpanScope()
{
    if (index_ < 0)
        return;
    tracer().close(index_);
    t_parent = saved_parent_;
}

// --------------------------------------------------------------------

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::vector<double>
columnMedians(const std::vector<std::vector<double>> &rows)
{
    std::vector<double> out;
    if (rows.empty())
        return out;
    for (std::size_t c = 0; c < rows.front().size(); ++c) {
        std::vector<double> column;
        for (const auto &row : rows)
            column.push_back(row[c]);
        out.push_back(median(std::move(column)));
    }
    return out;
}

void
reportPasses(const std::vector<std::vector<double>> &rows,
             double sim_refs_per_pass, double docs_per_pass,
             Report &report)
{
    const std::vector<double> cols = columnMedians(rows);
    double pass_s = 0.0;
    for (const double v : cols)
        pass_s += v;
    const std::vector<double> points(cols.begin(), cols.end() - 1);
    report.metric("pass_s", pass_s, "s");
    report.metric("sim_refs_per_s", sim_refs_per_pass / pass_s, "1/s");
    report.metric("req_per_s", docs_per_pass / pass_s, "1/s");
    report.metric("op_p50_ms", percentile(points, 50) * 1e3, "ms");
    report.metric("op_p90_ms", percentile(points, 90) * 1e3, "ms");
    report.note("passes", std::to_string(rows.size()));
    report.note("points", std::to_string(points.size()));
}

double
tracingOverhead(const std::vector<std::vector<double>> &traced,
                const std::vector<std::vector<double>> &untraced)
{
    double on = 0.0, off = 0.0;
    for (const double v : columnMedians(traced))
        on += v;
    for (const double v : columnMedians(untraced))
        off += v;
    return on / off - 1.0;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!has(name))
        metrics_.push_back({name, value, unit});
}

bool
Report::has(const std::string &name) const
{
    for (const Metric &m : metrics_)
        if (m.name == name)
            return true;
    return false;
}

void
Report::document(const std::string &name, const std::string &bytes)
{
    documents_.emplace_back(name, hex64(fnv1a(bytes)));
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (failures_.size() < 20)
        failures_.push_back(what);
}

void
Report::note(const std::string &key, const std::string &value)
{
    notes_.emplace_back(key, value);
}

std::string
Report::json() const
{
    std::string out = "{\"attempted\":" + std::to_string(attempted_) +
                      ",\"failed\":" + std::to_string(failed_) +
                      ",\"metrics\":{";
    const auto sep = [&out](std::size_t i) {
        if (i)
            out += ',';
    };
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        sep(i);
        out += jsonQuote(metrics_[i].name) + ":{\"value\":" +
               number(metrics_[i].value) +
               ",\"unit\":" + jsonQuote(metrics_[i].unit) + "}";
    }
    out += "},\"documents\":[";
    for (std::size_t i = 0; i < documents_.size(); ++i) {
        sep(i);
        out += '[';
        out += jsonQuote(documents_[i].first) + "," +
               jsonQuote(documents_[i].second) + "]";
    }
    out += "],\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
        sep(i);
        out += jsonQuote(failures_[i]);
    }
    out += "],\"notes\":{";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
        sep(i);
        out += jsonQuote(notes_[i].first) + ":" +
               jsonQuote(notes_[i].second);
    }
    out += "}}";
    return out;
}

} // namespace perfbench
