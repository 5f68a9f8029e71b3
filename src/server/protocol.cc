#include "server/protocol.hh"

#include <cstdio>

#include "checkpoint/codec.hh"
#include "common/json_text.hh"
#include "server/json.hh"
#include "workloads/spec_tables.hh"

#ifndef MEMWALL_GIT_DESCRIBE
#define MEMWALL_GIT_DESCRIBE ""
#endif
#ifndef MEMWALL_SOURCE_DIGEST
#define MEMWALL_SOURCE_DIGEST "nodigest"
#endif

namespace memwall {
namespace server {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::BadFrame: return "bad_frame";
    case ErrorCode::Oversized: return "oversized";
    case ErrorCode::BadJson: return "bad_json";
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::UnknownExperiment: return "unknown_experiment";
    case ErrorCode::BadParam: return "bad_param";
    case ErrorCode::FaultInjectionDisabled:
        return "fault_injection_disabled";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::DeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::WorkerFailed: return "worker_failed";
    case ErrorCode::ShuttingDown: return "shutting_down";
    case ErrorCode::Internal: return "internal";
    }
    return "internal";
}

namespace {

struct ExperimentEntry
{
    Experiment exp;
    const char *name;
};

constexpr ExperimentEntry experiment_table[] = {
    {Experiment::Fig7, "fig7"},
    {Experiment::Fig8, "fig8"},
    {Experiment::Table1, "table1"},
    {Experiment::Table3, "table3"},
    {Experiment::Table4, "table4"},
    {Experiment::Fig13Lu, "fig13"},
    {Experiment::Fig14Mp3d, "fig14"},
    {Experiment::Fig15Ocean, "fig15"},
    {Experiment::Fig16Water, "fig16"},
    {Experiment::Fig17Pthor, "fig17"},
};

} // namespace

const char *
experimentName(Experiment exp)
{
    for (const auto &e : experiment_table)
        if (e.exp == exp)
            return e.name;
    return "?";
}

bool
parseExperimentName(const std::string &name, Experiment &out)
{
    for (const auto &e : experiment_table) {
        if (name == e.name) {
            out = e.exp;
            return true;
        }
    }
    return false;
}

bool
experimentIsSplash(Experiment exp)
{
    switch (exp) {
    case Experiment::Fig13Lu:
    case Experiment::Fig14Mp3d:
    case Experiment::Fig15Ocean:
    case Experiment::Fig16Water:
    case Experiment::Fig17Pthor:
        return true;
    default:
        return false;
    }
}

bool
experimentIsMissRate(Experiment exp)
{
    return exp == Experiment::Fig7 || exp == Experiment::Fig8;
}

bool
experimentAcceptsSample(Experiment exp)
{
    return experimentIsMissRate(exp) || experimentIsSplash(exp);
}

SplashFigure
splashFigureOf(Experiment exp)
{
    switch (exp) {
    case Experiment::Fig13Lu: return SplashFigure::Fig13Lu;
    case Experiment::Fig14Mp3d: return SplashFigure::Fig14Mp3d;
    case Experiment::Fig15Ocean: return SplashFigure::Fig15Ocean;
    case Experiment::Fig16Water: return SplashFigure::Fig16Water;
    default: return SplashFigure::Fig17Pthor;
    }
}

namespace {

/** Schema-check one field as an exact uint64, with a named error. */
bool
takeU64(const JsonValue &v, const char *field, std::uint64_t &out,
        ErrorCode &code, std::string &detail)
{
    if (!v.asU64(out)) {
        code = ErrorCode::BadParam;
        detail = std::string("field \"") + field +
                 "\" must be a non-negative integer";
        return false;
    }
    return true;
}

bool
parseFault(const JsonValue &v, RunRequest &run, ErrorCode &code,
           std::string &detail)
{
    if (!v.isObject()) {
        code = ErrorCode::BadRequest;
        detail = "field \"fault\" must be an object";
        return false;
    }
    run.has_fault = true;
    for (const auto &m : v.members) {
        if (m.first == "fail_points") {
            if (!takeU64(m.second, "fault.fail_points",
                         run.fault_fail_points, code, detail))
                return false;
        } else if (m.first == "hang_ms") {
            if (!takeU64(m.second, "fault.hang_ms",
                         run.fault_hang_ms, code, detail))
                return false;
        } else {
            code = ErrorCode::BadRequest;
            detail = "unknown fault field \"" + m.first + "\"";
            return false;
        }
    }
    return true;
}

} // namespace

bool
validateRun(const RunRequest &run, ErrorCode &code,
            std::string &detail)
{
    const std::string name = experimentName(run.experiment);
    if (run.has_sample && !experimentAcceptsSample(run.experiment)) {
        code = ErrorCode::BadParam;
        detail = "\"sample\" does not apply to experiment \"" + name +
                 "\" (tables are deterministic full runs)";
        return false;
    }
    if (run.nodes != 0 && !experimentIsSplash(run.experiment)) {
        code = ErrorCode::BadParam;
        detail = "\"nodes\" only applies to the SPLASH figures, not "
                 "\"" + name + "\"";
        return false;
    }
    if (run.nodes > splash_max_nodes) {
        code = ErrorCode::BadParam;
        detail = "\"nodes\" of " + std::to_string(run.nodes) +
                 " exceeds the maximum of " +
                 std::to_string(splash_max_nodes);
        return false;
    }
    if (run.refs != 0 && experimentIsSplash(run.experiment)) {
        code = ErrorCode::BadParam;
        detail = "\"refs\" does not apply to experiment \"" + name +
                 "\" (SPLASH problem size is set by \"quick\")";
        return false;
    }
    return true;
}

bool
parseRequest(const std::string &payload, Request &out,
             ErrorCode &code, std::string &detail)
{
    out = Request{};

    JsonValue root;
    std::string err;
    if (!parseJson(payload, root, err)) {
        code = ErrorCode::BadJson;
        detail = err;
        return false;
    }
    if (!root.isObject()) {
        code = ErrorCode::BadRequest;
        detail = "request must be a JSON object";
        return false;
    }

    // Grab the id first so even a failed validation can echo it.
    if (const JsonValue *id = root.find("id"); id && id->isString())
        out.id = id->text;

    bool have_experiment = false;
    for (const auto &m : root.members) {
        const std::string &key = m.first;
        const JsonValue &v = m.second;
        if (key == "id") {
            if (!v.isString()) {
                code = ErrorCode::BadRequest;
                detail = "field \"id\" must be a string";
                return false;
            }
        } else if (key == "cmd") {
            if (!v.isString()) {
                code = ErrorCode::BadRequest;
                detail = "field \"cmd\" must be a string";
                return false;
            }
            if (v.text == "run")
                out.cmd = Request::Cmd::Run;
            else if (v.text == "stats")
                out.cmd = Request::Cmd::Stats;
            else if (v.text == "ping")
                out.cmd = Request::Cmd::Ping;
            else if (v.text == "shutdown")
                out.cmd = Request::Cmd::Shutdown;
            else {
                code = ErrorCode::BadRequest;
                detail = "unknown cmd \"" + v.text + "\"";
                return false;
            }
        } else if (key == "experiment") {
            if (!v.isString()) {
                code = ErrorCode::BadRequest;
                detail = "field \"experiment\" must be a string";
                return false;
            }
            if (!parseExperimentName(v.text, out.run.experiment)) {
                code = ErrorCode::UnknownExperiment;
                detail = "unknown experiment \"" + v.text +
                         "\" (catalog: fig7 fig8 table1 table3 "
                         "table4 fig13 fig14 fig15 fig16 fig17)";
                return false;
            }
            have_experiment = true;
        } else if (key == "quick") {
            if (!v.isBool()) {
                code = ErrorCode::BadRequest;
                detail = "field \"quick\" must be a boolean";
                return false;
            }
            out.run.quick = v.boolean;
        } else if (key == "refs") {
            if (!takeU64(v, "refs", out.run.refs, code, detail))
                return false;
        } else if (key == "seed") {
            if (!takeU64(v, "seed", out.run.seed, code, detail))
                return false;
        } else if (key == "nodes") {
            if (!takeU64(v, "nodes", out.run.nodes, code, detail))
                return false;
        } else if (key == "sample") {
            if (!v.isString()) {
                code = ErrorCode::BadRequest;
                detail = "field \"sample\" must be a string (the "
                         "--sample plan syntax)";
                return false;
            }
            std::string why;
            if (!tryParseSamplingPlan(v.text, out.run.sample,
                                      &why)) {
                code = ErrorCode::BadParam;
                detail = "field \"sample\": " + why;
                return false;
            }
            out.run.has_sample = true;
        } else if (key == "deadline_ms") {
            if (!takeU64(v, "deadline_ms", out.run.deadline_ms, code,
                         detail))
                return false;
            if (out.run.deadline_ms > max_deadline_ms) {
                code = ErrorCode::BadParam;
                detail = "\"deadline_ms\" of " +
                         std::to_string(out.run.deadline_ms) +
                         " exceeds the maximum of " +
                         std::to_string(max_deadline_ms);
                return false;
            }
        } else if (key == "fault") {
            if (!parseFault(v, out.run, code, detail))
                return false;
        } else {
            code = ErrorCode::BadRequest;
            detail = "unknown field \"" + key + "\"";
            return false;
        }
    }

    if (out.cmd == Request::Cmd::Run) {
        if (!have_experiment) {
            code = ErrorCode::BadRequest;
            detail = "run request is missing \"experiment\"";
            return false;
        }
        if (!validateRun(out.run, code, detail))
            return false;
    }
    return true;
}

std::string
canonicalRunKey(const RunRequest &run)
{
    // Canonicalize through the same resolvers the bench binaries
    // use: {"quick":true} and the explicit refs it implies request
    // identical work and must collapse to one cache entry. The seed
    // and build id always close the key; a sampled request also
    // carries the plan hash, which covers every plan parameter.
    char buf[320];
    char sample[40] = "";
    if (run.has_sample)
        std::snprintf(sample, sizeof(sample), "|sample=%016llx",
                      static_cast<unsigned long long>(
                          samplingPlanHash(run.sample)));

    switch (run.experiment) {
    case Experiment::Fig7:
    case Experiment::Fig8: {
        const MissRateParams params =
            resolveMissRateParams(run.quick, run.refs);
        const MissRateFigure fig = run.experiment == Experiment::Fig7
            ? MissRateFigure::ICache
            : MissRateFigure::DCache;
        std::snprintf(
            buf, sizeof(buf),
            "%s|measured=%llu|warmup=%llu|seed=%llu%s|build=%s",
            missRateFigureName(fig),
            static_cast<unsigned long long>(params.measured_refs),
            static_cast<unsigned long long>(params.warmup_refs),
            static_cast<unsigned long long>(run.seed), sample,
            gitDescribe());
        break;
    }
    case Experiment::Table1:
        std::snprintf(
            buf, sizeof(buf),
            "table1_ss5_vs_ss10|refs=%llu|seed=%llu|build=%s",
            static_cast<unsigned long long>(
                resolveTable1Refs(run.quick, run.refs)),
            static_cast<unsigned long long>(run.seed),
            gitDescribe());
        break;
    case Experiment::Table3:
    case Experiment::Table4: {
        const bool vc = run.experiment == Experiment::Table4;
        const SpecEvalParams params =
            resolveSpecEvalParams(run.quick, run.refs, run.seed);
        std::snprintf(
            buf, sizeof(buf),
            "%s|measured=%llu|warmup=%llu|gspn=%llu|seed=%llu"
            "|build=%s",
            specTableName(vc),
            static_cast<unsigned long long>(
                params.missrate.measured_refs),
            static_cast<unsigned long long>(
                params.missrate.warmup_refs),
            static_cast<unsigned long long>(
                params.gspn_instructions),
            static_cast<unsigned long long>(run.seed),
            gitDescribe());
        break;
    }
    default: {
        const SplashFigure fig = splashFigureOf(run.experiment);
        char cpus[24];
        if (run.nodes == 0)
            std::snprintf(cpus, sizeof(cpus), "all");
        else
            std::snprintf(cpus, sizeof(cpus), "%llu",
                          static_cast<unsigned long long>(run.nodes));
        std::snprintf(
            buf, sizeof(buf),
            "%s|scale=%.9g|cpus=%s|seed=%llu%s|build=%s",
            splashFigureName(fig),
            resolveSplashScale(fig, run.quick), cpus,
            static_cast<unsigned long long>(run.seed), sample,
            gitDescribe());
        break;
    }
    }
    return buf;
}

std::uint64_t
runKeyHash(const RunRequest &run)
{
    return ckpt::fnv1a64(canonicalRunKey(run));
}

std::string
sanitizeBuildId(const std::string &raw,
                const std::string &source_digest)
{
    if (raw.empty())
        return "src-" + source_digest;
    const std::string dirty = "-dirty";
    if (raw.size() >= dirty.size() &&
        raw.compare(raw.size() - dirty.size(), dirty.size(),
                    dirty) == 0)
        return raw + "+" + source_digest;
    return raw;
}

const char *
gitDescribe()
{
    static const std::string id =
        sanitizeBuildId(MEMWALL_GIT_DESCRIBE, MEMWALL_SOURCE_DIGEST);
    return id.c_str();
}

std::string
okResponse(const std::string &id, bool cached,
           const std::string &result_json)
{
    std::string out = "{\"id\":\"" + jsontext::escape(id) +
                      "\",\"status\":\"ok\",\"cached\":";
    out += cached ? "true" : "false";
    // "result" last, value spliced verbatim: the member's byte span
    // in the response is exactly the one-shot binary's output.
    out += ",\"result\":";
    out += result_json;
    out += "}";
    return out;
}

std::string
errorResponse(const std::string &id, ErrorCode code,
              const std::string &detail, long retry_after_ms)
{
    std::string out = "{\"id\":\"" + jsontext::escape(id) +
                      "\",\"status\":\"error\",\"error\":{\"code\":\"";
    out += errorCodeName(code);
    out += "\",\"detail\":\"" + jsontext::escape(detail) + "\"";
    if (retry_after_ms >= 0)
        out += ",\"retry_after_ms\":" + std::to_string(retry_after_ms);
    out += "}}";
    return out;
}

} // namespace server
} // namespace memwall
