/**
 * @file
 * Request/response schema for the experiment service.
 *
 * A request is one JSON object per frame:
 *
 *     {
 *       "cmd": "run" | "stats" | "ping" | "shutdown",   (default "run")
 *       "id": "<opaque string, echoed back>",            (optional)
 *       "experiment": "fig7" | "fig8" | "table1" | "table3" |
 *                     "table4" | "fig13" | "fig14" | "fig15" |
 *                     "fig16" | "fig17",                 (run only)
 *       "quick": true|false,                             (default false)
 *       "refs": <uint>,                    (default 0 = auto; not splash)
 *       "seed": <uint>,                                  (default 42)
 *       "sample": "U=..,W=..,k=..[,..]",   (fig7/fig8 only)
 *       "nodes": <uint 1..16>,             (splash only; 0 = full axis)
 *       "deadline_ms": <uint>,             (default 0 = none; capped)
 *       "fault": {"fail_points": <uint>, "hang_ms": <uint>}
 *     }
 *
 * Unknown top-level or fault fields are rejected by name — a typo'd
 * "qick" must not silently run the full-size experiment — and fields
 * that do not apply to the requested experiment (refs on a SPLASH
 * figure, sample on anything but fig7/fig8) are rejected rather
 * than ignored.
 * "fault" is only honoured when the server runs with
 * --allow-test-faults; it exists for the torture harness and makes a
 * request non-cacheable.
 *
 * Responses (one frame each):
 *
 *     {"id":"...","status":"ok","cached":bool,"result":<RAW JSON>}
 *     {"id":"...","status":"error",
 *      "error":{"code":"<name>","detail":"...","retry_after_ms":N}}
 *
 * "result" is deliberately the LAST member: the experiment document
 * is spliced in verbatim (the same bytes the one-shot binary's
 * --format=json renderer produced, trailing newline included) so a
 * client that extracts the member's byte span gets output
 * byte-identical to that binary.
 */

#ifndef MEMWALL_SERVER_PROTOCOL_HH
#define MEMWALL_SERVER_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "sampling/plan.hh"
#include "workloads/missrate_figures.hh"
#include "workloads/splash_figures.hh"

namespace memwall {
namespace server {

/** Named error codes; the wire "code" string is errorCodeName(). */
enum class ErrorCode {
    BadFrame,        ///< unparseable frame header (connection closes)
    Oversized,       ///< frame over the size cap (stream re-synced)
    BadJson,         ///< payload is not valid strict JSON
    BadRequest,      ///< schema violation (unknown/missing/mistyped)
    UnknownExperiment, ///< "experiment" not in the catalog
    BadParam,        ///< a field parsed but its value is unusable
    FaultInjectionDisabled, ///< "fault" without --allow-test-faults
    Overloaded,      ///< admission control shed the request
    DeadlineExceeded, ///< computation missed the request deadline
    WorkerFailed,    ///< a compute unit of the run threw
    ShuttingDown,    ///< server is draining
    Internal,        ///< invariant failure inside the server
};

const char *errorCodeName(ErrorCode code);

/**
 * The experiment catalog: every table and figure the one-shot bench
 * binaries regenerate is addressable by the wire names below. Each
 * entry resolves to the same parameter defaults, the same point
 * schedule (including per-point seeding) and the same JSON renderer
 * as its binary, so served bytes are byte-identical to
 * `<binary> --format json`.
 */
enum class Experiment {
    Fig7,       ///< fig7_icache_miss
    Fig8,       ///< fig8_dcache_miss
    Table1,     ///< table1_ss5_vs_ss10
    Table3,     ///< table3_spec_estimates
    Table4,     ///< table4_spec_estimates_vc
    Fig13Lu,    ///< fig13_lu
    Fig14Mp3d,  ///< fig14_mp3d
    Fig15Ocean, ///< fig15_ocean
    Fig16Water, ///< fig16_water
    Fig17Pthor, ///< fig17_pthor
};

/** Wire name of @p exp ("fig7", "table3", "fig15", ...). */
const char *experimentName(Experiment exp);

/** Reverse of experimentName(); false if @p name is not catalogued. */
bool parseExperimentName(const std::string &name, Experiment &out);

/** True for the five SPLASH figures (fig13..fig17). */
bool experimentIsSplash(Experiment exp);

/** True for the miss-rate figures (fig7/fig8). */
bool experimentIsMissRate(Experiment exp);

/** The SPLASH figure behind a catalogued SPLASH experiment. */
SplashFigure splashFigureOf(Experiment exp);

/**
 * Upper bound on "deadline_ms": one day. Larger values are rejected
 * with bad_param at parse time — std::chrono::milliseconds has a
 * signed 64-bit representation, so an unchecked client value near
 * 2^63 would wrap "arrival + deadline" into the past.
 */
constexpr std::uint64_t max_deadline_ms = 86'400'000;

/** What a "run" request asks for, after validation. */
struct RunRequest
{
    Experiment experiment = Experiment::Fig7;
    bool quick = false;
    std::uint64_t refs = 0; ///< 0 = experiment default for quick/full
    std::uint64_t seed = 42;
    std::uint64_t nodes = 0; ///< SPLASH only; 0 = full {1,2,4,8,16}
    bool has_sample = false;
    SamplingPlan sample; ///< valid when has_sample
    std::uint64_t deadline_ms = 0; ///< 0 = no deadline
    // Fault injection (torture harness only; gated server-side).
    bool has_fault = false;
    std::uint64_t fault_fail_points = 0; ///< first N points throw
    std::uint64_t fault_hang_ms = 0;     ///< each point sleeps this
};

/** A parsed request of any command. */
struct Request
{
    enum class Cmd { Run, Stats, Ping, Shutdown };
    Cmd cmd = Cmd::Run;
    std::string id; ///< echoed verbatim in the response
    RunRequest run; ///< valid when cmd == Run
};

/**
 * Parse and validate one request payload. On failure returns false
 * and fills @p code / @p detail for an error response; @p out.id is
 * still populated when the payload carried a usable "id" so the
 * error can be correlated.
 */
bool parseRequest(const std::string &payload, Request &out,
                  ErrorCode &code, std::string &detail);

/** parseRequest()'s per-experiment rules, which the benches also
 *  apply to their flags: a field the experiment would silently
 *  ignore (refs on SPLASH, sample beyond fig7/fig8) is a
 *  bad_param. */
bool validateRun(const RunRequest &run, ErrorCode &code,
                 std::string &detail);

/**
 * Canonical description of a run: the experiment, its resolved
 * parameters (explicit refs and quick-mode defaults collapse to the
 * same string), the seed, the sampling-plan hash when sampled, and
 * the binary's build id. Hashing this is the cache key; baking the
 * build id in means a rebuilt server never serves results computed
 * by different code.
 */
std::string canonicalRunKey(const RunRequest &run);

/**
 * Collapse a raw `git describe --always --dirty` string into a build
 * id that never aliases distinct code. @p source_digest is a hash of
 * the source tree contents:
 *  - raw empty (git missing, not a repo, describe failed): the id is
 *    "src-<digest>" — two different source trees without git history
 *    must not collapse to one constant;
 *  - raw ending in "-dirty": the id is "<raw>+<digest>" — two dirty
 *    worktrees at the same commit differ in uncommitted edits, which
 *    only the content digest can tell apart;
 *  - otherwise raw names the commit exactly and is used verbatim.
 */
std::string sanitizeBuildId(const std::string &raw,
                            const std::string &source_digest);

/** The sanitized build id baked into this binary at build time. */
const char *gitDescribe();

/** Build the success envelope around raw @p result_json bytes. */
std::string okResponse(const std::string &id, bool cached,
                       const std::string &result_json);

/** Build the error envelope. @p retry_after_ms < 0 omits the field. */
std::string errorResponse(const std::string &id, ErrorCode code,
                          const std::string &detail,
                          long retry_after_ms = -1);

} // namespace server
} // namespace memwall

#endif // MEMWALL_SERVER_PROTOCOL_HH
