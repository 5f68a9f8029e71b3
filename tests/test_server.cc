/**
 * @file
 * Tests of the experiment service: the strict JSON parser, the wire
 * framing (including oversized-frame re-sync and stale-socket
 * reclaim), request validation/canonicalization, the crash-safe
 * result cache, and the live server's dedup / deadline / worker-failure /
 * overload semantics against an in-process MwServer.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include <cmath>

#include "common/json_text.hh"
#include "server/json.hh"
#include "server/protocol.hh"
#include "server/result_cache.hh"
#include "server/server.hh"
#include "server/wire.hh"
#include "workloads/missrate.hh"
#include "workloads/missrate_figures.hh"
#include "workloads/spec_suite.hh"

using namespace memwall;
using namespace memwall::server;

namespace {

/** Self-cleaning scratch directory. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/mw-server-test-XXXXXX";
        const char *p = ::mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path_ = p != nullptr ? p : "";
    }

    ~TempDir()
    {
        if (!path_.empty()) {
            const std::string cmd = "rm -rf '" + path_ + "'";
            [[maybe_unused]] int rc = std::system(cmd.c_str());
        }
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

JsonValue
parseOk(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_TRUE(parseJson(text, v, err)) << err << " in: " << text;
    return v;
}

std::string
parseErr(const std::string &text)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson(text, v, err)) << "accepted: " << text;
    return err;
}

// --------------------------------------------------------------------
// JSON parser

TEST(ServerJson, ParsesScalarsAndStructure)
{
    const JsonValue v = parseOk(
        R"({"a": 1, "b": -2.5e3, "c": "x\ny", "d": [true, false, null]})");
    ASSERT_TRUE(v.isObject());
    EXPECT_DOUBLE_EQ(v.find("a")->number, 1.0);
    EXPECT_DOUBLE_EQ(v.find("b")->number, -2500.0);
    EXPECT_EQ(v.find("c")->text, "x\ny");
    ASSERT_TRUE(v.find("d")->isArray());
    ASSERT_EQ(v.find("d")->items.size(), 3u);
    EXPECT_TRUE(v.find("d")->items[0].boolean);
    EXPECT_FALSE(v.find("d")->items[1].boolean);
    EXPECT_TRUE(v.find("d")->items[2].isNull());
}

TEST(ServerJson, ValueSpansCoverTheExactBytes)
{
    const std::string text = R"({"result": {"x":[1, 2]} , "z":3})";
    const JsonValue v = parseOk(text);
    const JsonValue *r = v.find("result");
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(text.substr(r->begin, r->end - r->begin),
              R"({"x":[1, 2]})");
}

TEST(ServerJson, StrictnessRejections)
{
    EXPECT_NE(parseErr("{} junk").find("trailing"),
              std::string::npos);
    EXPECT_NE(parseErr(R"({"a":1,"a":2})").find("duplicate"),
              std::string::npos);
    EXPECT_NE(parseErr("\"raw\ncontrol\"").find("control"),
              std::string::npos);
    EXPECT_NE(parseErr(R"("\q")").find("escape"),
              std::string::npos);
    EXPECT_NE(parseErr(R"("\ud800x")").find("surrogate"),
              std::string::npos);
    EXPECT_NE(parseErr("01").find("trailing"), std::string::npos);
    EXPECT_NE(parseErr("[1,]").find("invalid"), std::string::npos);
    EXPECT_NE(parseErr("{\"a\":}").find("invalid"),
              std::string::npos);
    EXPECT_NE(parseErr("").find("end of input"), std::string::npos);
    EXPECT_NE(parseErr("nul").find("literal"), std::string::npos);
}

TEST(ServerJson, DepthCapStopsNestingBombs)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    EXPECT_NE(parseErr(deep).find("nesting"), std::string::npos);
}

TEST(ServerJson, SurrogatePairDecodesToUtf8)
{
    const JsonValue v = parseOk(R"("😀")");
    EXPECT_EQ(v.text, "\xF0\x9F\x98\x80"); // U+1F600
}

TEST(ServerJson, AsU64ExactIntegersOnly)
{
    std::uint64_t out = 0;
    EXPECT_TRUE(parseOk("42").asU64(out));
    EXPECT_EQ(out, 42u);
    EXPECT_TRUE(parseOk("18446744073709551615").asU64(out));
    EXPECT_EQ(out, 18446744073709551615ull);
    EXPECT_FALSE(parseOk("18446744073709551616").asU64(out));
    EXPECT_FALSE(parseOk("-1").asU64(out));
    EXPECT_FALSE(parseOk("1.5").asU64(out));
    EXPECT_FALSE(parseOk("1e3").asU64(out));
}

TEST(ServerJson, EscapeRoundTrip)
{
    const std::string nasty = "a\"b\\c\n\t\x01z";
    // Chars, not one-character strings: GCC 12 reports a false
    // -Wrestrict inside const char * + std::string.
    const JsonValue v = parseOk('"' + jsontext::escape(nasty) + '"');
    EXPECT_EQ(v.text, nasty);
}

// --------------------------------------------------------------------
// Wire framing

class WirePair : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
    }

    void TearDown() override
    {
        ::close(fds_[0]);
        ::close(fds_[1]);
    }

    int fds_[2];
};

TEST_F(WirePair, RoundTripsPayloadsIncludingEmpty)
{
    const std::vector<std::string> payloads = {
        "", "hello", std::string(100000, 'x')};
    for (const std::string &payload : payloads) {
        std::string why;
        ASSERT_TRUE(writeFrame(fds_[0], payload, &why)) << why;
        std::string got;
        ASSERT_EQ(readFrame(fds_[1], got, &why), FrameStatus::Ok)
            << why;
        EXPECT_EQ(got, payload);
    }
}

TEST_F(WirePair, CleanEofBeforeHeader)
{
    ::close(fds_[0]);
    fds_[0] = ::socket(AF_UNIX, SOCK_STREAM, 0); // keep TearDown sane
    std::string got, why;
    EXPECT_EQ(readFrame(fds_[1], got, &why), FrameStatus::Eof);
}

TEST_F(WirePair, MalformedHeaderIsBadFrame)
{
    ASSERT_EQ(::write(fds_[0], "5x\nhello", 8), 8);
    std::string got, why;
    EXPECT_EQ(readFrame(fds_[1], got, &why), FrameStatus::BadFrame);
    EXPECT_NE(why.find("non-digit"), std::string::npos);
}

TEST_F(WirePair, OversizedFrameIsDrainedAndStreamStaysInSync)
{
    // An over-cap frame followed by a normal one: the reader must
    // report Oversized, swallow the big payload, and then read the
    // next frame intact.
    const std::string big(max_frame_bytes + 1, 'b');
    std::string why;
    std::thread writer([&] {
        ASSERT_TRUE(writeFrame(fds_[0], big, nullptr));
        ASSERT_TRUE(writeFrame(fds_[0], "after", nullptr));
    });
    std::string got;
    EXPECT_EQ(readFrame(fds_[1], got, &why), FrameStatus::Oversized);
    EXPECT_NE(why.find("exceeds"), std::string::npos);
    ASSERT_EQ(readFrame(fds_[1], got, &why), FrameStatus::Ok) << why;
    EXPECT_EQ(got, "after");
    writer.join();
}

TEST_F(WirePair, WriteToClosedPeerFailsInsteadOfSigpipe)
{
    // A peer that closed its end (crashed client, impatient deadline
    // client) must surface as a writeFrame error, not a SIGPIPE that
    // kills the process — this test dies if MSG_NOSIGNAL is lost.
    ::close(fds_[1]);
    fds_[1] = ::socket(AF_UNIX, SOCK_STREAM, 0); // keep TearDown sane
    std::string why;
    EXPECT_FALSE(writeFrame(fds_[0], "into the void", &why));
    EXPECT_FALSE(why.empty());
}

TEST(WireListen, ReclaimsStaleSocketAndRejectsLiveOne)
{
    TempDir dir;
    const std::string path = dir.path() + "/srv.sock";
    std::string why;
    int fd = listenUnix(path, 4, &why);
    ASSERT_GE(fd, 0) << why;

    // A second live listener on the same path must be refused.
    EXPECT_LT(listenUnix(path, 4, &why), 0);
    EXPECT_NE(why.find("already listening"), std::string::npos);

    // Closing WITHOUT unlink leaves a stale socket file — the
    // SIGKILL case. A new listener must reclaim it.
    ::close(fd);
    fd = listenUnix(path, 4, &why);
    EXPECT_GE(fd, 0) << why;
    ::close(fd);
    ::unlink(path.c_str());
}

// --------------------------------------------------------------------
// Protocol

TEST(ServerProtocol, ParsesRunDefaultsAndEchoesId)
{
    Request req;
    ErrorCode code;
    std::string detail;
    ASSERT_TRUE(parseRequest(
        R"({"id":"r1","experiment":"fig8","quick":true})", req, code,
        detail))
        << detail;
    EXPECT_EQ(req.cmd, Request::Cmd::Run);
    EXPECT_EQ(req.id, "r1");
    EXPECT_EQ(req.run.experiment, Experiment::Fig8);
    EXPECT_TRUE(req.run.quick);
    EXPECT_EQ(req.run.seed, 42u);
    EXPECT_EQ(req.run.nodes, 0u);
    EXPECT_FALSE(req.run.has_sample);
    EXPECT_EQ(req.run.deadline_ms, 0u);
    EXPECT_FALSE(req.run.has_fault);
}

TEST(ServerProtocol, RejectsUnknownFieldsByName)
{
    Request req;
    ErrorCode code;
    std::string detail;
    EXPECT_FALSE(parseRequest(
        R"({"id":"x","experiment":"fig7","qick":true})", req, code,
        detail));
    EXPECT_EQ(code, ErrorCode::BadRequest);
    EXPECT_NE(detail.find("qick"), std::string::npos);
    EXPECT_EQ(req.id, "x") << "id must survive for correlation";
}

TEST(ServerProtocol, RejectsBadValuesWithNamedCodes)
{
    Request req;
    ErrorCode code;
    std::string detail;
    EXPECT_FALSE(
        parseRequest(R"({"experiment":"fig9"})", req, code, detail));
    EXPECT_EQ(code, ErrorCode::UnknownExperiment);

    EXPECT_FALSE(parseRequest(
        R"({"experiment":"fig7","refs":-1})", req, code, detail));
    EXPECT_EQ(code, ErrorCode::BadParam);

    EXPECT_FALSE(parseRequest("[1,2]", req, code, detail));
    EXPECT_EQ(code, ErrorCode::BadRequest);

    EXPECT_FALSE(parseRequest("{nope", req, code, detail));
    EXPECT_EQ(code, ErrorCode::BadJson);

    EXPECT_FALSE(parseRequest(R"({"cmd":"run"})", req, code, detail));
    EXPECT_EQ(code, ErrorCode::BadRequest);
    EXPECT_NE(detail.find("experiment"), std::string::npos);
}

TEST(ServerProtocol, DeadlineIsCappedAtParseTime)
{
    Request req;
    ErrorCode code;
    std::string detail;
    // At the cap: accepted.
    ASSERT_TRUE(parseRequest(R"({"experiment":"fig7","deadline_ms":)" +
                                 std::to_string(max_deadline_ms) + "}",
                             req, code, detail))
        << detail;
    EXPECT_EQ(req.run.deadline_ms, max_deadline_ms);

    // Past the cap (and far past, where ms(2^63) would wrap the
    // chrono arithmetic into the past): rejected by name.
    for (const std::uint64_t bad :
         {max_deadline_ms + 1, std::uint64_t(1) << 63,
          ~std::uint64_t(0)}) {
        EXPECT_FALSE(parseRequest(
            R"({"experiment":"fig7","deadline_ms":)" +
                std::to_string(bad) + "}",
            req, code, detail))
            << bad;
        EXPECT_EQ(code, ErrorCode::BadParam);
        EXPECT_NE(detail.find("deadline_ms"), std::string::npos);
    }
}

TEST(ServerProtocol, CanonicalKeyCollapsesEquivalentRequests)
{
    RunRequest quick;
    quick.quick = true;
    RunRequest explicit_refs;
    explicit_refs.refs = 400'000; // what quick resolves to
    EXPECT_EQ(canonicalRunKey(quick),
              canonicalRunKey(explicit_refs));

    RunRequest other_seed = quick;
    other_seed.seed = 7;
    EXPECT_NE(canonicalRunKey(quick), canonicalRunKey(other_seed));

    RunRequest fig8 = quick;
    fig8.experiment = Experiment::Fig8;
    EXPECT_NE(canonicalRunKey(quick), canonicalRunKey(fig8));

    EXPECT_NE(canonicalRunKey(quick).find(gitDescribe()),
              std::string::npos)
        << "the build id must be part of the key";
}

TEST(ServerProtocol, ParsesTheFullCatalogByName)
{
    const char *names[] = {"fig7",  "fig8",  "table1", "table3",
                           "table4", "fig13", "fig14",  "fig15",
                           "fig16",  "fig17"};
    for (const char *name : names) {
        Request req;
        ErrorCode code;
        std::string detail;
        ASSERT_TRUE(parseRequest(
            std::string(R"({"experiment":")") + name + "\"}", req,
            code, detail))
            << name << ": " << detail;
        EXPECT_STREQ(experimentName(req.run.experiment), name);
    }
    // The unknown-experiment detail names the whole catalog, so a
    // user typo'ing "tabel3" can see what exists.
    Request req;
    ErrorCode code;
    std::string detail;
    EXPECT_FALSE(parseRequest(R"({"experiment":"tabel3"})", req,
                              code, detail));
    EXPECT_EQ(code, ErrorCode::UnknownExperiment);
    EXPECT_NE(detail.find("table3"), std::string::npos) << detail;
    EXPECT_NE(detail.find("fig17"), std::string::npos) << detail;
}

TEST(ServerProtocol, RejectsInapplicableCatalogFields)
{
    Request req;
    ErrorCode code;
    std::string detail;

    // Sampling plans only apply to the miss-rate figures; the
    // tables and the SPLASH figures are exhaustive runs.
    for (const char *exp : {"table1", "fig13", "fig17"}) {
        EXPECT_FALSE(parseRequest(
            std::string(R"({"experiment":")") + exp +
                R"(","sample":"U=500,W=1000,k=4"})",
            req, code, detail))
            << exp;
        EXPECT_EQ(code, ErrorCode::BadParam) << exp;
        EXPECT_NE(detail.find("sample"), std::string::npos) << detail;
    }

    // "nodes" restricts a SPLASH sweep; the others have no axis.
    EXPECT_FALSE(parseRequest(
        R"({"experiment":"fig7","nodes":4})", req, code, detail));
    EXPECT_EQ(code, ErrorCode::BadParam);
    EXPECT_NE(detail.find("nodes"), std::string::npos) << detail;

    // The machine axis tops out at 16 processors.
    EXPECT_FALSE(parseRequest(
        R"({"experiment":"fig13","nodes":17})", req, code, detail));
    EXPECT_EQ(code, ErrorCode::BadParam);

    // SPLASH runs have no reference-count knob ("refs" would be
    // silently ignored — reject it instead).
    EXPECT_FALSE(parseRequest(
        R"({"experiment":"fig13","refs":2000})", req, code, detail));
    EXPECT_EQ(code, ErrorCode::BadParam);
    EXPECT_NE(detail.find("refs"), std::string::npos) << detail;

    // A malformed plan string is rejected with the parser's reason.
    EXPECT_FALSE(parseRequest(
        R"({"experiment":"fig7","sample":"bogus"})", req, code,
        detail));
    EXPECT_EQ(code, ErrorCode::BadParam);
    EXPECT_NE(detail.find("sample"), std::string::npos) << detail;

    // And the valid combinations parse.
    ASSERT_TRUE(parseRequest(
        R"({"experiment":"fig13","nodes":4,"quick":true})", req,
        code, detail))
        << detail;
    EXPECT_EQ(req.run.nodes, 4u);
    ASSERT_TRUE(parseRequest(
        R"({"experiment":"fig7","sample":"U=500,W=1000,k=4"})", req,
        code, detail))
        << detail;
    EXPECT_TRUE(req.run.has_sample);
}

TEST(ServerProtocol, CanonicalKeysSeparateCatalogEntries)
{
    // Every catalog entry at its defaults must canonicalize to a
    // distinct key — a collision would serve one experiment's bytes
    // for another from the cache.
    std::vector<std::string> keys;
    for (const char *name :
         {"fig7", "fig8", "table1", "table3", "table4", "fig13",
          "fig14", "fig15", "fig16", "fig17"}) {
        RunRequest run;
        ASSERT_TRUE(parseExperimentName(name, run.experiment));
        run.quick = true;
        keys.push_back(canonicalRunKey(run));
    }
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]);

    // A sampled run keys differently from the exhaustive run, and
    // different plans key differently from each other.
    RunRequest sampled;
    sampled.quick = true;
    sampled.has_sample = true;
    std::string why;
    ASSERT_TRUE(tryParseSamplingPlan("U=500,W=1000,k=4",
                                     sampled.sample, &why))
        << why;
    EXPECT_NE(canonicalRunKey(sampled), keys[0]);
    RunRequest sampled2 = sampled;
    ASSERT_TRUE(tryParseSamplingPlan("U=500,W=1000,k=8",
                                     sampled2.sample, &why))
        << why;
    EXPECT_NE(canonicalRunKey(sampled), canonicalRunKey(sampled2));

    // A node-restricted SPLASH sweep keys differently from the full
    // axis.
    RunRequest lu;
    ASSERT_TRUE(parseExperimentName("fig13", lu.experiment));
    lu.quick = true;
    RunRequest lu4 = lu;
    lu4.nodes = 4;
    EXPECT_NE(canonicalRunKey(lu), canonicalRunKey(lu4));
}

TEST(ServerProtocol, SanitizedBuildIdNeverAliasesBuilds)
{
    // git absent / not a repo / describe failed: the source digest
    // carries the identity. Distinct trees => distinct ids.
    EXPECT_EQ(sanitizeBuildId("", "0123456789abcdef"),
              "src-0123456789abcdef");
    EXPECT_NE(sanitizeBuildId("", "aaaaaaaaaaaaaaaa"),
              sanitizeBuildId("", "bbbbbbbbbbbbbbbb"));

    // A dirty worktree names its commit but not its edits; the
    // digest disambiguates two dirty trees at the same commit.
    EXPECT_EQ(sanitizeBuildId("v2.0-4-gdeadbee-dirty", "feedc0de"),
              "v2.0-4-gdeadbee-dirty+feedc0de");
    EXPECT_NE(
        sanitizeBuildId("v2.0-4-gdeadbee-dirty", "aaaaaaaaaaaaaaaa"),
        sanitizeBuildId("v2.0-4-gdeadbee-dirty", "bbbbbbbbbbbbbbbb"));

    // A clean describe names the commit exactly: used verbatim.
    EXPECT_EQ(sanitizeBuildId("v2.0-4-gdeadbee", "feedc0de"),
              "v2.0-4-gdeadbee");

    // The baked-in id went through the same rules: never empty, and
    // never the old constant fallback that aliased every gitless
    // build to "unversioned".
    const std::string baked = gitDescribe();
    EXPECT_FALSE(baked.empty());
    EXPECT_NE(baked, "unversioned");
}

TEST(ServerProtocol, ResponsesAreWellFormedJson)
{
    const JsonValue ok =
        parseOk(okResponse("a\"b", true, "{\"x\":1}\n"));
    EXPECT_EQ(ok.find("id")->text, "a\"b");
    EXPECT_EQ(ok.find("status")->text, "ok");
    EXPECT_TRUE(ok.find("cached")->boolean);
    EXPECT_DOUBLE_EQ(ok.find("result")->find("x")->number, 1.0);

    const JsonValue err = parseOk(errorResponse(
        "r", ErrorCode::Overloaded, "queue \"full\"", 250));
    EXPECT_EQ(err.find("status")->text, "error");
    EXPECT_EQ(err.find("error")->find("code")->text, "overloaded");
    EXPECT_DOUBLE_EQ(
        err.find("error")->find("retry_after_ms")->number, 250.0);

    const JsonValue no_retry =
        parseOk(errorResponse("r", ErrorCode::BadJson, "x"));
    EXPECT_EQ(no_retry.find("error")->find("retry_after_ms"),
              nullptr);
}

// --------------------------------------------------------------------
// Renderer JSON hygiene

TEST(RendererJson, NonFiniteValuesRenderAsNull)
{
    EXPECT_EQ(jsontext::num(std::nan("")), "null");
    EXPECT_EQ(jsontext::num(INFINITY), "null");
    EXPECT_EQ(jsontext::num(-INFINITY), "null");
    EXPECT_EQ(jsontext::num(0.5), "0.5");
}

TEST(RendererJson, SingleUnitSampledFigureIsStillStrictJson)
{
    // A one-unit sample has no variance: every confidence half-width
    // is NaN. The rendered document must say `null` there — a bare
    // `nan` token would make the server cache bytes its own strict
    // parser (and every downstream consumer) rejects.
    SamplingPlan plan;
    std::string why;
    ASSERT_TRUE(tryParseSamplingPlan("mode=strat,n=1,U=500,W=1000",
                                     plan, &why))
        << why;
    MissRateParams params;
    params.measured_refs = 2000;
    params.warmup_refs = 1000;
    const SampledWorkloadMissRates one =
        measureMissRatesSampled(specSuite()[0], params, plan);
    ASSERT_EQ(one.units, 1u);
    ASSERT_FALSE(one.icaches[0].ci.valid);
    EXPECT_TRUE(std::isinf(one.icaches[0].ci.half_width));

    for (const MissRateFigure fig :
         {MissRateFigure::ICache, MissRateFigure::DCache}) {
        const std::string doc = missRateFigureSampledJson(fig, {one});
        EXPECT_EQ(doc.find("nan"), std::string::npos);
        EXPECT_EQ(doc.find("inf"), std::string::npos);
        EXPECT_NE(doc.find("null"), std::string::npos);
        JsonValue v;
        std::string err;
        EXPECT_TRUE(parseJson(doc, v, err)) << err << "\n" << doc;
    }
}

// --------------------------------------------------------------------
// Result cache

TEST(ResultCacheTest, InsertLookupAndCrashRecovery)
{
    TempDir dir;
    std::string why;
    {
        ResultCache cache;
        ASSERT_TRUE(cache.open(dir.path() + "/cache", 0, &why))
            << why;
        EXPECT_EQ(cache.lookup("k1"), nullptr);
        ASSERT_TRUE(cache.insert("k1", "result-one\n", &why)) << why;
        ASSERT_TRUE(cache.insert("k2", "result-two\n", &why)) << why;
        ASSERT_NE(cache.lookup("k1"), nullptr);
        EXPECT_EQ(*cache.lookup("k1"), "result-one\n");
        // No close(): simulates dying with the journal mid-life.
        // (The journal is fsync'd per append, so everything is on
        // disk already.)
    }
    ResultCache cache;
    ASSERT_TRUE(cache.open(dir.path() + "/cache", 0, &why)) << why;
    EXPECT_EQ(cache.recovered(), 2u);
    ASSERT_NE(cache.lookup("k2"), nullptr);
    EXPECT_EQ(*cache.lookup("k2"), "result-two\n");
}

TEST(ResultCacheTest, TornJournalTailIsDroppedNotFatal)
{
    TempDir dir;
    std::string why;
    {
        ResultCache cache;
        ASSERT_TRUE(cache.open(dir.path(), 0, &why)) << why;
        ASSERT_TRUE(cache.insert("k1", "one", &why)) << why;
    }
    // Append garbage: a crash mid-append leaves exactly this shape.
    {
        std::FILE *f =
            std::fopen((dir.path() + "/results.mwsj").c_str(), "ab");
        ASSERT_NE(f, nullptr);
        std::fputs("torn-record-garbage", f);
        std::fclose(f);
    }
    ResultCache cache;
    ASSERT_TRUE(cache.open(dir.path(), 0, &why)) << why;
    EXPECT_GT(cache.tornBytes(), 0u);
    EXPECT_EQ(cache.recovered(), 1u);
    ASSERT_NE(cache.lookup("k1"), nullptr);
}

TEST(ResultCacheTest, JournalIsTheOnlyFileOnDisk)
{
    TempDir dir;
    std::string why;
    ResultCache cache;
    ASSERT_TRUE(cache.open(dir.path(), 0, &why)) << why;
    ASSERT_TRUE(cache.insert("k1", "one", &why)) << why;
    ASSERT_TRUE(cache.insert("k2", "two", &why)) << why;

    std::vector<std::string> files;
    for (const auto &e :
         std::filesystem::directory_iterator(dir.path()))
        files.push_back(e.path().filename().string());
    EXPECT_EQ(files, std::vector<std::string>{"results.mwsj"})
        << "the journal is the cache's one on-disk copy (no *.mwcp)";
}

TEST(ResultCacheTest, CompactionEvictsOldestWhenOverCap)
{
    TempDir dir;
    std::string why;
    ResultCache cache;
    // Cap small enough that ~3 of the 600-byte entries fit.
    ASSERT_TRUE(cache.open(dir.path(), 2048, &why)) << why;
    const std::string blob(600, 'r');
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(
            cache.insert("key" + std::to_string(i), blob, &why))
            << why;
    EXPECT_GT(cache.compactions(), 0u);
    EXPECT_LT(cache.size(), 6u);
    // The newest entry always survives.
    ASSERT_NE(cache.lookup("key5"), nullptr);
    // The oldest is the first to go.
    EXPECT_EQ(cache.lookup("key0"), nullptr);

    // Survivors (and only survivors) come back after reopening.
    const std::size_t live = cache.size();
    cache.close();
    ResultCache reopened;
    ASSERT_TRUE(reopened.open(dir.path(), 2048, &why)) << why;
    EXPECT_EQ(reopened.recovered(), live);
    EXPECT_NE(reopened.lookup("key5"), nullptr);
}

TEST(ResultCacheTest, CompactionStartsJustPastTheCap)
{
    // Measure the journal header and one record from the file.
    const std::string blob(600, 'r');
    std::string why;
    std::uint64_t header = 0, record = 0;
    {
        TempDir probe;
        ResultCache cache;
        ASSERT_TRUE(cache.open(probe.path(), 0, &why)) << why;
        const std::string file = probe.path() + "/results.mwsj";
        header = std::filesystem::file_size(file);
        ASSERT_TRUE(cache.insert("key0", blob, &why)) << why;
        record = std::filesystem::file_size(file) - header;
    }

    // Room for exactly k records: k inserts fit, the next compacts.
    constexpr int k = 3;
    TempDir dir;
    const std::string file = dir.path() + "/results.mwsj";
    ResultCache cache;
    ASSERT_TRUE(cache.open(dir.path(), header + k * record, &why))
        << why;
    for (int i = 0; i < k; ++i)
        ASSERT_TRUE(
            cache.insert("key" + std::to_string(i), blob, &why))
            << why;
    EXPECT_EQ(cache.compactions(), 0u);
    EXPECT_EQ(std::filesystem::file_size(file), header + k * record);

    ASSERT_TRUE(cache.insert("key" + std::to_string(k), blob, &why))
        << why;
    EXPECT_EQ(cache.compactions(), 1u);
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(k));
    EXPECT_EQ(cache.lookup("key0"), nullptr);
    EXPECT_EQ(std::filesystem::file_size(file), header + k * record);

    // One byte less and the k-th insert already compacts.
    TempDir tight_dir;
    ResultCache tight;
    ASSERT_TRUE(
        tight.open(tight_dir.path(), header + k * record - 1, &why))
        << why;
    for (int i = 0; i < k; ++i)
        ASSERT_TRUE(
            tight.insert("key" + std::to_string(i), blob, &why))
            << why;
    EXPECT_EQ(tight.compactions(), 1u);
}

TEST(ResultCacheTest, DuplicateInsertKeepsLatestAcrossReopen)
{
    TempDir dir;
    std::string why;
    {
        ResultCache cache;
        ASSERT_TRUE(cache.open(dir.path(), 0, &why)) << why;
        ASSERT_TRUE(cache.insert("k", "old", &why));
        ASSERT_TRUE(cache.insert("k", "new", &why));
        EXPECT_EQ(*cache.lookup("k"), "new");
    }
    ResultCache cache;
    ASSERT_TRUE(cache.open(dir.path(), 0, &why)) << why;
    ASSERT_NE(cache.lookup("k"), nullptr);
    EXPECT_EQ(*cache.lookup("k"), "new");
}

TEST(ResultCacheTest, FindRunsBesideInsertsAndCompactions)
{
    // One thread inserts past a tight cap, so most inserts compact;
    // another probes and counts throughout. Every probe sees either
    // nothing or the exact document, and the counters stay in range.
    TempDir dir;
    std::string why;
    ResultCache cache;
    ASSERT_TRUE(cache.open(dir.path(), 4096, &why)) << why;
    constexpr int inserts = 60;
    const auto doc = [](int i) {
        return std::string(300 + i, static_cast<char>('a' + i % 26));
    };
    std::thread writer([&] {
        std::string w;
        for (int i = 0; i < inserts; ++i)
            EXPECT_TRUE(cache.insert("key" + std::to_string(i), doc(i),
                                     &w))
                << w;
    });
    for (int round = 0; round < 200; ++round) {
        for (int i = 0; i < inserts; i += 7) {
            std::string got;
            if (cache.find("key" + std::to_string(i), &got)) {
                EXPECT_EQ(got, doc(i));
            }
        }
        EXPECT_LE(cache.size(), static_cast<std::size_t>(inserts));
    }
    writer.join();
    EXPECT_GT(cache.compactions(), 0u);
    std::string last;
    EXPECT_TRUE(cache.find("key" + std::to_string(inserts - 1), &last));
    EXPECT_EQ(last, doc(inserts - 1));
}

// --------------------------------------------------------------------
// Live server

/** Start an MwServer on a scratch socket and run it on a thread. */
class LiveServer
{
  public:
    explicit LiveServer(ServerOptions opt) : opt_(std::move(opt))
    {
        opt_.socket_path = dir_.path() + "/srv.sock";
        opt_.cache_dir = dir_.path() + "/cache";
        server_ = std::make_unique<MwServer>(opt_);
        std::string why;
        ok_ = server_->start(&why);
        EXPECT_TRUE(ok_) << why;
        if (ok_)
            thread_ = std::thread([this] { server_->run(); });
    }

    ~LiveServer()
    {
        if (thread_.joinable()) {
            server_->requestStop();
            thread_.join();
        }
    }

    /** One request/response over a fresh connection. */
    std::string rpc(const std::string &request)
    {
        std::string why;
        const int fd = connectUnix(opt_.socket_path, &why);
        EXPECT_GE(fd, 0) << why;
        if (fd < 0)
            return "";
        EXPECT_TRUE(writeFrame(fd, request, &why)) << why;
        std::string response;
        EXPECT_EQ(readFrame(fd, response, &why), FrameStatus::Ok)
            << why;
        ::close(fd);
        return response;
    }

    MwServer &server() { return *server_; }
    const std::string &socketPath() const { return opt_.socket_path; }

  private:
    TempDir dir_;
    ServerOptions opt_;
    std::unique_ptr<MwServer> server_;
    std::thread thread_;
    bool ok_ = false;
};

/** Small-but-real run request: full suite, tiny windows. */
std::string
runRequest(const std::string &id, const std::string &extra = "")
{
    return R"({"cmd":"run","id":")" + id +
           R"(","experiment":"fig7","refs":2000)" + extra + "}";
}

std::string
errorCodeOf(const std::string &response)
{
    JsonValue v;
    std::string err;
    if (!parseJson(response, v, err))
        return "unparseable: " + response;
    const JsonValue *e = v.find("error");
    if (e == nullptr || e->find("code") == nullptr)
        return "no-error-code: " + response;
    return e->find("code")->text;
}

TEST(MwServerTest, ComputesCachesAndDedupesExactlyOnce)
{
    ServerOptions opt;
    opt.jobs = 4;
    LiveServer srv(opt);

    // Concurrent identical requests: every one gets the same result,
    // the figure is computed exactly once.
    constexpr int clients = 6;
    std::vector<std::string> responses(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (int i = 0; i < clients; ++i)
        threads.emplace_back([&, i] {
            // 'c' as a char: see ServerJson.EscapeRoundTrip.
            responses[i] =
                srv.rpc(runRequest('c' + std::to_string(i)));
        });
    for (auto &t : threads)
        t.join();

    std::string result_bytes;
    for (int i = 0; i < clients; ++i) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(parseJson(responses[i], v, err)) << err;
        ASSERT_EQ(v.find("status")->text, "ok") << responses[i];
        const JsonValue *r = v.find("result");
        const std::string bytes = responses[i].substr(
            r->begin, r->end - r->begin);
        if (result_bytes.empty())
            result_bytes = bytes;
        EXPECT_EQ(bytes, result_bytes)
            << "all clients must see identical result bytes";
    }

    const ServerCounters after = srv.server().counters();
    EXPECT_EQ(after.computed, 1u) << "dedup must compute once";
    EXPECT_EQ(after.dedup_joined + after.cache_hits,
              static_cast<std::uint64_t>(clients - 1));

    // A later identical request is a cache hit.
    const JsonValue hit = parseOk(srv.rpc(runRequest("late")));
    EXPECT_EQ(hit.find("status")->text, "ok");
    EXPECT_TRUE(hit.find("cached")->boolean);
    EXPECT_EQ(srv.server().counters().computed, 1u);
}

TEST(MwServerTest, NamedErrorsForBadInput)
{
    ServerOptions opt;
    opt.jobs = 2;
    LiveServer srv(opt);

    EXPECT_EQ(errorCodeOf(srv.rpc("{nope")), "bad_json");
    EXPECT_EQ(errorCodeOf(srv.rpc(R"({"cmd":"dance"})")),
              "bad_request");
    EXPECT_EQ(errorCodeOf(srv.rpc(R"({"experiment":"fig9"})")),
              "unknown_experiment");
    EXPECT_EQ(errorCodeOf(srv.rpc(
                  R"({"experiment":"fig7","fault":{"hang_ms":1}})")),
              "fault_injection_disabled");

    // Oversized frame: named error, connection stays usable.
    std::string why;
    const int fd = connectUnix(srv.socketPath(), &why);
    ASSERT_GE(fd, 0) << why;
    ASSERT_TRUE(
        writeFrame(fd, std::string(max_frame_bytes + 1, 'x'), &why))
        << why;
    std::string response;
    ASSERT_EQ(readFrame(fd, response, &why), FrameStatus::Ok) << why;
    EXPECT_EQ(errorCodeOf(response), "oversized");
    ASSERT_TRUE(writeFrame(fd, R"({"cmd":"ping"})", &why)) << why;
    ASSERT_EQ(readFrame(fd, response, &why), FrameStatus::Ok) << why;
    EXPECT_NE(response.find("pong"), std::string::npos);
    ::close(fd);
}

TEST(MwServerTest, PersistentFaultsFailWithWorkerFailed)
{
    ServerOptions opt;
    opt.jobs = 4;
    opt.allow_test_faults = true;
    LiveServer srv(opt);

    // A throwing unit fails the run once, with no retry hint: the
    // same request would fail the same way.
    const std::string failed =
        srv.rpc(runRequest("r", R"(,"fault":{"fail_points":1000})"));
    EXPECT_EQ(errorCodeOf(failed), "worker_failed");
    EXPECT_EQ(parseOk(failed).find("error")->find("retry_after_ms"),
              nullptr);
    EXPECT_GT(srv.server().counters().worker_failures, 0u);

    // Fault-injected runs must never be cached: the same request
    // (same fault spec) computes again rather than hitting a cache.
    const std::string again = srv.rpc(
        runRequest("r2", R"(,"fault":{"fail_points":1000})"));
    EXPECT_EQ(errorCodeOf(again), "worker_failed");
}

TEST(MwServerTest, DeadlineExpiresButResultIsStillCached)
{
    ServerOptions opt;
    opt.jobs = 4;
    opt.allow_test_faults = true;
    LiveServer srv(opt);

    // A clean run far longer than its 1 ms deadline: the waiter is
    // answered at the deadline, the computation carries on, the same
    // request without a deadline joins it, and a third is a hit.
    const std::string run =
        R"({"cmd":"run","id":"d","experiment":"fig8","refs":200000)";
    EXPECT_EQ(errorCodeOf(srv.rpc(run + R"(,"deadline_ms":1})")),
              "deadline_exceeded");
    const JsonValue joined = parseOk(srv.rpc(run + "}"));
    EXPECT_EQ(joined.find("status")->text, "ok");
    const JsonValue hit = parseOk(srv.rpc(run + "}"));
    EXPECT_EQ(hit.find("status")->text, "ok");
    EXPECT_TRUE(hit.find("cached")->boolean);
    const ServerCounters c = srv.server().counters();
    EXPECT_EQ(c.computed, 1u) << "a missed deadline never recomputes";
    EXPECT_EQ(c.deadline_misses, 1u);
    EXPECT_EQ(c.dedup_joined + c.cache_hits, 2u);

    // Points hang 200 ms each; a 40 ms deadline must miss, and the
    // uncached fault run still finishes without wedging the server.
    const std::string slow = runRequest(
        "slow", R"(,"deadline_ms":40,"fault":{"hang_ms":200})");
    EXPECT_EQ(errorCodeOf(srv.rpc(slow)), "deadline_exceeded");
    EXPECT_EQ(srv.server().counters().deadline_misses, 2u);
    const JsonValue pong = parseOk(srv.rpc(R"({"cmd":"ping"})"));
    EXPECT_EQ(pong.find("status")->text, "ok");
}

TEST(MwServerTest, AdmissionControlShedsExcessInflight)
{
    ServerOptions opt;
    opt.jobs = 2;
    opt.allow_test_faults = true;
    opt.max_inflight = 1;
    LiveServer srv(opt);

    // Fill the single inflight slot with a hanging run, then ask
    // for a *different* run: it must be shed with retry_after.
    std::thread hog([&] {
        srv.rpc(runRequest("hog", R"(,"fault":{"hang_ms":150})"));
    });
    // Give the hog time to occupy the slot.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::string response = srv.rpc(
        R"({"cmd":"run","id":"shed","experiment":"fig8","refs":2000})");
    EXPECT_EQ(errorCodeOf(response), "overloaded");
    const JsonValue v = parseOk(response);
    EXPECT_NE(v.find("error")->find("retry_after_ms"), nullptr);
    EXPECT_GE(srv.server().counters().shed, 1u);
    hog.join();
}

TEST(MwServerTest, BatchingComputesSharedUnitsOnce)
{
    // fig7 and fig8 at the same window decompose into the SAME
    // per-workload units (one measureMissRates() pass yields both
    // figures). Sent together, the second request joins the first's
    // units: they are computed once and distributed to both.
    ServerOptions opt;
    opt.jobs = 4;
    opt.batch_window_ms = 250;
    LiveServer srv(opt);

    std::string r7, r8;
    std::thread t7([&] {
        r7 = srv.rpc(
            R"({"cmd":"run","id":"b7","experiment":"fig7","refs":2000})");
    });
    std::thread t8([&] {
        r8 = srv.rpc(
            R"({"cmd":"run","id":"b8","experiment":"fig8","refs":2000})");
    });
    t7.join();
    t8.join();

    const JsonValue v7 = parseOk(r7);
    const JsonValue v8 = parseOk(r8);
    ASSERT_EQ(v7.find("status")->text, "ok") << r7;
    ASSERT_EQ(v8.find("status")->text, "ok") << r8;
    // Each request got its own figure's document.
    EXPECT_NE(r7.find("fig7"), std::string::npos);
    EXPECT_NE(r8.find("fig8"), std::string::npos);

    const std::uint64_t suite = specSuite().size();
    const ServerCounters c = srv.server().counters();
    EXPECT_EQ(c.computed, 2u) << "both requests completed";
    EXPECT_EQ(c.batches, 1u)
        << "only the first request may start units of its own";
    EXPECT_EQ(c.batched_keys, 2u);
    EXPECT_EQ(c.points_computed, suite)
        << "one shared unit per workload";
    EXPECT_EQ(c.points_shared, suite)
        << "the second figure's points all rode along";
}

/** The figure document of an ok envelope, trailing newline included:
 *  the protocol puts "result" last, so it runs to the closing brace. */
std::string
resultDocument(const std::string &response)
{
    const JsonValue v = parseOk(response);
    const JsonValue *r = v.find("result");
    if (r == nullptr)
        return "";
    return response.substr(r->begin, response.size() - 1 - r->begin);
}

/** Poll the counters until @p done holds; false after ~10 s. */
template <typename Pred>
bool
waitForCounters(MwServer &server, Pred done)
{
    for (int i = 0; i < 10'000; ++i) {
        if (done(server.counters()))
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

TEST(MwServerTest, LoneRunDoesNotWaitOutTheWindow)
{
    // The window only keeps finished units joinable: a run's units
    // start at once, however long the window.
    ServerOptions opt;
    opt.jobs = 4;
    opt.batch_window_ms = 5'000;
    LiveServer srv(opt);

    const auto t0 = std::chrono::steady_clock::now();
    const JsonValue v = parseOk(srv.rpc(runRequest("lone")));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_EQ(v.find("status")->text, "ok");
    EXPECT_LT(elapsed, std::chrono::milliseconds(2'500));
}

TEST(MwServerTest, FinishedUnitsStayJoinableForTheWindow)
{
    // fig8 sent after fig7's response finds fig7's units finished
    // but inside the window: it computes nothing and still serves
    // the document a fresh fig8 computation renders.
    ServerOptions opt;
    opt.jobs = 4;
    opt.batch_window_ms = 5'000;
    LiveServer srv(opt);

    const JsonValue v7 = parseOk(srv.rpc(runRequest("w7")));
    ASSERT_EQ(v7.find("status")->text, "ok");
    const std::string r8 = srv.rpc(
        R"({"cmd":"run","id":"w8","experiment":"fig8","refs":2000})");
    ASSERT_EQ(parseOk(r8).find("status")->text, "ok") << r8;
    EXPECT_EQ(resultDocument(r8),
              missRateFigureJson(
                  MissRateFigure::DCache,
                  runMissRateFigure(MissRateFigure::DCache,
                                    resolveMissRateParams(false, 2000))));

    const std::uint64_t suite = specSuite().size();
    const ServerCounters c = srv.server().counters();
    EXPECT_EQ(c.computed, 2u);
    EXPECT_EQ(c.batched_keys, 2u);
    EXPECT_EQ(c.batches, 1u) << "fig8 must join fig7's units";
    EXPECT_EQ(c.points_computed, suite);
    EXPECT_EQ(c.points_shared, suite);
}

TEST(MwServerTest, QueuedUnitsAreSharedWithoutAWindow)
{
    // Window 0 keeps no finished unit, but queued units are joinable:
    // with the only worker held by a hanging run, fig7's units wait
    // in the queue and fig8 joins every one of them.
    ServerOptions opt;
    opt.jobs = 1;
    opt.batch_window_ms = 0;
    opt.allow_test_faults = true;
    LiveServer srv(opt);

    // Three SPLASH points, each holding the worker for 400 ms before
    // its injected failure.
    std::string hog;
    std::thread th([&] {
        hog = srv.rpc(
            R"({"cmd":"run","id":"hog","experiment":"fig13","quick":true,)"
            R"("nodes":1,"fault":{"fail_points":1000,"hang_ms":400}})");
    });
    // EXPECT, not ASSERT: the threads must be joined either way.
    EXPECT_TRUE(waitForCounters(srv.server(), [](const ServerCounters &c) {
        return c.batched_keys == 1;
    }));
    std::string r7, r8;
    std::thread t7([&] { r7 = srv.rpc(runRequest("q7")); });
    EXPECT_TRUE(waitForCounters(srv.server(), [](const ServerCounters &c) {
        return c.batched_keys == 2;
    }));
    std::thread t8([&] {
        r8 = srv.rpc(
            R"({"cmd":"run","id":"q8","experiment":"fig8","refs":2000})");
    });
    th.join();
    t7.join();
    t8.join();

    EXPECT_EQ(errorCodeOf(hog), "worker_failed");
    EXPECT_EQ(parseOk(r7).find("status")->text, "ok") << r7;
    EXPECT_EQ(parseOk(r8).find("status")->text, "ok") << r8;
    const std::uint64_t suite = specSuite().size();
    const ServerCounters c = srv.server().counters();
    EXPECT_EQ(c.batched_keys, 3u);
    EXPECT_EQ(c.batches, 2u) << "the hog and fig7 start their own units";
    EXPECT_EQ(c.points_shared, suite)
        << "fig8 must join all of fig7's queued units";
    EXPECT_EQ(c.points_computed, 3 + suite);
}

TEST(MwServerTest, FinishedUnitsExpireAfterTheWindow)
{
    // Past the window a finished unit is gone: the same fig8 that
    // would have joined fig7's units computes afresh.
    ServerOptions opt;
    opt.jobs = 4;
    opt.batch_window_ms = 20;
    LiveServer srv(opt);

    ASSERT_EQ(parseOk(srv.rpc(runRequest("e7"))).find("status")->text,
              "ok");
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::string r8 = srv.rpc(
        R"({"cmd":"run","id":"e8","experiment":"fig8","refs":2000})");
    ASSERT_EQ(parseOk(r8).find("status")->text, "ok") << r8;

    const std::uint64_t suite = specSuite().size();
    const ServerCounters c = srv.server().counters();
    EXPECT_EQ(c.points_shared, 0u);
    EXPECT_EQ(c.points_computed, 2 * suite);
    EXPECT_EQ(c.batches, 2u);
}

TEST(MwServerTest, OversizedFrameMidBatchDoesNotPoisonTheBatch)
{
    // A malformed client hitting the server while a run is in flight
    // must get its named error while the computation carries on
    // untouched.
    ServerOptions opt;
    opt.jobs = 4;
    opt.batch_window_ms = 250;
    LiveServer srv(opt);

    std::string r7;
    std::thread t7([&] {
        r7 = srv.rpc(
            R"({"cmd":"run","id":"q7","experiment":"fig7","refs":2000})");
    });
    // While that run is in flight (or just finished), storm the
    // server with an oversized frame on a second connection...
    std::string why;
    const int fd = connectUnix(srv.socketPath(), &why);
    ASSERT_GE(fd, 0) << why;
    ASSERT_TRUE(
        writeFrame(fd, std::string(max_frame_bytes + 1, 'x'), &why))
        << why;
    std::string response;
    ASSERT_EQ(readFrame(fd, response, &why), FrameStatus::Ok) << why;
    EXPECT_EQ(errorCodeOf(response), "oversized");
    // ...then ask for the SAME key over the drained stream: it joins
    // the run or hits the cache.
    ASSERT_TRUE(writeFrame(
        fd,
        R"({"cmd":"run","id":"q8","experiment":"fig7","refs":2000})",
        &why))
        << why;
    ASSERT_EQ(readFrame(fd, response, &why), FrameStatus::Ok) << why;
    ::close(fd);
    t7.join();

    const JsonValue v7 = parseOk(r7);
    const JsonValue v8 = parseOk(response);
    EXPECT_EQ(v7.find("status")->text, "ok") << r7;
    EXPECT_EQ(v8.find("status")->text, "ok") << response;

    // Identical result bytes, computed exactly once between them.
    const JsonValue *s7 = v7.find("result");
    const JsonValue *s8 = v8.find("result");
    ASSERT_NE(s7, nullptr);
    ASSERT_NE(s8, nullptr);
    EXPECT_EQ(r7.substr(s7->begin, s7->end - s7->begin),
              response.substr(s8->begin, s8->end - s8->begin));
    const ServerCounters c = srv.server().counters();
    EXPECT_EQ(c.computed, 1u);
    EXPECT_EQ(c.dedup_joined + c.cache_hits, 1u);
}

TEST(MwServerTest, ServesTheWholeCatalog)
{
    // Every catalog entry must round-trip through the service: ok
    // status, parseable result, and a distinct cache entry.
    ServerOptions opt;
    opt.jobs = 4;
    LiveServer srv(opt);

    const char *quick_entries[] = {"table1", "table3", "table4"};
    int n = 0;
    for (const char *name : quick_entries) {
        const std::string resp = srv.rpc(
            std::string(R"({"cmd":"run","id":"cat","experiment":")") +
            name + R"(","quick":true})");
        const JsonValue v = parseOk(resp);
        ASSERT_EQ(v.find("status")->text, "ok")
            << name << ": " << resp;
        ++n;
        EXPECT_EQ(srv.server().counters().computed,
                  static_cast<std::uint64_t>(n))
            << name;
    }
    // One SPLASH figure, restricted to a single machine size to stay
    // test-sized, plus its sampled variant keyed separately.
    const std::string lu = srv.rpc(
        R"({"cmd":"run","id":"lu","experiment":"fig13","quick":true,"nodes":1})");
    EXPECT_EQ(parseOk(lu).find("status")->text, "ok") << lu;
    EXPECT_NE(lu.find("fig13"), std::string::npos);
}

TEST(MwServerTest, ShutdownRequestStopsTheServer)
{
    ServerOptions opt;
    opt.jobs = 2;
    LiveServer srv(opt);
    const JsonValue v =
        parseOk(srv.rpc(R"({"cmd":"shutdown","id":"bye"})"));
    EXPECT_EQ(v.find("status")->text, "ok");
    // The LiveServer destructor joins run(); if shutdown did not
    // propagate, this test would hang (and the suite timeout would
    // flag it).
}

TEST(MwServerTest, StatsReportsCountersAndBuild)
{
    ServerOptions opt;
    opt.jobs = 2;
    LiveServer srv(opt);
    parseOk(srv.rpc(runRequest("warm")));
    const JsonValue v = parseOk(srv.rpc(R"({"cmd":"stats"})"));
    const JsonValue *stats = v.find("result");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->find("build")->text, gitDescribe());
    EXPECT_DOUBLE_EQ(
        stats->find("counters")->find("computed")->number, 1.0);
    EXPECT_DOUBLE_EQ(
        stats->find("cache")->find("entries")->number, 1.0);
}

} // namespace
