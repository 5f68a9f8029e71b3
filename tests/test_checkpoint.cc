/**
 * @file
 * Tests for the MWCP checkpoint subsystem: the codec, the container
 * (every rejection class), the sweep journal, the per-unit store, and
 * save/load round-trips of every checkpointable component — each one
 * must re-serialize to byte-identical state and continue producing
 * the exact behaviour of the original.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "checkpoint/checkpoint.hh"
#include "checkpoint/journal.hh"
#include "checkpoint/state_io.hh"
#include "checkpoint/store.hh"
#include "mem/cache.hh"
#include "mem/column_cache.hh"
#include "mem/victim_cache.hh"
#include "sampling/plan.hh"
#include "trace/synthetic.hh"
#include "workloads/missrate.hh"
#include "workloads/spec_suite.hh"

using namespace memwall;

namespace {

/** Scratch directory deleted (best effort) at destruction. */
struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/mwckpt-test-XXXXXX";
        const char *p = ::mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path = p ? p : "/tmp";
    }

    ~TempDir()
    {
        const std::string cmd = "rm -rf '" + path + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }

    std::string file(const std::string &name) const
    {
        return path + "/" + name;
    }
};

/** Serialize one component's state to bytes. */
template <typename T>
std::vector<std::uint8_t>
stateBytes(const T &obj)
{
    ckpt::Encoder e;
    obj.saveState(e);
    return e.take();
}

/**
 * The core round-trip property: restoring @p src's state into
 * @p dst must leave dst re-serializing to the exact same bytes.
 */
template <typename T>
void
expectRoundTrip(const T &src, T &dst)
{
    const std::vector<std::uint8_t> bytes = stateBytes(src);
    ckpt::Decoder d(bytes);
    dst.loadState(d);
    EXPECT_TRUE(d.ok()) << d.error();
    EXPECT_TRUE(d.atEnd());
    EXPECT_EQ(stateBytes(dst), bytes);
}

CacheConfig
cacheCfg(std::uint64_t capacity, std::uint32_t assoc)
{
    CacheConfig c;
    c.capacity = capacity;
    c.line_size = 32;
    c.assoc = assoc;
    c.name = "test";
    return c;
}

/** Deterministic pseudo-random address stream (splitmix-style). */
Addr
scrambled(std::uint64_t i)
{
    std::uint64_t z = (i + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return (z ^ (z >> 27)) & 0xfffff8;
}

} // namespace

// ---- Codec -------------------------------------------------------------

// A Decoder keeps a pointer into its input; one built from a temporary
// buffer would read freed memory.
static_assert(
    !std::is_constructible_v<ckpt::Decoder, std::vector<std::uint8_t>>);

TEST(CkptCodec, VarintRoundTrip)
{
    const std::uint64_t values[] = {
        0, 1, 127, 128, 300, 16383, 16384,
        0xffffffffULL, 0xffffffffffffffffULL};
    ckpt::Encoder e;
    for (const std::uint64_t v : values)
        e.varint(v);
    ckpt::Decoder d(e.data());
    for (const std::uint64_t v : values)
        EXPECT_EQ(d.varint(), v);
    EXPECT_TRUE(d.ok());
    EXPECT_TRUE(d.atEnd());
}

TEST(CkptCodec, FixedWidthAndF64RoundTrip)
{
    ckpt::Encoder e;
    e.u8(0xab);
    e.u16(0x1234);
    e.u32(0xdeadbeef);
    e.u64(0x0123456789abcdefULL);
    e.f64(-0.15625);
    e.str("hello");
    ckpt::Decoder d(e.data());
    EXPECT_EQ(d.u8(), 0xab);
    EXPECT_EQ(d.u16(), 0x1234);
    EXPECT_EQ(d.u32(), 0xdeadbeefu);
    EXPECT_EQ(d.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(d.f64(), -0.15625);
    EXPECT_EQ(d.str(), "hello");
    EXPECT_TRUE(d.atEnd());
}

TEST(CkptCodec, TruncationLatchesAndLaterReadsReturnZero)
{
    const std::uint8_t two[] = {0xff, 0xff};
    ckpt::Decoder d(two, sizeof(two));
    EXPECT_EQ(d.u32(), 0u);
    EXPECT_TRUE(d.failed());
    // Latched: everything after the first failure reads as zero.
    EXPECT_EQ(d.u8(), 0u);
    EXPECT_EQ(d.varint(), 0u);
    EXPECT_EQ(d.str(), "");
    EXPECT_NE(d.error().find("truncated"), std::string::npos);
}

TEST(CkptCodec, ImplausibleStringLengthFails)
{
    ckpt::Encoder e;
    e.varint(1ULL << 40); // claims a 1 TiB string
    ckpt::Decoder d(e.data());
    EXPECT_EQ(d.str(), "");
    EXPECT_TRUE(d.failed());
    EXPECT_NE(d.error().find("implausible"), std::string::npos);
}

TEST(CkptCodec, ExplicitFailLatchesFirstError)
{
    ckpt::Encoder e;
    e.u8(7);
    ckpt::Decoder d(e.data());
    d.fail("first");
    d.fail("second");
    EXPECT_EQ(d.error(), "first");
    EXPECT_EQ(d.u8(), 0u);
}

// ---- Container ---------------------------------------------------------

namespace {

constexpr std::uint64_t test_config_hash = 0x1122334455667788ULL;

std::vector<std::uint8_t>
makeCheckpoint()
{
    ckpt::CheckpointWriter w(test_config_hash);
    ckpt::Encoder &a = w.section(ckpt::fourcc("AAAA"));
    a.u32(0xcafe);
    a.str("payload-a");
    ckpt::Encoder &b = w.section(ckpt::fourcc("BBBB"));
    b.varint(999);
    return w.serialize();
}

/** Patch the header CRC after deliberately editing header bytes. */
void
fixHeaderCrc(std::vector<std::uint8_t> &bytes, std::size_t sections)
{
    const std::size_t crc_off = 4 + 4 + 8 + 4 + sections * 24;
    const std::uint32_t crc = ckpt::crc32(bytes.data(), crc_off);
    for (int i = 0; i < 4; ++i)
        bytes[crc_off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));
}

} // namespace

TEST(CkptContainer, WriteReadRoundTrip)
{
    ckpt::CheckpointReader r;
    ASSERT_EQ(r.loadBytes(makeCheckpoint(), test_config_hash),
              ckpt::LoadError::None);
    EXPECT_EQ(r.version(), ckpt::format_version);
    EXPECT_EQ(r.configHash(), test_config_hash);
    ASSERT_EQ(r.sections().size(), 2u);
    EXPECT_TRUE(r.hasSection(ckpt::fourcc("AAAA")));
    EXPECT_TRUE(r.hasSection(ckpt::fourcc("BBBB")));
    EXPECT_FALSE(r.hasSection(ckpt::fourcc("ZZZZ")));

    ckpt::Decoder a = r.section(ckpt::fourcc("AAAA"));
    EXPECT_EQ(a.u32(), 0xcafeu);
    EXPECT_EQ(a.str(), "payload-a");
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(a.atEnd());

    ckpt::Decoder b = r.section(ckpt::fourcc("BBBB"));
    EXPECT_EQ(b.varint(), 999u);
    EXPECT_TRUE(b.atEnd());
}

TEST(CkptContainer, AbsentSectionYieldsFailedDecoder)
{
    ckpt::CheckpointReader r;
    ASSERT_EQ(r.loadBytes(makeCheckpoint(), test_config_hash),
              ckpt::LoadError::None);
    ckpt::Decoder d = r.section(ckpt::fourcc("ZZZZ"));
    EXPECT_TRUE(d.failed());
    EXPECT_NE(d.error().find("absent"), std::string::npos);
}

TEST(CkptContainer, RejectsBadMagic)
{
    std::vector<std::uint8_t> bytes = makeCheckpoint();
    bytes[0] ^= 0xff;
    ckpt::CheckpointReader r;
    EXPECT_EQ(r.loadBytes(std::move(bytes), test_config_hash),
              ckpt::LoadError::BadMagic);
}

TEST(CkptContainer, RejectsShortHeader)
{
    std::vector<std::uint8_t> bytes = makeCheckpoint();
    bytes.resize(10);
    ckpt::CheckpointReader r;
    EXPECT_EQ(r.loadBytes(std::move(bytes), test_config_hash),
              ckpt::LoadError::Truncated);
}

TEST(CkptContainer, RejectsTruncatedPayload)
{
    std::vector<std::uint8_t> bytes = makeCheckpoint();
    bytes.pop_back();
    ckpt::CheckpointReader r;
    EXPECT_EQ(r.loadBytes(std::move(bytes), test_config_hash),
              ckpt::LoadError::Truncated);
}

TEST(CkptContainer, FlippedVersionByteReadsAsCorruption)
{
    // The header CRC covers the version field, so a bit flip in it
    // must be reported as corruption — not as honest version skew.
    std::vector<std::uint8_t> bytes = makeCheckpoint();
    bytes[4] ^= 0x02;
    ckpt::CheckpointReader r;
    EXPECT_EQ(r.loadBytes(std::move(bytes), test_config_hash),
              ckpt::LoadError::BadHeaderCrc);
}

TEST(CkptContainer, HonestVersionSkewIsBadVersion)
{
    // A well-formed file from a future format (consistent CRC).
    std::vector<std::uint8_t> bytes = makeCheckpoint();
    bytes[4] = static_cast<std::uint8_t>(ckpt::format_version + 1);
    fixHeaderCrc(bytes, 2);
    ckpt::CheckpointReader r;
    EXPECT_EQ(r.loadBytes(std::move(bytes), test_config_hash),
              ckpt::LoadError::BadVersion);
}

TEST(CkptContainer, RejectsForeignConfigHash)
{
    ckpt::CheckpointReader r;
    EXPECT_EQ(r.loadBytes(makeCheckpoint(), test_config_hash + 1),
              ckpt::LoadError::BadConfig);
    // The inspector path (no expected hash) still loads it.
    EXPECT_EQ(r.loadBytes(makeCheckpoint(), std::nullopt),
              ckpt::LoadError::None);
}

TEST(CkptContainer, PayloadBitFlipIsSectionCrc)
{
    std::vector<std::uint8_t> bytes = makeCheckpoint();
    bytes.back() ^= 0x01; // last payload byte
    ckpt::CheckpointReader r;
    EXPECT_EQ(r.loadBytes(std::move(bytes), test_config_hash),
              ckpt::LoadError::BadSectionCrc);
}

TEST(CkptContainer, ScrambledSectionTableIsMalformed)
{
    // Grow the first section's recorded length so the second
    // section's offset no longer tiles the payload; keep the header
    // CRC consistent so the table itself is what gets rejected.
    std::vector<std::uint8_t> bytes = makeCheckpoint();
    const std::size_t len_off = 4 + 4 + 8 + 4 + 4 + 8;
    bytes[len_off] += 1;
    fixHeaderCrc(bytes, 2);
    ckpt::CheckpointReader r;
    EXPECT_EQ(r.loadBytes(std::move(bytes), test_config_hash),
              ckpt::LoadError::Malformed);
}

TEST(CkptContainer, MissingFileIsIoError)
{
    ckpt::CheckpointReader r;
    EXPECT_EQ(r.loadFile("/nonexistent/nope.mwcp", std::nullopt),
              ckpt::LoadError::Io);
    EXPECT_FALSE(r.errorDetail().empty());
}

TEST(CkptContainer, AtomicWriteRoundTripAndFailure)
{
    TempDir dir;
    const std::string path = dir.file("blob.bin");
    const std::vector<std::uint8_t> bytes = makeCheckpoint();
    std::string why;
    ASSERT_TRUE(ckpt::atomicWriteFile(path, bytes.data(),
                                      bytes.size(), &why))
        << why;
    const auto back = ckpt::readFileBytes(path, &why);
    ASSERT_TRUE(back.has_value()) << why;
    EXPECT_EQ(*back, bytes);
    // No temp file left behind.
    EXPECT_FALSE(
        ckpt::readFileBytes(path + ".tmp").has_value());

    EXPECT_FALSE(ckpt::atomicWriteFile("/nonexistent/dir/x",
                                       bytes.data(), bytes.size(),
                                       &why));
    EXPECT_NE(why.find("/nonexistent/dir/x"), std::string::npos);
}

// ---- Sweep journal -----------------------------------------------------

namespace {

std::vector<std::uint8_t>
payloadFor(std::size_t i)
{
    ckpt::Encoder e;
    e.str("point");
    e.varint(i * 17);
    return e.take();
}

} // namespace

TEST(SweepJournal, AppendCloseRecover)
{
    TempDir dir;
    const std::string path = dir.file("run.mwsj");
    {
        ckpt::SweepJournal j;
        std::string why;
        ASSERT_TRUE(j.open(path, 42, &why)) << why;
        EXPECT_EQ(j.recovered(), 0u);
        for (std::size_t i = 0; i < 3; ++i)
            ASSERT_TRUE(j.append(i, payloadFor(i), &why)) << why;
    }
    ckpt::SweepJournal j;
    ASSERT_TRUE(j.open(path, 42));
    EXPECT_EQ(j.recovered(), 3u);
    EXPECT_EQ(j.tornBytes(), 0u);
    EXPECT_FALSE(j.discardedForeign());
    for (std::size_t i = 0; i < 3; ++i) {
        const auto *p = j.lookup(i);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(*p, payloadFor(i));
    }
    EXPECT_EQ(j.lookup(3), nullptr);
}

TEST(SweepJournal, TornTailTruncatedAndAppendable)
{
    TempDir dir;
    const std::string path = dir.file("run.mwsj");
    {
        ckpt::SweepJournal j;
        ASSERT_TRUE(j.open(path, 42));
        ASSERT_TRUE(j.append(0, payloadFor(0)));
        ASSERT_TRUE(j.append(1, payloadFor(1)));
    }
    {
        // Simulate SIGKILL mid-append: a partial record at the tail.
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const std::uint8_t garbage[7] = {2, 0, 0, 0, 0, 0, 0};
        std::fwrite(garbage, 1, sizeof(garbage), f);
        std::fclose(f);
    }
    ckpt::SweepJournal j;
    ASSERT_TRUE(j.open(path, 42));
    EXPECT_EQ(j.recovered(), 2u);
    EXPECT_GT(j.tornBytes(), 0u);
    ASSERT_NE(j.lookup(1), nullptr);
    // The journal is append-clean again after truncation.
    ASSERT_TRUE(j.append(2, payloadFor(2)));
    j.close();
    ckpt::SweepJournal j2;
    ASSERT_TRUE(j2.open(path, 42));
    EXPECT_EQ(j2.recovered(), 3u);
}

TEST(SweepJournal, CorruptPayloadMarksTornTail)
{
    TempDir dir;
    const std::string path = dir.file("run.mwsj");
    {
        ckpt::SweepJournal j;
        ASSERT_TRUE(j.open(path, 42));
        ASSERT_TRUE(j.append(0, payloadFor(0)));
        ASSERT_TRUE(j.append(1, payloadFor(1)));
    }
    {
        // Flip a byte in the LAST record's payload (CRC mismatch).
        auto bytes = ckpt::readFileBytes(path);
        ASSERT_TRUE(bytes.has_value());
        bytes->back() ^= 0x40;
        ASSERT_TRUE(ckpt::atomicWriteFile(path, bytes->data(),
                                          bytes->size()));
    }
    ckpt::SweepJournal j;
    ASSERT_TRUE(j.open(path, 42));
    EXPECT_EQ(j.recovered(), 1u);
    EXPECT_GT(j.tornBytes(), 0u);
    EXPECT_NE(j.lookup(0), nullptr);
    EXPECT_EQ(j.lookup(1), nullptr);
}

TEST(SweepJournal, ForeignRunHashDiscardsContents)
{
    TempDir dir;
    const std::string path = dir.file("run.mwsj");
    {
        ckpt::SweepJournal j;
        ASSERT_TRUE(j.open(path, 42));
        ASSERT_TRUE(j.append(0, payloadFor(0)));
    }
    ckpt::SweepJournal j;
    ASSERT_TRUE(j.open(path, 43));
    EXPECT_TRUE(j.discardedForeign());
    EXPECT_EQ(j.recovered(), 0u);
    EXPECT_EQ(j.lookup(0), nullptr);
}

TEST(SweepJournal, InspectorListsTornJournalWithoutWritingIt)
{
    // `mwckpt journal` is how an operator looks at a live server's
    // results.mwsj: it must report a torn tail, not truncate it.
    TempDir dir;
    const std::string path = dir.file("run.mwsj");
    {
        ckpt::SweepJournal j;
        ASSERT_TRUE(j.open(path, 42));
        ASSERT_TRUE(j.append(0, payloadFor(0)));
        ASSERT_TRUE(j.append(5, payloadFor(5)));
    }
    {
        // A writer killed 7 bytes into its next record.
        std::FILE *f = std::fopen(path.c_str(), "ab");
        ASSERT_NE(f, nullptr);
        const std::uint8_t partial[7] = {6, 0, 0, 0, 0, 0, 0};
        std::fwrite(partial, 1, sizeof(partial), f);
        std::fclose(f);
    }
    const auto before = ckpt::readFileBytes(path);
    ASSERT_TRUE(before.has_value());

    const std::string cmd = std::string(MWCKPT_BIN) + " journal '" +
                            path + "' > '" + dir.file("out.txt") + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
    const auto out = ckpt::readFileBytes(dir.file("out.txt"));
    ASSERT_TRUE(out.has_value());
    const std::string text(out->begin(), out->end());
    EXPECT_NE(text.find("records   2\n"), std::string::npos) << text;
    EXPECT_NE(text.find("torn tail 7 byte(s)"), std::string::npos)
        << text;
    for (const std::size_t i : {0u, 5u}) {
        char line[64];
        std::snprintf(line, sizeof(line), "point %4zu  %zu byte(s)\n",
                      i, payloadFor(i).size());
        EXPECT_NE(text.find(line), std::string::npos) << text;
    }

    EXPECT_EQ(ckpt::readFileBytes(path), before)
        << "inspecting a journal must leave its bytes unchanged";
}

// ---- Checkpoint store --------------------------------------------------

TEST(SweepJournal, AppendAfterCloseIsNamedError)
{
    TempDir dir;
    ckpt::SweepJournal j;
    ASSERT_TRUE(j.open(dir.file("j.mwsj"), 1));
    j.close();
    std::string why;
    EXPECT_FALSE(j.append(0, {1, 2, 3}, &why));
    EXPECT_EQ(why, "journal is not open");
}

TEST(SweepJournal, OpenFailureNamesPathAndErrno)
{
    ckpt::SweepJournal j;
    std::string why;
    // /dev/null is not a directory: open(2) fails with ENOTDIR.
    EXPECT_FALSE(j.open("/dev/null/sub/j.mwsj", 1, &why));
    EXPECT_NE(why.find("cannot open journal"), std::string::npos)
        << why;
    EXPECT_NE(why.find("/dev/null/sub/j.mwsj"), std::string::npos)
        << why;
    EXPECT_NE(why.find(std::strerror(ENOTDIR)), std::string::npos)
        << why;
}

TEST(CheckpointStore, SaveLoadAndCounters)
{
    TempDir dir;
    ckpt::CheckpointStore store(dir.path, test_config_hash);
    ckpt::CheckpointWriter w(store.configHash());
    w.section(ckpt::fourcc("AAAA")).varint(5);
    std::string why;
    ASSERT_TRUE(store.save("unit0", w, &why)) << why;

    ckpt::CheckpointReader r;
    EXPECT_EQ(store.load("unit0", r), ckpt::LoadError::None);
    const ckpt::StoreCounters c = store.counters();
    EXPECT_EQ(c.written, 1u);
    EXPECT_EQ(c.loaded, 1u);
    EXPECT_EQ(c.degraded(), 0u);
}

TEST(CheckpointStore, DegradationClassesAreDistinguished)
{
    TempDir dir;
    ckpt::CheckpointStore store(dir.path, test_config_hash);

    // Missing file.
    ckpt::CheckpointReader r;
    EXPECT_EQ(store.load("absent", r), ckpt::LoadError::Io);
    EXPECT_EQ(store.counters().degraded_missing, 1u);

    // Corrupt payload.
    ckpt::CheckpointWriter w(store.configHash());
    w.section(ckpt::fourcc("AAAA")).str("payload-bytes");
    ASSERT_TRUE(store.save("corrupt", w));
    {
        auto bytes = ckpt::readFileBytes(store.pathFor("corrupt"));
        ASSERT_TRUE(bytes.has_value());
        bytes->back() ^= 0x01;
        ASSERT_TRUE(ckpt::atomicWriteFile(store.pathFor("corrupt"),
                                          bytes->data(),
                                          bytes->size()));
    }
    EXPECT_EQ(store.load("corrupt", r),
              ckpt::LoadError::BadSectionCrc);
    EXPECT_EQ(store.counters().degraded_corrupt, 1u);

    // Honest version skew (header CRC kept consistent).
    ASSERT_TRUE(store.save("skew", w));
    {
        auto bytes = ckpt::readFileBytes(store.pathFor("skew"));
        ASSERT_TRUE(bytes.has_value());
        (*bytes)[4] += 1;
        fixHeaderCrc(*bytes, 1);
        ASSERT_TRUE(ckpt::atomicWriteFile(store.pathFor("skew"),
                                          bytes->data(),
                                          bytes->size()));
    }
    EXPECT_EQ(store.load("skew", r), ckpt::LoadError::BadVersion);
    EXPECT_EQ(store.counters().degraded_version, 1u);

    // Foreign configuration.
    ckpt::CheckpointStore other(dir.path, test_config_hash + 1);
    ASSERT_TRUE(store.save("foreign", w));
    EXPECT_EQ(other.load("foreign", r), ckpt::LoadError::BadConfig);
    EXPECT_EQ(other.counters().degraded_config, 1u);

    // Nothing ever crashed; totals add up.
    EXPECT_EQ(store.counters().degraded(), 3u);
}

TEST(CheckpointStore, NoteMalformedReclassifiesALoad)
{
    TempDir dir;
    ckpt::CheckpointStore store(dir.path, test_config_hash);
    ckpt::CheckpointWriter w(store.configHash());
    w.section(ckpt::fourcc("AAAA")).varint(1);
    ASSERT_TRUE(store.save("u", w));
    ckpt::CheckpointReader r;
    ASSERT_EQ(store.load("u", r), ckpt::LoadError::None);
    // Container CRCs passed but the payload failed to decode.
    store.noteMalformed();
    const ckpt::StoreCounters c = store.counters();
    EXPECT_EQ(c.loaded, 0u);
    EXPECT_EQ(c.degraded_corrupt, 1u);
}

TEST(CheckpointStore, WriteErrorIsCountedNotFatal)
{
    ckpt::CheckpointStore store("/nonexistent/dir", 1);
    ckpt::CheckpointWriter w(1);
    w.section(ckpt::fourcc("AAAA")).varint(1);
    std::string why;
    EXPECT_FALSE(store.save("u", w, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_EQ(store.counters().write_errors, 1u);
    EXPECT_EQ(store.counters().written, 0u);
}

TEST(CheckpointStore, TwoProcessSaveLoadRaceNeverShowsTornEntry)
{
    // The atomic-rename contract: a reader racing a writer on the
    // same key sees either a complete old entry or a complete new
    // one — never a torn file. Run a child process hammering saves
    // of two distinguishable payloads while the parent loads.
    TempDir dir;
    const std::string payload_a(4096, 'a');
    const std::string payload_b(4096, 'b');

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ckpt::CheckpointStore store(dir.path, test_config_hash);
        for (int i = 0; i < 200; ++i) {
            ckpt::CheckpointWriter w(store.configHash());
            w.section(ckpt::fourcc("RACE"))
                .str(i % 2 ? payload_b : payload_a);
            if (!store.save("race", w))
                ::_exit(2);
        }
        ::_exit(0);
    }

    ckpt::CheckpointStore store(dir.path, test_config_hash);
    int loads_ok = 0;
    int status = 0;
    bool child_done = false;
    // Load as fast as possible for the writer's whole lifetime (plus
    // one final pass), so loads overlap every save/rename window.
    while (!child_done) {
        child_done = ::waitpid(pid, &status, WNOHANG) == pid;
        ckpt::CheckpointReader r;
        const ckpt::LoadError e = store.load("race", r);
        if (e == ckpt::LoadError::Io)
            continue; // not yet written: fine
        // Any *visible* entry must validate completely...
        ASSERT_EQ(e, ckpt::LoadError::None) << "torn entry seen";
        // ...and decode to one of the two full payloads.
        ckpt::Decoder d = r.section(ckpt::fourcc("RACE"));
        const std::string got = d.str();
        ASSERT_TRUE(d.ok());
        ASSERT_TRUE(got == payload_a || got == payload_b)
            << "mixed payload of length " << got.size();
        ++loads_ok;
    }
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_GT(loads_ok, 0);
    // After the writer exits the entry is stably loadable.
    ckpt::CheckpointReader r;
    EXPECT_EQ(store.load("race", r), ckpt::LoadError::None);
}

// ---- Component round-trips ----------------------------------------------

TEST(StateRoundTrip, Cache)
{
    Cache src(cacheCfg(8 * KiB, 2));
    for (std::uint64_t i = 0; i < 500; ++i)
        src.access(scrambled(i), i % 3 == 0);
    Cache dst(cacheCfg(8 * KiB, 2));
    expectRoundTrip(src, dst);

    // The restored cache continues with identical behaviour.
    for (std::uint64_t i = 0; i < 200; ++i) {
        const Addr a = scrambled(i * 7 + 1);
        EXPECT_EQ(src.access(a, false).hit, dst.access(a, false).hit);
    }
    EXPECT_EQ(stateBytes(src), stateBytes(dst));
}

TEST(StateRoundTrip, CacheRejectsForeignGeometry)
{
    Cache src(cacheCfg(8 * KiB, 2));
    src.access(0x100, false);
    const auto bytes = stateBytes(src);

    Cache other(cacheCfg(16 * KiB, 2));
    other.access(0x200, false);
    const auto before = stateBytes(other);
    ckpt::Decoder d(bytes);
    other.loadState(d);
    EXPECT_TRUE(d.failed());
    EXPECT_NE(d.error().find("geometry"), std::string::npos);
    // All-or-nothing: the rejected load changed nothing.
    EXPECT_EQ(stateBytes(other), before);
}

TEST(StateRoundTrip, CachesRejectAddressesNoAccessMakes)
{
    // An empty way is marked by an all-ones tag and an empty victim
    // entry by an odd block address; a checkpoint that names either
    // as resident must be refused, leaving the cache untouched.
    Cache cache(cacheCfg(1 * KiB, 1));  // 32 sets, 1 way
    cache.access(0x40, false);
    const auto cache_before = stateBytes(cache);
    ckpt::Encoder ce;
    ce.varint(32);  // sets
    ce.varint(1);   // ways
    ce.varint(32);  // line size
    ce.u8(0);       // LRU
    ce.u64(1);      // replacement RNG
    ckpt::putAccessStats(ce, AccessStats{});
    ce.u8(1);       // way 0 valid and clean...
    ce.varint(~std::uint64_t{0});  // ...with a tag no address has
    ce.varint(0);
    ce.varint(1);
    for (int way = 1; way < 32; ++way)
        ce.u8(0);
    ckpt::Decoder cd(ce.data());
    cache.loadState(cd);
    EXPECT_TRUE(cd.failed());
    EXPECT_NE(cd.error().find("tag"), std::string::npos);
    EXPECT_EQ(stateBytes(cache), cache_before);

    VictimCache vc;
    vc.insert(0x100);
    const auto vc_before = stateBytes(vc);
    ckpt::Encoder ve;
    ve.varint(16);  // entries
    ve.varint(32);  // line size
    ckpt::putAccessStats(ve, AccessStats{});
    ve.u8(1);
    ve.varint(0x101);  // not a 32-byte block address
    ve.varint(1);
    for (int entry = 1; entry < 16; ++entry)
        ve.u8(0);
    ckpt::Decoder vd(ve.data());
    vc.loadState(vd);
    EXPECT_TRUE(vd.failed());
    EXPECT_NE(vd.error().find("unaligned"), std::string::npos);
    EXPECT_EQ(stateBytes(vc), vc_before);
}

TEST(StateRoundTrip, VictimCache)
{
    VictimCache src;
    for (std::uint64_t i = 0; i < 100; ++i) {
        src.insert(scrambled(i));
        src.access(scrambled(i / 2), i % 5 == 0);
    }
    VictimCache dst;
    expectRoundTrip(src, dst);
    for (std::uint64_t i = 0; i < 50; ++i)
        EXPECT_EQ(src.probe(scrambled(i)), dst.probe(scrambled(i)));
}

TEST(StateRoundTrip, ColumnCaches)
{
    ColumnDataCache dsrc;
    ColumnInstrCache isrc;
    for (std::uint64_t i = 0; i < 400; ++i) {
        dsrc.access(scrambled(i), i % 4 == 0);
        isrc.fetch(0x10000 + (scrambled(i) & 0xffff));
    }
    ColumnDataCache ddst;
    ColumnInstrCache idst;
    expectRoundTrip(dsrc, ddst);
    expectRoundTrip(isrc, idst);
    // Continuation equivalence for the data side.
    for (std::uint64_t i = 0; i < 100; ++i) {
        const Addr a = scrambled(i * 3 + 5);
        EXPECT_EQ(dsrc.access(a, true), ddst.access(a, true));
    }
    EXPECT_EQ(stateBytes(dsrc), stateBytes(ddst));
}

TEST(StateRoundTrip, SyntheticWorkloadContinuation)
{
    const SpecWorkload &wl = specSuite().front();
    SyntheticWorkload src(wl.proxy);
    std::vector<MemRef> sink;
    src.generateBatch(5'000, sink);

    const auto bytes = stateBytes(src);
    SyntheticWorkload dst(wl.proxy);
    ckpt::Decoder d(bytes);
    dst.loadState(d);
    ASSERT_TRUE(d.ok()) << d.error();
    ASSERT_TRUE(d.atEnd());

    // Both generators must now emit the exact same future stream.
    std::vector<MemRef> a, b;
    src.generateBatch(2'000, a);
    dst.generateBatch(2'000, b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc);
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].type, b[i].type);
    }
}

TEST(StateRoundTrip, SyntheticWorkloadRejectsForeignSpec)
{
    const SpecWorkload &wl = specSuite().front();
    SyntheticWorkload src(wl.proxy);
    const auto bytes = stateBytes(src);

    SyntheticSpec other = wl.proxy;
    other.seed += 1;
    SyntheticWorkload dst(other);
    ckpt::Decoder d(bytes);
    dst.loadState(d);
    EXPECT_TRUE(d.failed());
}

// ---- Result serialization (journal payloads) ----------------------------

TEST(ResultCodec, WorkloadMissRatesRoundTrip)
{
    WorkloadMissRates r;
    r.workload = "126.gcc";
    CacheMissResult c;
    c.label = "proposed";
    c.stats.load_hits.inc(100);
    c.stats.load_misses.inc(7);
    r.icaches.push_back(c);
    c.label = "conv-16K-dm";
    c.stats.store_misses.inc(12);
    r.dcaches.push_back(c);

    ckpt::Encoder e;
    encodeResult(e, r);
    ckpt::Decoder d(e.data());
    WorkloadMissRates back;
    ASSERT_TRUE(decodeResult(d, back));
    ckpt::Encoder e2;
    encodeResult(e2, back);
    EXPECT_EQ(e2.data(), e.data());

    // Truncated payloads are refused without touching the output.
    auto bytes = e.take();
    bytes.pop_back();
    ckpt::Decoder d2(bytes);
    WorkloadMissRates untouched;
    untouched.workload = "sentinel";
    EXPECT_FALSE(decodeResult(d2, untouched));
    EXPECT_EQ(untouched.workload, "sentinel");
}

// ---- Checkpoint-accelerated sampling -------------------------------------

namespace {

/** Journal payload with the acceleration bookkeeping masked out —
 *  restored and rewarmed runs must agree on everything else. */
std::vector<std::uint8_t>
measurementBytes(SampledWorkloadMissRates r)
{
    r.ckpt_restored_units = 0;
    r.ckpt_saved_units = 0;
    r.ckpt_degraded_units = 0;
    ckpt::Encoder e;
    encodeResult(e, r);
    return e.take();
}

} // namespace

TEST(CkptAcceleration, RestoreMatchesRewarmByteForByte)
{
    const SpecWorkload &wl = specSuite().front();
    MissRateParams params;
    params.stationary_start = true;
    SamplingPlan plan;
    plan.scheme = SampleScheme::Stratified;
    plan.units = 4;
    plan.unit_refs = 300;
    plan.warmup_refs = 600;
    plan.validate();

    TempDir dir;
    ckpt::CheckpointStore store(dir.path, samplingPlanHash(plan));

    // Cold accelerated run: every unit degrades (missing) and then
    // populates the store.
    const SampledWorkloadMissRates cold =
        measureMissRatesSampled(wl, params, plan, &store);
    EXPECT_EQ(cold.ckpt_restored_units, 0u);
    EXPECT_EQ(cold.ckpt_degraded_units, 4u);
    EXPECT_EQ(cold.ckpt_saved_units, 4u);
    EXPECT_EQ(store.counters().written, 4u);

    // Warm accelerated run: every warm phase is a checkpoint load.
    const SampledWorkloadMissRates warm =
        measureMissRatesSampled(wl, params, plan, &store);
    EXPECT_EQ(warm.ckpt_restored_units, 4u);
    EXPECT_EQ(warm.ckpt_degraded_units, 0u);

    // Plain run without any store.
    const SampledWorkloadMissRates plain =
        measureMissRatesSampled(wl, params, plan);
    EXPECT_EQ(plain.ckpt_restored_units, 0u);
    EXPECT_EQ(plain.ckpt_degraded_units, 0u);

    // All three must be byte-identical measurements — restored warm
    // state IS the state a cold run reaches, and warm_refs is still
    // accounted for restored units.
    EXPECT_EQ(measurementBytes(cold), measurementBytes(plain));
    EXPECT_EQ(measurementBytes(warm), measurementBytes(plain));
    EXPECT_EQ(warm.warm_refs, plain.warm_refs);
}

TEST(CkptAcceleration, CorruptUnitDegradesGracefully)
{
    const SpecWorkload &wl = specSuite().front();
    MissRateParams params;
    SamplingPlan plan;
    plan.scheme = SampleScheme::Stratified;
    plan.units = 3;
    plan.unit_refs = 200;
    plan.warmup_refs = 400;
    plan.validate();

    TempDir dir;
    ckpt::CheckpointStore store(dir.path, samplingPlanHash(plan));
    const SampledWorkloadMissRates cold =
        measureMissRatesSampled(wl, params, plan, &store);

    // Corrupt one unit's file; the others stay intact.
    const std::string victim =
        store.pathFor(wl.name + "-u1");
    auto bytes = ckpt::readFileBytes(victim);
    ASSERT_TRUE(bytes.has_value());
    bytes->back() ^= 0x10;
    ASSERT_TRUE(ckpt::atomicWriteFile(victim, bytes->data(),
                                      bytes->size()));

    ckpt::CheckpointStore store2(dir.path, samplingPlanHash(plan));
    const SampledWorkloadMissRates mixed =
        measureMissRatesSampled(wl, params, plan, &store2);
    EXPECT_EQ(mixed.ckpt_restored_units, 2u);
    EXPECT_EQ(mixed.ckpt_degraded_units, 1u);
    EXPECT_EQ(store2.counters().degraded_corrupt, 1u);
    // The rewarmed unit reproduces the same measurement anyway.
    EXPECT_EQ(measurementBytes(mixed), measurementBytes(cold));
}
