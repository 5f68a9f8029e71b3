/**
 * @file
 * Tests for the on-disk helpers in src/checkpoint: the binary codec,
 * the atomic whole-file write (including a writer racing a reader in
 * another process) and the MWSJ journal behind mw-server's result
 * cache, with its `mwckpt journal` inspector.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "checkpoint/codec.hh"
#include "checkpoint/file_io.hh"
#include "checkpoint/journal.hh"

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

// ---- Atomic whole-file writes -------------------------------------------

TEST(CkptContainer, AtomicWriteRoundTripAndFailure)
{
    TempDir dir;
    const std::string path = dir.file("blob.bin");
    std::vector<std::uint8_t> bytes(1000);
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<std::uint8_t>(i * 7);
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

TEST(CkptContainer, TwoProcessWriteReadRaceNeverShowsTornFile)
{
    // The atomic-rename contract: a reader racing a writer on the
    // same path sees either a complete old file or a complete new
    // one — never a torn file. Run a child process hammering writes
    // of two distinguishable payloads while the parent reads.
    TempDir dir;
    const std::string path = dir.file("race.bin");
    const std::vector<std::uint8_t> payload_a(4096, 'a');
    const std::vector<std::uint8_t> payload_b(4096, 'b');

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        for (int i = 0; i < 200; ++i) {
            const std::vector<std::uint8_t> &p =
                i % 2 ? payload_b : payload_a;
            if (!ckpt::atomicWriteFile(path, p.data(), p.size()))
                ::_exit(2);
        }
        ::_exit(0);
    }

    int reads_ok = 0;
    int status = 0;
    bool child_done = false;
    // Read as fast as possible for the writer's whole lifetime (plus
    // one final pass), so reads overlap every write/rename window.
    while (!child_done) {
        child_done = ::waitpid(pid, &status, WNOHANG) == pid;
        const auto got = ckpt::readFileBytes(path);
        if (!got)
            continue; // not yet written: fine
        // Any *visible* file must be one of the two whole payloads.
        ASSERT_TRUE(*got == payload_a || *got == payload_b)
            << "torn file of length " << got->size();
        ++reads_ok;
    }
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    EXPECT_GT(reads_ok, 0);
    // After the writer exits the file holds its last payload.
    EXPECT_EQ(ckpt::readFileBytes(path), payload_b);
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
    ASSERT_EQ(j.records().size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        ASSERT_EQ(j.records().count(i), 1u) << i;
        EXPECT_EQ(j.records().at(i), payloadFor(i));
    }
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
    ASSERT_EQ(j.records().count(1), 1u);
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
    EXPECT_EQ(j.records().count(0), 1u);
    EXPECT_EQ(j.records().count(1), 0u);
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
    EXPECT_TRUE(j.records().empty());
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
