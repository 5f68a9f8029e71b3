/**
 * @file
 * mwckpt — MWCP checkpoint and MWSJ journal inspector.
 *
 *   mwckpt info     file.mwcp   header + section table dump
 *   mwckpt verify   file.mwcp   full CRC walk; exit 1 on any damage
 *   mwckpt journal  file.mwsj   record listing of a sweep journal or
 *                               a server's results.mwsj; read-only
 *   mwckpt selftest             write/corrupt/reject round trip in
 *                               a scratch directory (smoke test)
 *
 * The inspector loads files WITHOUT a config-hash expectation (the
 * hash is printed for the operator to compare); simulation code must
 * always pass the expected hash instead.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "checkpoint/checkpoint.hh"
#include "checkpoint/journal.hh"

using namespace memwall;

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: mwckpt info    FILE.mwcp\n"
                 "       mwckpt verify  FILE.mwcp\n"
                 "       mwckpt journal FILE.mwsj\n"
                 "       mwckpt selftest\n");
    return 2;
}

/** Load with full validation; prints the rejection on failure. */
bool
loadChecked(ckpt::CheckpointReader &reader, const char *path)
{
    const ckpt::LoadError e =
        reader.loadFile(path, std::nullopt);
    if (e != ckpt::LoadError::None) {
        std::printf("%s: REJECTED (%s): %s\n", path,
                    ckpt::loadErrorName(e),
                    reader.errorDetail().c_str());
        return false;
    }
    return true;
}

int
cmdInfo(const char *path)
{
    ckpt::CheckpointReader reader;
    if (!loadChecked(reader, path))
        return 1;
    std::printf("%s: MWCP checkpoint\n", path);
    std::printf("  format version %u\n", reader.version());
    std::printf("  config hash    %016llx\n",
                static_cast<unsigned long long>(
                    reader.configHash()));
    std::printf("  sections       %zu\n", reader.sections().size());
    for (const auto &s : reader.sections())
        std::printf("    %-4s  offset %8llu  length %8llu  "
                    "crc %08x\n",
                    ckpt::fourccName(s.id).c_str(),
                    static_cast<unsigned long long>(s.offset),
                    static_cast<unsigned long long>(s.length),
                    s.crc);
    return 0;
}

int
cmdVerify(const char *path)
{
    // loadFile already walks every CRC (header and per-section);
    // verify is info's validation without the dump.
    ckpt::CheckpointReader reader;
    if (!loadChecked(reader, path))
        return 1;
    std::printf("%s: ok (%zu section(s), config %016llx)\n", path,
                reader.sections().size(),
                static_cast<unsigned long long>(
                    reader.configHash()));
    return 0;
}

int
cmdJournal(const char *path)
{
    // Read-only: the journal may belong to a live writer (a server's
    // <cache-dir>/results.mwsj), so a torn tail is reported, never
    // truncated.
    std::string why;
    const auto scan = ckpt::scanJournal(path, &why);
    if (!scan) {
        std::fprintf(stderr, "mwckpt: %s\n", why.c_str());
        return 1;
    }
    if (!scan->header_ok) {
        std::printf("%s: not a MWSJ sweep journal\n", path);
        return 1;
    }
    std::printf("%s: MWSJ sweep journal\n", path);
    std::printf("  run hash  %016llx\n",
                static_cast<unsigned long long>(scan->run_hash));
    std::printf("  records   %zu\n", scan->records.size());
    if (scan->torn_bytes)
        std::printf("  torn tail %zu byte(s)\n", scan->torn_bytes);
    for (const auto &[index, payload] : scan->records)
        std::printf("    point %4zu  %zu byte(s)\n", index,
                    payload.size());
    return 0;
}

int
cmdSelftest()
{
    char tmpl[] = "/tmp/mwckpt-selftest-XXXXXX";
    if (!::mkdtemp(tmpl)) {
        std::perror("mwckpt: mkdtemp");
        return 1;
    }
    const std::string path = std::string(tmpl) + "/self.mwcp";
    int failures = 0;
    const auto check = [&failures](bool ok, const char *what) {
        std::printf("  %-34s %s\n", what, ok ? "ok" : "FAIL");
        if (!ok)
            ++failures;
    };

    ckpt::CheckpointWriter w(0xfeedface);
    ckpt::Encoder &enc = w.section(ckpt::fourcc("SELF"));
    for (std::uint64_t i = 0; i < 1000; ++i)
        enc.varint(i * i);
    std::string why;
    check(w.writeFile(path, &why), "atomic write");

    ckpt::CheckpointReader reader;
    check(reader.loadFile(path, 0xfeedface) ==
              ckpt::LoadError::None,
          "validated load");
    check(reader.loadFile(path, 0xdeadbeef) ==
              ckpt::LoadError::BadConfig,
          "foreign config rejected");

    auto bytes = ckpt::readFileBytes(path);
    check(bytes.has_value(), "read back");
    if (bytes) {
        (*bytes)[bytes->size() / 2] ^= 0x20;
        ckpt::atomicWriteFile(path, bytes->data(), bytes->size());
        check(reader.loadFile(path, 0xfeedface) !=
                  ckpt::LoadError::None,
              "bit flip rejected");
    }

    const std::string cleanup =
        std::string("rm -rf '") + tmpl + "'";
    [[maybe_unused]] const int rc = std::system(cleanup.c_str());
    return failures ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const char *cmd = argv[1];
    if (std::strcmp(cmd, "selftest") == 0)
        return cmdSelftest();
    if (argc < 3)
        return usage();
    if (std::strcmp(cmd, "info") == 0)
        return cmdInfo(argv[2]);
    if (std::strcmp(cmd, "verify") == 0)
        return cmdVerify(argv[2]);
    if (std::strcmp(cmd, "journal") == 0)
        return cmdJournal(argv[2]);
    return usage();
}
