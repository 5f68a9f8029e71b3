/**
 * @file
 * mwckpt — MWSJ journal inspector.
 *
 *   mwckpt journal  file.mwsj   record listing of a journal such as a
 *                               server's results.mwsj; read-only
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "checkpoint/journal.hh"

using namespace memwall;

namespace {

int
usage()
{
    std::fprintf(stderr, "usage: mwckpt journal FILE.mwsj\n");
    return 2;
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

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3 || std::strcmp(argv[1], "journal") != 0)
        return usage();
    return cmdJournal(argv[2]);
}
