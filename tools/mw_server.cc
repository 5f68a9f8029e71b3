/**
 * @file
 * mw-server — resident experiment service.
 *
 *   mw-server --socket PATH --cache-dir DIR [--jobs N]
 *             [--cache-cap-bytes N] [--max-connections N]
 *             [--max-inflight N] [--batch-window-ms N]
 *             [--allow-test-faults]
 *
 * Listens on a Unix-domain socket for framed JSON requests (see
 * src/server/protocol.hh for the schema), computes the experiment
 * catalog (figures 7/8, the SPEC tables, the SPLASH figures)
 * on a shared thread pool with request deduplication and batching,
 * and memoizes results in a crash-safe journal,
 * <cache-dir>/results.mwsj, which --cache-cap-bytes bounds through
 * compaction and `mwckpt journal` lists. SIGINT/SIGTERM (or a
 * "shutdown" request) drain and exit cleanly; a SIGKILL'd server
 * replays its journal on restart. Request deadlines (deadline_ms)
 * and mw-client --timeout-ms bound how long any client waits.
 *
 * Batching shares compute units between runs: a point joins a unit
 * of the same unit key that is queued, running, or finished less
 * than --batch-window-ms ago (default 0: in-flight units only), so a
 * fig8 sent right after its fig7 reuses fig7's units. The window is
 * how long a finished unit stays joinable, not a wait: every run's
 * new units start at once.
 *
 * --allow-test-faults enables the "fault" request field used by the
 * torture bench to inject worker failures and hangs; never pass it
 * in real use.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <csignal>

#include "common/logging.hh"
#include "common/parse_unsigned.hh"
#include "server/server.hh"

using namespace memwall;

namespace {

server::MwServer *g_server = nullptr;

void
handleSignal(int)
{
    if (g_server != nullptr)
        g_server->requestStop(); // one async-signal-safe write(2)
}

[[noreturn]] void
usage(const char *why)
{
    if (why != nullptr)
        std::fprintf(stderr, "mw-server: %s\n", why);
    std::fprintf(
        stderr,
        "usage: mw-server --socket PATH --cache-dir DIR [--jobs N]\n"
        "                 [--cache-cap-bytes N] [--max-connections N]\n"
        "                 [--max-inflight N] [--batch-window-ms N]\n"
        "                 [--allow-test-faults]\n");
    std::exit(2);
}

template <typename T = std::uint64_t>
T
numberArg(const char *flag, const char *value)
{
    const std::optional<T> v = parseUnsigned<T>(value);
    if (!v)
        usage((std::string("invalid value '") + value + "' for " + flag)
                  .c_str());
    return *v;
}

} // namespace

int
main(int argc, char **argv)
{
    server::ServerOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                const std::string why =
                    "missing value for " + arg;
                usage(why.c_str());
            }
            return argv[++i];
        };
        if (arg == "--socket")
            opt.socket_path = value();
        else if (arg == "--cache-dir")
            opt.cache_dir = value();
        else if (arg == "--jobs")
            opt.jobs = numberArg<unsigned>("--jobs", value());
        else if (arg == "--cache-cap-bytes")
            opt.cache_cap_bytes =
                numberArg("--cache-cap-bytes", value());
        else if (arg == "--max-connections")
            opt.max_connections =
                numberArg("--max-connections", value());
        else if (arg == "--max-inflight")
            opt.max_inflight = numberArg("--max-inflight", value());
        else if (arg == "--batch-window-ms")
            opt.batch_window_ms =
                numberArg("--batch-window-ms", value());
        else if (arg == "--allow-test-faults")
            opt.allow_test_faults = true;
        else
            usage(("unknown flag '" + arg + "'").c_str());
    }
    if (opt.socket_path.empty())
        usage("--socket is required");
    if (opt.cache_dir.empty())
        usage("--cache-dir is required");

    server::MwServer srv(opt);
    std::string why;
    if (!srv.start(&why)) {
        std::fprintf(stderr, "mw-server: %s\n", why.c_str());
        return 1;
    }

    g_server = &srv;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = handleSignal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);
    // A client that closes its socket before we finish writing must
    // surface as EPIPE in writeFrame, not SIGPIPE-kill the daemon
    // (writeFrame also passes MSG_NOSIGNAL; this covers everything
    // else that might ever write to a dead peer).
    struct sigaction ign;
    std::memset(&ign, 0, sizeof(ign));
    ign.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ign, nullptr);

    MW_INFORM("mw-server: listening on ", opt.socket_path,
              " (cache: ", opt.cache_dir,
              ", build: ", server::gitDescribe(), ")");
    srv.run();
    MW_INFORM("mw-server: stopped");
    g_server = nullptr;
    return 0;
}
