/**
 * @file
 * mw-client — one-shot client for the mw-server experiment service.
 *
 *   mw-client --socket PATH run --experiment NAME [--quick]
 *             [--refs N] [--seed N] [--sample PLAN] [--nodes N]
 *             [--deadline-ms N] [--timeout-ms N] [--id STR]
 *             [--raw-result]
 *   mw-client --socket PATH stats
 *   mw-client --socket PATH ping
 *   mw-client --socket PATH shutdown
 *   mw-client --socket PATH send JSON     (raw request passthrough)
 *
 * NAME is a catalog entry: fig7, fig8, table1, table3, table4, or a
 * SPLASH figure fig13..fig17. --sample forwards a sampling plan (the
 * bench --sample syntax) for the experiments that accept one;
 * --nodes restricts a SPLASH sweep to one processor count.
 *
 * --timeout-ms bounds the WHOLE transaction per syscall: the
 * connect itself (a wedged server whose accept backlog is full hangs
 * a plain connect(2) forever — no read timeout would ever fire) and
 * every subsequent read/write. 0 (default) means wait indefinitely.
 *
 * Prints the server's response envelope to stdout. With
 * --raw-result, prints only the bytes of the embedded "result"
 * member (extracted by byte span, not re-serialized), which for a
 * run request is byte-identical to the corresponding one-shot
 * bench's --format json output.
 *
 * Exit status: 0 for a "status":"ok" response, 1 for a server-side
 * error response or transport failure, 2 for usage errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "common/json_text.hh"
#include "server/json.hh"
#include "server/wire.hh"

using namespace memwall;
using namespace memwall::server;

namespace {

[[noreturn]] void
usage(const char *why)
{
    if (why != nullptr)
        std::fprintf(stderr, "mw-client: %s\n", why);
    std::fprintf(
        stderr,
        "usage: mw-client --socket PATH run --experiment NAME\n"
        "                 [--quick] [--refs N] [--seed N]\n"
        "                 [--sample PLAN] [--nodes N]\n"
        "                 [--deadline-ms N] [--timeout-ms N]\n"
        "                 [--id STR] [--raw-result]\n"
        "       mw-client --socket PATH stats|ping|shutdown\n"
        "       mw-client --socket PATH send JSON\n"
        "catalog: fig7 fig8 table1 table3 table4 fig13 fig14 fig15 "
        "fig16 fig17\n");
    std::exit(2);
}

std::uint64_t
numberArg(const char *flag, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value, &end, 0);
    if (errno != 0 || end == value || *end != '\0') {
        const std::string why = std::string("invalid value '") +
                                value + "' for " + flag;
        usage(why.c_str());
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path;
    std::string request;
    bool raw_result = false;

    int i = 1;
    const auto value = [&](const std::string &flag) -> const char * {
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        return argv[++i];
    };

    std::string cmd;
    std::string experiment;
    std::string id;
    std::string sample;
    bool quick = false;
    std::uint64_t refs = 0, seed = 42, deadline_ms = 0;
    std::uint64_t nodes = 0, timeout_ms = 0;
    bool have_seed_flag = false;
    std::string raw_json;

    for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket")
            socket_path = value(arg);
        else if (arg == "--experiment")
            experiment = value(arg);
        else if (arg == "--quick")
            quick = true;
        else if (arg == "--refs")
            refs = numberArg("--refs", value(arg));
        else if (arg == "--seed") {
            seed = numberArg("--seed", value(arg));
            have_seed_flag = true;
        } else if (arg == "--sample")
            sample = value(arg);
        else if (arg == "--nodes")
            nodes = numberArg("--nodes", value(arg));
        else if (arg == "--deadline-ms")
            deadline_ms = numberArg("--deadline-ms", value(arg));
        else if (arg == "--timeout-ms")
            timeout_ms = numberArg("--timeout-ms", value(arg));
        else if (arg == "--id")
            id = value(arg);
        else if (arg == "--raw-result")
            raw_result = true;
        else if (cmd.empty() &&
                 (arg == "run" || arg == "stats" || arg == "ping" ||
                  arg == "shutdown"))
            cmd = arg;
        else if (cmd.empty() && arg == "send") {
            cmd = arg;
            raw_json = value(arg);
        } else
            usage(("unknown argument '" + arg + "'").c_str());
    }
    if (socket_path.empty())
        usage("--socket is required");
    if (cmd.empty())
        usage("no command given");

    if (cmd == "send") {
        request = raw_json;
    } else if (cmd == "run") {
        if (experiment.empty())
            usage("run needs --experiment NAME (fig7 fig8 table1 "
                  "table3 table4 fig13 fig14 fig15 fig16 fig17)");
        request = "{\"cmd\":\"run\",\"experiment\":\"" +
                  jsontext::escape(experiment) + "\"";
        if (!id.empty())
            request += ",\"id\":\"" + jsontext::escape(id) + "\"";
        if (quick)
            request += ",\"quick\":true";
        if (refs > 0)
            request += ",\"refs\":" + std::to_string(refs);
        if (have_seed_flag)
            request += ",\"seed\":" + std::to_string(seed);
        if (!sample.empty())
            request += ",\"sample\":\"" + jsontext::escape(sample) + "\"";
        if (nodes > 0)
            request += ",\"nodes\":" + std::to_string(nodes);
        if (deadline_ms > 0)
            request +=
                ",\"deadline_ms\":" + std::to_string(deadline_ms);
        request += "}";
    } else {
        request = "{\"cmd\":\"" + cmd + "\"";
        if (!id.empty())
            request += ",\"id\":\"" + jsontext::escape(id) + "\"";
        request += "}";
    }

    std::string why;
    const int fd = connectUnixTimeout(socket_path, timeout_ms, &why);
    if (fd < 0) {
        std::fprintf(stderr, "mw-client: %s\n", why.c_str());
        return 1;
    }
    if (!setIoTimeout(fd, timeout_ms, &why)) {
        std::fprintf(stderr, "mw-client: %s\n", why.c_str());
        ::close(fd);
        return 1;
    }
    if (!writeFrame(fd, request, &why)) {
        std::fprintf(stderr, "mw-client: %s\n", why.c_str());
        ::close(fd);
        return 1;
    }
    std::string response;
    const FrameStatus st = readFrame(fd, response, &why);
    ::close(fd);
    if (st != FrameStatus::Ok) {
        std::fprintf(stderr, "mw-client: %s\n",
                     why.empty() ? "connection closed" : why.c_str());
        return 1;
    }

    JsonValue root;
    std::string err;
    if (!parseJson(response, root, err)) {
        std::fprintf(stderr,
                     "mw-client: unparseable response (%s)\n",
                     err.c_str());
        std::fwrite(response.data(), 1, response.size(), stdout);
        return 1;
    }
    const JsonValue *status = root.find("status");
    const bool ok = status != nullptr && status->isString() &&
                    status->text == "ok";

    if (raw_result && ok) {
        // The protocol puts "result" last in the envelope, so its
        // raw bytes run to the envelope's closing brace. That tail
        // matters: the figure document ends in a newline, which is
        // part of what the one-shot binary prints but trailing
        // whitespace outside the JSON value's span.
        if (const JsonValue *result = root.find("result")) {
            const std::size_t end = response.size() - 1;
            std::fwrite(response.data() + result->begin, 1,
                        end - result->begin, stdout);
            return 0;
        }
        std::fprintf(stderr,
                     "mw-client: ok response without result\n");
        return 1;
    }

    std::fwrite(response.data(), 1, response.size(), stdout);
    std::fputc('\n', stdout);
    return ok ? 0 : 1;
}
