/**
 * @file
 * Tiny helpers for the hand-rolled JSON writers.
 *
 * The figure/table documents, the server's responses, mw-client's
 * requests and mw32-lint's report are built with printf-style
 * formatting and string appends (the formats ARE the byte contract
 * between the one-shot binaries and mw-server), so the helpers here
 * exist for three jobs only: appending formatted text to a growing
 * document, formatting a double so that a non-finite value becomes
 * the JSON literal `null` instead of the bare `nan`/`inf` printf
 * would produce — which the strict parser on the other end rightly
 * rejects — and escaping text for a string literal.
 */

#ifndef MEMWALL_COMMON_JSON_TEXT_HH
#define MEMWALL_COMMON_JSON_TEXT_HH

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>

#include "common/logging.hh"

namespace memwall {
namespace jsontext {

/** printf into a std::string (the figures were written with printf;
 *  keeping the exact format strings keeps the exact bytes). */
template <typename... Args>
void
appendf(std::string &out, const char *fmt, Args... args)
{
    char buf[512];
    const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
    MW_ASSERT(n >= 0 && n < static_cast<int>(sizeof(buf)),
              "figure JSON row overflows the format buffer");
    out.append(buf, static_cast<std::size_t>(n));
}

/**
 * A double as a JSON number token: %.9g for finite values, `null`
 * for NaN/inf (e.g. a confidence half-width from a single-unit
 * sample, where the variance is undefined). Splice the returned
 * token with %s.
 */
inline std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    const int n = std::snprintf(buf, sizeof(buf), "%.9g", v);
    MW_ASSERT(n > 0 && n < static_cast<int>(sizeof(buf)),
              "JSON number overflows the format buffer");
    return std::string(buf, static_cast<std::size_t>(n));
}

/** Escape @p s for inclusion inside a JSON string literal. */
inline std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (u < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

} // namespace jsontext
} // namespace memwall

#endif // MEMWALL_COMMON_JSON_TEXT_HH
