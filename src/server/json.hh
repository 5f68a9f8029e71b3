/**
 * @file
 * Strict JSON parser for the experiment service wire protocol.
 *
 * Requests arrive from arbitrary clients over a socket, so the
 * parser is written like ckpt::Decoder: bounds-checked
 * everywhere, depth-capped, no recursion on attacker-controlled
 * nesting beyond the cap, and *strict* — trailing junk, duplicate
 * object keys, unpaired surrogates and bare control characters are
 * errors, never silently accepted. Rejecting sloppy input loudly is
 * what keeps request canonicalization sound: two requests that parse
 * are either identical JSON values or different cache keys.
 *
 * Every parsed value remembers its [begin,end) byte span in the
 * input, which is how mw-client extracts a server response's
 * embedded "result" document byte-for-byte (the span, not a
 * re-serialization, so the bytes are exactly what the server sent).
 */

#ifndef MEMWALL_SERVER_JSON_HH
#define MEMWALL_SERVER_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace memwall {
namespace server {

struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** String: the decoded text. Number: the raw spelling (kept so
     *  integers round-trip exactly; see asU64). */
    std::string text;
    std::vector<JsonValue> items; ///< Array elements
    /** Object members in source order (duplicates were rejected). */
    std::vector<std::pair<std::string, JsonValue>> members;
    /** Byte span of this value in the parsed input. */
    std::size_t begin = 0, end = 0;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(std::string_view key) const;

    /**
     * Exact unsigned 64-bit integer: the number must be spelled as
     * plain digits (no sign, fraction, or exponent) and fit in
     * uint64. This is how seeds and reference counts cross the wire
     * without double-rounding.
     */
    bool asU64(std::uint64_t &out) const;
};

/**
 * Parse the whole of @p in as one JSON value. Returns false with a
 * position-annotated message in @p err on any violation. @p max_depth
 * caps array/object nesting.
 */
bool parseJson(std::string_view in, JsonValue &out, std::string &err,
               std::size_t max_depth = 32);

} // namespace server
} // namespace memwall

#endif // MEMWALL_SERVER_JSON_HH
