#include "server/json.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace memwall {
namespace server {

namespace {

/** Recursive-descent parser over a bounded input span. */
class Parser
{
  public:
    Parser(std::string_view in, std::size_t max_depth)
        : in_(in), max_depth_(max_depth)
    {
    }

    bool
    parse(JsonValue &out, std::string &err)
    {
        skipWs();
        if (!parseValue(out, 0))
            ok_ = false;
        if (ok_) {
            skipWs();
            if (pos_ != in_.size())
                fail("trailing characters after JSON value");
        }
        if (!ok_)
            err = error_ + " at byte " + std::to_string(err_pos_);
        return ok_;
    }

  private:
    void
    fail(const std::string &why)
    {
        if (ok_) {
            ok_ = false;
            error_ = why;
            err_pos_ = pos_;
        }
    }

    bool
    eof() const
    {
        return pos_ >= in_.size();
    }

    char
    peek() const
    {
        return in_[pos_];
    }

    void
    skipWs()
    {
        while (!eof() && (peek() == ' ' || peek() == '\t' ||
                          peek() == '\n' || peek() == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (in_.compare(pos_, word.size(), word) != 0) {
            fail("invalid literal");
            return false;
        }
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(JsonValue &out, std::size_t depth)
    {
        if (depth > max_depth_) {
            fail("nesting deeper than the limit");
            return false;
        }
        if (eof()) {
            fail("unexpected end of input");
            return false;
        }
        out.begin = pos_;
        bool good = false;
        switch (peek()) {
        case '{':
            good = parseObject(out, depth);
            break;
        case '[':
            good = parseArray(out, depth);
            break;
        case '"':
            out.kind = JsonValue::Kind::String;
            good = parseString(out.text);
            break;
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            good = literal("true");
            break;
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            good = literal("false");
            break;
        case 'n':
            out.kind = JsonValue::Kind::Null;
            good = literal("null");
            break;
        default:
            good = parseNumber(out);
            break;
        }
        out.end = pos_;
        return good;
    }

    bool
    parseObject(JsonValue &out, std::size_t depth)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (!eof() && peek() == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (eof() || peek() != '"') {
                fail("expected object key string");
                return false;
            }
            std::string key;
            if (!parseString(key))
                return false;
            for (const auto &m : out.members)
                if (m.first == key) {
                    fail("duplicate object key '" + key + "'");
                    return false;
                }
            skipWs();
            if (eof() || peek() != ':') {
                fail("expected ':' after object key");
                return false;
            }
            ++pos_;
            skipWs();
            JsonValue v;
            if (!parseValue(v, depth + 1))
                return false;
            out.members.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (eof()) {
                fail("unterminated object");
                return false;
            }
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            fail("expected ',' or '}' in object");
            return false;
        }
    }

    bool
    parseArray(JsonValue &out, std::size_t depth)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (!eof() && peek() == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            JsonValue v;
            if (!parseValue(v, depth + 1))
                return false;
            out.items.push_back(std::move(v));
            skipWs();
            if (eof()) {
                fail("unterminated array");
                return false;
            }
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            fail("expected ',' or ']' in array");
            return false;
        }
    }

    /** Append @p cp as UTF-8. Callers guarantee cp <= 0x10FFFF. */
    static void
    appendUtf8(std::string &s, std::uint32_t cp)
    {
        if (cp < 0x80) {
            s.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            s.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            s.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            s.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            s.push_back(
                static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            s.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    bool
    hex4(std::uint32_t &out)
    {
        if (in_.size() - pos_ < 4) {
            fail("truncated \\u escape");
            return false;
        }
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = in_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<std::uint32_t>(c - 'A' + 10);
            else {
                fail("invalid hex digit in \\u escape");
                return false;
            }
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        for (;;) {
            if (eof()) {
                fail("unterminated string");
                return false;
            }
            const unsigned char c =
                static_cast<unsigned char>(in_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20) {
                fail("bare control character in string");
                return false;
            }
            if (c != '\\') {
                out.push_back(static_cast<char>(c));
                ++pos_;
                continue;
            }
            ++pos_; // backslash
            if (eof()) {
                fail("unterminated escape");
                return false;
            }
            const char esc = in_[pos_++];
            switch (esc) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                std::uint32_t cp = 0;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: require the low half.
                    if (in_.size() - pos_ < 2 || in_[pos_] != '\\' ||
                        in_[pos_ + 1] != 'u') {
                        fail("unpaired high surrogate");
                        return false;
                    }
                    pos_ += 2;
                    std::uint32_t lo = 0;
                    if (!hex4(lo))
                        return false;
                    if (lo < 0xDC00 || lo > 0xDFFF) {
                        fail("invalid low surrogate");
                        return false;
                    }
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    fail("unpaired low surrogate");
                    return false;
                }
                appendUtf8(out, cp);
                break;
            }
            default:
                fail("invalid escape character");
                return false;
            }
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        out.kind = JsonValue::Kind::Number;
        const std::size_t start = pos_;
        if (!eof() && peek() == '-')
            ++pos_;
        if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
            fail("invalid number");
            return false;
        }
        if (peek() == '0') {
            ++pos_; // no leading zeros
        } else {
            while (!eof() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (!eof() && peek() == '.') {
            ++pos_;
            if (eof() ||
                !std::isdigit(static_cast<unsigned char>(peek()))) {
                fail("digit required after decimal point");
                return false;
            }
            while (!eof() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-'))
                ++pos_;
            if (eof() ||
                !std::isdigit(static_cast<unsigned char>(peek()))) {
                fail("digit required in exponent");
                return false;
            }
            while (!eof() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        out.text = std::string(in_.substr(start, pos_ - start));
        errno = 0;
        out.number = std::strtod(out.text.c_str(), nullptr);
        if (errno == ERANGE) {
            fail("number out of range");
            return false;
        }
        return true;
    }

    std::string_view in_;
    std::size_t max_depth_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
    std::size_t err_pos_ = 0;
};

} // namespace

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &m : members)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

bool
JsonValue::asU64(std::uint64_t &out) const
{
    if (kind != Kind::Number || text.empty())
        return false;
    for (const char c : text)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false; // sign, fraction or exponent: not exact
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return false;
    out = v;
    return true;
}

bool
parseJson(std::string_view in, JsonValue &out, std::string &err,
          std::size_t max_depth)
{
    Parser p(in, max_depth);
    return p.parse(out, err);
}

} // namespace server
} // namespace memwall
