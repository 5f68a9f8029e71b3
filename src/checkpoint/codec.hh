/**
 * @file
 * Binary codec for checkpoint serialization.
 *
 * Every value is written little-endian with explicit widths so a
 * checkpoint produced on one host loads bit-identically on another.
 * The Decoder is the load-bearing piece: checkpoints come from disk
 * and may be truncated, bit-flipped or maliciously short, so every
 * read is bounds-checked and failure is recoverable — the decoder
 * latches the first error and all subsequent reads return zeros.
 * Callers check ok() once at the end instead of after every field,
 * and the library never throws or crashes on corrupt input.
 */

#ifndef MEMWALL_CHECKPOINT_CODEC_HH
#define MEMWALL_CHECKPOINT_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace memwall {
namespace ckpt {

/** CRC-32 (IEEE 802.3, reflected) over @p len bytes. */
std::uint32_t crc32(const void *data, std::size_t len,
                    std::uint32_t crc = 0);

/** FNV-1a 64-bit offset basis. */
constexpr std::uint64_t fnv_basis = 0xcbf29ce484222325ULL;

/** FNV-1a 64-bit hash, chainable via @p h. */
std::uint64_t fnv1a64(const void *data, std::size_t len,
                      std::uint64_t h = fnv_basis);

inline std::uint64_t
fnv1a64(std::string_view s, std::uint64_t h = fnv_basis)
{
    return fnv1a64(s.data(), s.size(), h);
}

/** Chain one 64-bit value into an FNV-1a hash. */
inline std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v)
{
    return fnv1a64(&v, sizeof(v), h);
}

/** Append-only little-endian encoder over a growable byte buffer. */
class Encoder
{
  public:
    void u8(std::uint8_t v) { buf_.push_back(v); }

    void u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    /** Unsigned LEB128; compact for the small values that dominate. */
    void varint(std::uint64_t v)
    {
        while (v >= 0x80) {
            u8(static_cast<std::uint8_t>(v) | 0x80);
            v >>= 7;
        }
        u8(static_cast<std::uint8_t>(v));
    }

    /** IEEE-754 bit pattern; exact round-trip, no locale involved. */
    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + len);
    }

    /** Length-prefixed string. */
    void str(std::string_view s)
    {
        varint(s.size());
        bytes(s.data(), s.size());
    }

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked decoder over a read-only byte span.
 *
 * The first failed read (or explicit fail()) latches an error; every
 * later read returns zero without touching memory. This makes long
 * decode sequences safe to write straight-line — check ok() once.
 */
class Decoder
{
  public:
    Decoder(const std::uint8_t *data, std::size_t len)
        : data_(data), len_(len)
    {
    }

    explicit Decoder(const std::vector<std::uint8_t> &buf)
        : Decoder(buf.data(), buf.size())
    {
    }

    /** The decoder only points into its input, so a temporary buffer
     *  would be freed before the first read. */
    Decoder(std::vector<std::uint8_t> &&) = delete;

    std::uint8_t u8()
    {
        if (!need(1, "u8"))
            return 0;
        return data_[pos_++];
    }

    std::uint16_t u16()
    {
        if (!need(2, "u16"))
            return 0;
        const std::uint16_t v =
            static_cast<std::uint16_t>(data_[pos_]) |
            static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
        pos_ += 2;
        return v;
    }

    std::uint32_t u32()
    {
        if (!need(4, "u32"))
            return 0;
        std::uint32_t v = 0;
        for (int i = 3; i >= 0; --i)
            v = v << 8 | data_[pos_ + static_cast<std::size_t>(i)];
        pos_ += 4;
        return v;
    }

    std::uint64_t u64()
    {
        if (!need(8, "u64"))
            return 0;
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i)
            v = v << 8 | data_[pos_ + static_cast<std::size_t>(i)];
        pos_ += 8;
        return v;
    }

    std::uint64_t varint()
    {
        std::uint64_t v = 0;
        for (unsigned shift = 0; shift < 64; shift += 7) {
            if (!need(1, "varint"))
                return 0;
            const std::uint8_t byte = data_[pos_++];
            v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return v;
        }
        fail("varint longer than 64 bits");
        return 0;
    }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return failed_ ? 0.0 : v;
    }

    void bytes(void *out, std::size_t len)
    {
        if (!need(len, "bytes")) {
            std::memset(out, 0, len);
            return;
        }
        std::memcpy(out, data_ + pos_, len);
        pos_ += len;
    }

    std::string str(std::size_t max_len = 1u << 20)
    {
        const std::uint64_t n = varint();
        if (failed_)
            return {};
        if (n > max_len) {
            fail("string length implausible");
            return {};
        }
        if (!need(static_cast<std::size_t>(n), "str"))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    /** Latch a semantic error (bad magic, impossible count, ...). */
    void fail(const std::string &why)
    {
        if (!failed_) {
            failed_ = true;
            error_ = why;
        }
    }

    bool ok() const { return !failed_; }
    bool failed() const { return failed_; }
    const std::string &error() const { return error_; }
    std::size_t remaining() const { return len_ - pos_; }
    bool atEnd() const { return pos_ == len_; }

  private:
    bool need(std::size_t n, const char *what)
    {
        if (failed_)
            return false;
        if (len_ - pos_ < n) {
            fail(std::string("truncated input reading ") + what);
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string error_;
};

} // namespace ckpt
} // namespace memwall

#endif // MEMWALL_CHECKPOINT_CODEC_HH
