/**
 * @file
 * The one strict unsigned-number parser of the benches and tools.
 */

#ifndef MEMWALL_COMMON_PARSE_UNSIGNED_HH
#define MEMWALL_COMMON_PARSE_UNSIGNED_HH

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>

namespace memwall {

/**
 * Parse the whole of @p text as an unsigned number (decimal, 0x hex
 * or 0 octal) that fits @p T, else nullopt. Unlike bare strtoull it
 * rejects a sign ("-1" would wrap to 2^64-1), leading blanks,
 * trailing junk and a value @p T cannot hold.
 */
template <typename T = std::uint64_t>
std::optional<T>
parseUnsigned(const char *text)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return std::nullopt;
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 0);
    if (errno == ERANGE || *end != '\0' ||
        value > std::numeric_limits<T>::max())
        return std::nullopt;
    return static_cast<T>(value);
}

} // namespace memwall

#endif // MEMWALL_COMMON_PARSE_UNSIGNED_HH
