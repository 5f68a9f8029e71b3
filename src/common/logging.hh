/**
 * @file
 * Status and error reporting in the gem5 tradition.
 *
 * - panic():  an internal invariant was violated (a bug in this library);
 *             aborts so a debugger/core dump catches it.
 * - fatal():  the user asked for something unsatisfiable (bad config);
 *             exits with status 1.
 * - warn():   something works but is suspicious or approximate.
 * - inform(): progress/status notes.
 */

#ifndef MEMWALL_COMMON_LOGGING_HH
#define MEMWALL_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace memwall {

/** Verbosity filter for inform(); warnings and errors always print. */
enum class LogLevel { Quiet, Normal, Verbose };

/** Set the global verbosity for inform()/verbose(). */
void setLogLevel(LogLevel level);

/** @return the current global verbosity. */
LogLevel logLevel();

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void verboseImpl(const std::string &msg);

/** Fold a variadic pack into one string via operator<<. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    // A comma fold, so an empty pack is a no-op instead of a bare
    // `os;` statement.
    ((os << std::forward<Args>(args)), ...);
    return os.str();
}

} // namespace detail
} // namespace memwall

/** Abort on an internal invariant violation (library bug). */
#define MW_PANIC(...)                                                      \
    ::memwall::detail::panicImpl(__FILE__, __LINE__,                       \
                                 ::memwall::detail::format(__VA_ARGS__))

/** Exit on an unsatisfiable user request (configuration error). */
#define MW_FATAL(...)                                                      \
    ::memwall::detail::fatalImpl(__FILE__, __LINE__,                       \
                                 ::memwall::detail::format(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define MW_WARN(...)                                                       \
    ::memwall::detail::warnImpl(::memwall::detail::format(__VA_ARGS__))

/** Report normal progress (suppressed at LogLevel::Quiet). */
#define MW_INFORM(...)                                                     \
    ::memwall::detail::informImpl(::memwall::detail::format(__VA_ARGS__))

/** Report detail (printed only at LogLevel::Verbose). */
#define MW_VERBOSE(...)                                                    \
    ::memwall::detail::verboseImpl(::memwall::detail::format(__VA_ARGS__))

/** panic() unless @p cond holds. */
#define MW_ASSERT(cond, ...)                                               \
    do {                                                                   \
        if (!(cond)) {                                                     \
            MW_PANIC("assertion failed: " #cond " ",                       \
                     ::memwall::detail::format(__VA_ARGS__));              \
        }                                                                  \
    } while (0)

#endif // MEMWALL_COMMON_LOGGING_HH
