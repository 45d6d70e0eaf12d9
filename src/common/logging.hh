/**
 * @file
 * Status and error reporting helpers in the gem5 idiom.
 *
 * Two classes of error are distinguished:
 *  - panic(): an internal invariant was violated (a simulator bug);
 *    aborts so a debugger or core dump can capture the state.
 *  - fatal(): the simulation cannot continue because of a user error
 *    (bad configuration, invalid argument); exits with status 1.
 *
 * warn() reports a condition that does not stop the simulation; it
 * always prints to stderr.
 */

#ifndef QMH_COMMON_LOGGING_HH
#define QMH_COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace qmh {

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

/** Concatenate a mixed argument pack into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Report an internal simulator bug and abort. */
#define qmh_panic(...) \
    ::qmh::detail::panicImpl(__FILE__, __LINE__, \
                             ::qmh::detail::concat(__VA_ARGS__))

/** Report an unrecoverable user/configuration error and exit(1). */
#define qmh_fatal(...) \
    ::qmh::detail::fatalImpl(__FILE__, __LINE__, \
                             ::qmh::detail::concat(__VA_ARGS__))

/** Report a suspicious but survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace qmh

#endif // QMH_COMMON_LOGGING_HH
