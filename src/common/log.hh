/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn.
 *
 * panic() is for simulator bugs (aborts); fatal() is for user configuration
 * errors (exits cleanly with an error code); warn() never stops the
 * simulation.
 */

#ifndef FUSE_COMMON_LOG_HH
#define FUSE_COMMON_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace fuse
{

namespace detail
{
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);

/** printf-style formatting into std::string. */
std::string format(const char *fmt, ...) __attribute__((format(printf, 1, 2)));
} // namespace detail

} // namespace fuse

/** Something that should never happen happened: a simulator bug. Aborts. */
#define fuse_panic(...) \
    ::fuse::detail::panicImpl(__FILE__, __LINE__, \
                              ::fuse::detail::format(__VA_ARGS__))

/** The simulation cannot continue due to a user error. Exits with code 1. */
#define fuse_fatal(...) \
    ::fuse::detail::fatalImpl(__FILE__, __LINE__, \
                              ::fuse::detail::format(__VA_ARGS__))

/** Suspicious but survivable condition. */
#define fuse_warn(...) \
    ::fuse::detail::warnImpl(::fuse::detail::format(__VA_ARGS__))

#endif // FUSE_COMMON_LOG_HH
