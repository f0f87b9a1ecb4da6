/**
 * @file
 * Status/error reporting helpers in the gem5 spirit.
 *
 * - warn():  something works but maybe not as well as it should.
 * - fatal(): the user supplied an impossible configuration; prints
 *            "fatal: <message>" and throws FatalError, which the CLI
 *            turns into exit status 1 and `pomtlb serve` into an
 *            `error` event.
 * - panic(): an internal invariant broke (a simulator bug); throws
 *            std::logic_error, which nothing catches outside tests.
 */

#ifndef POMTLB_COMMON_LOG_HH
#define POMTLB_COMMON_LOG_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace pomtlb
{

/**
 * What fatal() throws: a configuration the simulator cannot run.
 * what() is the message, which fatal() has already printed to stderr.
 */
class FatalError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

namespace detail
{

/** Concatenate a parameter pack into one string via a stringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void fatalImpl(const std::string &message);
[[noreturn]] void panicImpl(const std::string &message);
void warnImpl(const std::string &message);

} // namespace detail

/** Print a warning message to stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Report a user-level configuration error: throws FatalError. */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    detail::fatalImpl(detail::concat(std::forward<Args>(args)...));
}

/**
 * Report an internal simulator bug: prints "panic: <message>" and
 * throws std::logic_error.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    detail::panicImpl(detail::concat(std::forward<Args>(args)...));
}

/**
 * Check an internal invariant; panic with @p args when it fails.
 * Active in all build types (the simulator is cheap enough to always
 * self-check).
 */
template <typename... Args>
void
simAssert(bool condition, Args &&...args)
{
    if (!condition)
        panic(std::forward<Args>(args)...);
}

} // namespace pomtlb

#endif // POMTLB_COMMON_LOG_HH
