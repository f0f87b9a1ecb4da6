#include "common/log.hh"

#include <cstdio>
#include <stdexcept>

namespace pomtlb
{
namespace detail
{

namespace
{
bool informOn = true;
} // namespace

void
setInformEnabled(bool enabled)
{
    informOn = enabled;
}

bool
informEnabled()
{
    return informOn;
}

void
informImpl(const std::string &message)
{
    if (informOn)
        std::fprintf(stderr, "info: %s\n", message.c_str());
}

void
warnImpl(const std::string &message)
{
    std::fprintf(stderr, "warn: %s\n", message.c_str());
}

void
fatalImpl(const std::string &message)
{
    std::fprintf(stderr, "fatal: %s\n", message.c_str());
    throw FatalError(message);
}

void
panicImpl(const std::string &message)
{
    std::fprintf(stderr, "panic: %s\n", message.c_str());
    // Throwing (rather than abort()) lets unit tests assert that
    // invariant violations are detected; uncaught it still terminates.
    throw std::logic_error("panic: " + message);
}

} // namespace detail
} // namespace pomtlb
