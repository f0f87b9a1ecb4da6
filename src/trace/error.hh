/**
 * @file
 * Recoverable trace-input error.
 *
 * Trace files arrive from outside the simulator (recorded on other
 * hosts, converted from foreign tools, truncated by crashed writers),
 * so a malformed one is an input problem, not a programming error.
 * Readers throw TraceError (rather than fatal()'s FatalError, which
 * is for impossible configurations, or panic(), which is for
 * internal invariant violations) so callers (the CLI, tests, batch
 * converters) can report the offending path and move on. Every
 * message names the file it is about, following the same discipline
 * as SweepJournal's path-named corruption reports.
 */

#ifndef POMTLB_TRACE_ERROR_HH
#define POMTLB_TRACE_ERROR_HH

#include <stdexcept>
#include <string>

namespace pomtlb
{

/**
 * Thrown when a trace file or trace pack cannot be opened, parsed, or
 * verified. The what() string always names the offending path and,
 * where useful, the observed size or offset.
 */
class TraceError : public std::runtime_error
{
  public:
    explicit TraceError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

} // namespace pomtlb

#endif // POMTLB_TRACE_ERROR_HH
