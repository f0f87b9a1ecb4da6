/**
 * @file
 * The trace-source abstraction the simulation engine consumes.
 *
 * Two implementations ship: GeneratorSource wraps the synthetic
 * per-benchmark generators, PackStreamSource (trace/tracepack.hh)
 * replays one stream of a recorded pomtlb-tracepack-v1 file. Sources
 * must be rewindable so the engine's steady-state pre-population
 * pass can replay the exact stream the timed run will issue.
 *
 * The primitive operation is the batched fill(): the caller owns a
 * TraceRecord block and the source writes up to @c n records into it
 * in one virtual call, which is what lets the engine amortise the
 * dispatch over a whole execution block. A non-virtual next() shim
 * remains for tests and other single-stepping callers; it is exactly
 * fill() of one record.
 */

#ifndef POMTLB_TRACE_SOURCE_HH
#define POMTLB_TRACE_SOURCE_HH

#include <cstddef>
#include <memory>
#include <string>

#include "common/log.hh"
#include "trace/generator.hh"
#include "trace/record.hh"

namespace pomtlb
{

/** A rewindable stream of trace records for one core. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Produce up to @p n records into the caller-owned block @p out.
     *
     * Returns the number of records written. Endless sources (the
     * synthetic generators, wrapping pack replays) always return
     * @p n; a finite source returns fewer — possibly zero — once
     * exhausted (a short read). Records are written in stream order
     * and the stream position advances by exactly the returned count,
     * so interleaving fill() and next() is well defined.
     */
    virtual std::size_t fill(TraceRecord *out, std::size_t n) = 0;

    /**
     * Single-record convenience shim over fill() (fatal if the
     * source is exhausted). Kept non-virtual so fill() stays the one
     * primitive implementations provide.
     */
    TraceRecord
    next()
    {
        TraceRecord record;
        const std::size_t got = fill(&record, 1);
        simAssert(got == 1, "trace source exhausted");
        return record;
    }

    /** Restart the stream from its beginning. */
    virtual void rewind() = 0;

    /** Short description for diagnostics. */
    virtual std::string describe() const = 0;

    /**
     * Every input the stream's records depend on, as text: two
     * sources with equal identities produce equal records. Keys a
     * trace enumeration (trace/interleave.hh) that jobs of one
     * campaign share.
     */
    virtual std::string identity() const = 0;
};

/** Synthetic-generator source (rewind = rebuild the generator). */
class GeneratorSource : public TraceSource
{
  public:
    GeneratorSource(const BenchmarkProfile &profile, CoreId core,
                    std::uint64_t seed)
        : benchProfile(profile), coreId(core), rngSeed(seed),
          generator(profile, core, seed)
    {
    }

    std::size_t
    fill(TraceRecord *out, std::size_t n) override
    {
        return generator.fill(out, n);
    }

    void
    rewind() override
    {
        generator = TraceGenerator(benchProfile, coreId, rngSeed);
    }

    std::string
    describe() const override
    {
        return "generator:" + benchProfile.name + "/core" +
               std::to_string(coreId);
    }

    std::string
    identity() const override
    {
        return TraceGenerator::inputKey(benchProfile, coreId, rngSeed);
    }

  private:
    BenchmarkProfile benchProfile;
    CoreId coreId;
    std::uint64_t rngSeed;
    TraceGenerator generator;
};

} // namespace pomtlb

#endif // POMTLB_TRACE_SOURCE_HH
