/**
 * @file
 * Synthetic trace generators — the PIN-trace substitute.
 *
 * Each generator produces an endless, deterministic reference stream
 * for one core running one benchmark profile. Page sizes are assigned
 * per 2 MB virtual region with a deterministic hash so a region's
 * size never changes and the configured large-page fraction holds in
 * expectation (the THP model).
 */

#ifndef POMTLB_TRACE_GENERATOR_HH
#define POMTLB_TRACE_GENERATOR_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/profile.hh"
#include "trace/record.hh"

namespace pomtlb
{

/** Deterministic per-core reference-stream generator. */
class TraceGenerator
{
  public:
    /**
     * @param profile Benchmark to model (copied).
     * @param core    Core index (decorrelates per-core streams).
     * @param seed    Experiment seed.
     */
    TraceGenerator(const BenchmarkProfile &profile, CoreId core,
                   std::uint64_t seed);

    /**
     * Every input the generator built from (@p profile, @p core,
     * @p seed) reads, as text: the profile's name and stream-model
     * fields (doubles as hex floats, so equal text means equal
     * bits), the core and the seed. Equal keys generate equal
     * streams.
     */
    static std::string inputKey(const BenchmarkProfile &profile,
                                CoreId core, std::uint64_t seed);

    /** Produce the next reference. */
    TraceRecord next();

    /**
     * Produce @p n references into the caller-owned block @p out.
     *
     * The generator is endless, so exactly @p n records are always
     * written (and @p n is returned); the sequence is identical to
     * @p n successive next() calls. One non-inlined call per block
     * instead of one per record is what keeps the engine's batched
     * hot path cheap.
     */
    std::size_t fill(TraceRecord *out, std::size_t n);

    /** Page size of the 2 MB region containing @p vaddr. */
    PageSize pageSizeOf(Addr vaddr) const;

    /** First byte of the modelled footprint. */
    Addr footprintBase() const { return base; }
    /** Size of the modelled footprint. */
    Addr footprintSize() const { return footprint; }
    const BenchmarkProfile &profile() const { return bench; }

  private:
    Addr uniformAddr();
    Addr streamingAddr();
    Addr zipfAddr();
    Addr chaseAddr();
    Addr mixedAddr();

    /** Clamp an offset into [0, footprint) and add the base. */
    Addr rebase(Addr offset) const { return base + offset % footprint; }

    BenchmarkProfile bench;
    Rng rng;
    /** In-page run lengths (mean BenchmarkProfile::runLength). */
    GeometricGap runGap;
    /** Instruction gaps (mean BenchmarkProfile::instGapMean). */
    GeometricGap instGap;
    std::uint64_t regionSalt;
    Addr base;
    Addr footprint;
    std::uint64_t numSmallPages;
    /** log2 of the page-size cluster granularity (THP arenas). */
    unsigned clusterShift;

    // Streaming state: a few concurrent sequential streams.
    static constexpr unsigned numStreams = 4;
    std::vector<Addr> streamCursor;
    unsigned nextStream = 0;

    // In-page run state (Zipf / pointer-chase).
    Addr runPageBase = 0;
    Addr runPageSpan = 0;
    unsigned runRemaining = 0;

    // Pointer-chase state.
    std::uint64_t chaseState;

    // TLB-conflict stencil state (see BenchmarkProfile).
    std::uint64_t conflictBasePage = 0;
    unsigned conflictIndex = 0;
    std::uint64_t conflictVisits = 0;

    /** Pick the next run's page; shared by zipf and chase. */
    Addr nextRunPage(bool use_zipf);
    /** Next page of the conflict stencil group. */
    std::uint64_t conflictPage();

    // Mixed-phase state.
    std::uint64_t phaseRemaining;
    bool phaseStreaming = true;
    static constexpr std::uint64_t phaseLength = 20000;

    // Zipf distribution over small-page indices (lazy: only built for
    // profiles that need it).
    std::unique_ptr<ZipfGenerator> zipf;
};

} // namespace pomtlb

#endif // POMTLB_TRACE_GENERATOR_HH
