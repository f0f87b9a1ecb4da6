/**
 * @file
 * Buffered trace-stream cursors, the simulator's one stream cursor.
 *
 * Every stream keeps its own buffered cursor into its TraceSource —
 * current block, position, consumed count — so the engine can park a
 * stream mid-block and resume it later without disturbing the
 * stream's content. The scenario engine (sim/scenario.hh) time-shares
 * each simulated core between the tenant vCPU streams homed on it; a
 * classic run (sim/engine.hh) compiles to one stream per core.
 *
 * A stream's records are captured during the scenario engine's
 * steady-state pre-population (when every stream fits the
 * per-stream cap) and replayed by the timed run, or re-generated
 * through a per-stream scratch block when any stream is too long.
 */

#ifndef POMTLB_TRACE_INTERLEAVE_HH
#define POMTLB_TRACE_INTERLEAVE_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "trace/record.hh"
#include "trace/source.hh"

namespace pomtlb
{

/**
 * One trace stream (a tenant vCPU) plus its buffered cursor. A stream is pinned to one home core and
 * one (VM, process) address space; the engine decides when the home
 * core runs it.
 */
struct TenantStream
{
    /** The underlying rewindable record stream. */
    std::unique_ptr<TraceSource> source;
    /** Index of the owning tenant. */
    unsigned tenant = 0;
    /** Core this stream executes on. */
    CoreId homeCore = 0;
    /** VM the stream's references translate under. */
    VmId vm = 1;
    /** Process (ASID) the stream's references translate under. */
    ProcessId pid = 1;
    /** Records this stream issues over the whole run (all slices). */
    std::uint64_t totalRefs = 0;

    // --- cursor state (managed by TenantStreamSet) ---
    /** Current record block (replay slice or scratch buffer). */
    const TraceRecord *block = nullptr;
    /** Next record index within the block. */
    std::uint64_t blockPos = 0;
    /** Records valid in the block. */
    std::uint64_t blockLen = 0;
    /** Records consumed from the stream this run. */
    std::uint64_t consumed = 0;
    /** Scratch block when streaming straight from the source. */
    std::vector<TraceRecord> scratch;
    /** Captured records when pre-population captured the stream. */
    std::vector<TraceRecord> replay;
};

/**
 * The streams of one run: storage, the capture-or-stream decision,
 * and the block refill discipline.
 */
class TenantStreamSet
{
  public:
    /**
     * Records fetched per TraceSource::fill() when streaming (16 KB
     * of records per stream — small enough to stay cache-resident,
     * large enough to amortise the virtual call).
     */
    static constexpr std::uint64_t streamBlockRecords = 1024;

    /**
     * Pre-population captures the streams for replay unless one
     * exceeds this many records (4 Mi records = 64 MB per stream);
     * longer runs fall back to re-generating the streams, trading
     * generator time for bounded memory.
     */
    static constexpr std::uint64_t replayCapRecords =
        std::uint64_t{1} << 22;

    /** Append a stream; returns its stream id (insertion index). */
    std::size_t add(TenantStream stream);

    /** Number of streams. */
    std::size_t size() const { return streams.size(); }

    /** Stream @p index (insertion order = global stream id). */
    TenantStream &at(std::size_t index) { return streams[index]; }
    /** Stream @p index (read-only). */
    const TenantStream &at(std::size_t index) const
    {
        return streams[index];
    }

    /**
     * Whether pre-population may capture: every stream's whole-run
     * record count fits the per-stream cap.
     */
    bool captureEligible() const;

    /** Whether the last beginRun() armed captured-replay mode. */
    bool replaying() const { return replayMode; }

    /**
     * Arm every cursor for a timed run: reset positions, and either
     * point at the captured records (@p captured) or size the
     * per-stream scratch blocks for streaming.
     */
    void beginRun(bool captured);

    /**
     * Refill @p stream's exhausted block: a zero-copy slice of the
     * capture (everything not yet consumed — one refill per run), or
     * one fill() of the scratch block. Fatal if the stream is
     * exhausted.
     */
    void refill(TenantStream &stream);

    /** Drop every capture (frees tens of MB between runs). */
    void releaseCaptures();

  private:
    std::vector<TenantStream> streams;
    bool replayMode = false;
};

} // namespace pomtlb

#endif // POMTLB_TRACE_INTERLEAVE_HH
