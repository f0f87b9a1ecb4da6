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
 * Steady-state pre-population starts with a trace-only enumeration
 * of the streams (StreamEnumeration): each stream's records, captured
 * when every stream fits the per-stream cap, and its first touches.
 * The timed run replays the captured records, or re-generates them
 * through a per-stream scratch block when any stream is too long.
 * An enumeration is a pure function of the streams, so the jobs of a
 * campaign that compile the same streams share one read-only copy
 * through an EnumerationShare, which SweepService (sim/sweep_cache.hh)
 * hands them.
 */

#ifndef POMTLB_TRACE_INTERLEAVE_HH
#define POMTLB_TRACE_INTERLEAVE_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
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
    /**
     * The stream's captured records, a read-only view into the
     * run's StreamEnumeration, when pre-population captured it.
     */
    std::span<const TraceRecord> replay;
};

/**
 * A stream's first reference to one (page, pid, VM): the reference
 * whose page steady-state pre-population installs.
 */
struct FirstTouch
{
    Addr vaddr = 0;
    PageSize pageSize = PageSize::Small4K;
};

/**
 * The trace-only half of steady-state pre-population, a pure function
 * of the streams it enumerates: every stream's whole-run records
 * (when the set is capture-eligible) and, in stream order, the
 * references that first touch a (page, pid, VM). It reads no machine
 * state, so one enumeration serves every machine that runs the same
 * streams; the per-machine install is the engine's
 * (sim/scenario.cc).
 */
struct StreamEnumeration
{
    /**
     * TenantStreamSet::enumerationKey() of the streams enumerated;
     * empty for an enumeration built for one engine alone.
     */
    std::string key;
    /**
     * records[s]: stream s's whole-run records; empty when a stream
     * is too long to capture (TenantStreamSet::captureEligible()).
     */
    std::vector<std::vector<TraceRecord>> records;
    /** firstTouches[s]: stream s's first touches, in record order. */
    std::vector<std::vector<FirstTouch>> firstTouches;
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

    /**
     * Enumerate every stream in stream order: exactly the
     * TenantStream::totalRefs records its timed run will issue, with
     * the first touch of each (page, pid, VM) kept in one dedup set
     * across all streams, and the records captured when
     * captureEligible(). Leaves every source rewound. @p key becomes
     * the enumeration's key.
     */
    std::shared_ptr<const StreamEnumeration>
    enumerate(std::string key = {});

    /**
     * The key an enumeration of these streams carries: a content hash
     * over each stream's TraceSource::identity(), VM, pid, home core
     * and length. Equal keys mean equal enumerations.
     */
    std::string enumerationKey() const;

    /**
     * Arm every cursor for a timed run: reset positions, and either
     * point at @p enumeration's captured records (held until
     * releaseCaptures()) or, when it captured nothing or is null,
     * size the per-stream scratch blocks for streaming.
     */
    void beginRun(std::shared_ptr<const StreamEnumeration> enumeration);

    /**
     * Refill @p stream's exhausted block: a zero-copy slice of the
     * capture (everything not yet consumed — one refill per run), or
     * one fill() of the scratch block. Fatal if the stream is
     * exhausted.
     */
    void refill(TenantStream &stream);

    /**
     * Let go of the run's enumeration (frees tens of MB between runs
     * unless a campaign still shares it).
     */
    void releaseCaptures();

  private:
    std::vector<TenantStream> streams;
    /**
     * The enumeration the replay views point into; null when the
     * run streams from the sources.
     */
    std::shared_ptr<const StreamEnumeration> replaySource;
};

/**
 * One campaign group's enumeration: SweepService hands one share to
 * every pending job of a group of two or more jobs that compile the
 * same streams, and releases it when the group's last job completes.
 * Thread-safe; what it holds is read-only.
 */
class EnumerationShare
{
  public:
    /** Builds the enumeration for a key (TenantStreamSet::enumerate). */
    using Build = std::function<std::shared_ptr<const StreamEnumeration>(
        std::string key)>;

    /**
     * The enumeration for streams whose key is @p key. The first
     * caller builds it with @p build under the share's lock and
     * publishes it; later callers reuse it when its key is @p key,
     * and otherwise build their own (a grouping mistake costs time,
     * never results).
     */
    std::shared_ptr<const StreamEnumeration>
    obtain(const std::string &key, const Build &build);

    /** Drop the published enumeration (its users have completed). */
    void release();

    /** The published enumeration (null before the first obtain()). */
    std::shared_ptr<const StreamEnumeration> published() const;

    /** Enumerations obtain() built. */
    std::size_t builds() const;
    /** obtain() calls that reused the published enumeration. */
    std::size_t reuses() const;

  private:
    mutable std::mutex lock;
    std::shared_ptr<const StreamEnumeration> enumeration;
    std::size_t built = 0;
    std::size_t reused = 0;
};

} // namespace pomtlb

#endif // POMTLB_TRACE_INTERLEAVE_HH
