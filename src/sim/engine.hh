/**
 * @file
 * The trace-driven simulation engine.
 *
 * Each core runs its own generator stream; the engine always advances
 * the core with the smallest local clock, so the cores' memory
 * traffic interleaves at the shared L3/DRAM the way a multicore's
 * would (the Ramulator-style cadence of Section 3.2). Non-memory
 * instructions advance a core's clock at one instruction per cycle;
 * memory references charge translation plus data-path latency.
 *
 * The hot path is batched: a ClockHeap picks the earliest core in
 * O(log cores) (with an O(1) fast path while that core stays
 * earliest), trace records arrive in caller-owned blocks via
 * TraceSource::fill() rather than one virtual call each, and the
 * steady state allocates nothing — all scratch buffers are sized
 * once per run. The scheduling order is exactly the old per-step
 * linear scan's (lowest clock, ties to the lowest core index), so
 * results are bit-identical to the pre-batching engine.
 *
 * A warmup phase runs before statistics are reset, so reported rates
 * are steady-state.
 *
 * Each core's trace is one stream of a TenantStreamSet
 * (trace/interleave.hh), homed on that core, and pre-population is
 * prepopulateStreams() below: the same stream cursor and the same
 * install loop the scenario engine uses, which is what keeps a
 * one-tenant scenario byte-identical to a classic run. A run is
 * single-threaded; independent runs parallelise through the sweep
 * worker pool (`--jobs`, docs/internals.md §14).
 */

#ifndef POMTLB_SIM_ENGINE_HH
#define POMTLB_SIM_ENGINE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "sim/machine.hh"
#include "trace/interleave.hh"
#include "trace/profile.hh"
#include "trace/source.hh"

namespace pomtlb
{

/** Engine run parameters. */
struct EngineConfig
{
    /** Measured references per core. */
    std::uint64_t refsPerCore = 150000;
    /** Warmup references per core (stats reset afterwards). */
    std::uint64_t warmupRefsPerCore = 120000;
    /** VM each core's workload runs in (resized to core count). */
    std::vector<VmId> coreVm;
    /** Process id base: core c runs as pid base + c. */
    ProcessId pidBase = 1;
    /** Trace seed (combined with the system seed). */
    std::uint64_t seed = 42;
    /**
     * TLB shootdown injection (Section 2.2): every
     * @c shootdownIntervalRefs references machine-wide, the page of
     * the triggering reference is shot down across all cores and the
     * initiating core is charged @c shootdownCycles (IPI + handler
     * cost). 0 disables injection (the paper notes shootdowns are
     * rare; this knob quantifies "rare").
     */
    std::uint64_t shootdownIntervalRefs = 0;
    Cycles shootdownCycles = 500;
    /**
     * When non-empty, the primary constructor drives every core from
     * this pomtlb-tracepack-v1 file instead of the synthetic
     * generators: core @c c replays pack stream <tt>c %
     * stream_count</tt>, wrapping, straight out of the mapping
     * (trace/tracepack.hh). The pack's content hash joins the
     * sweep-cache job identity (sim/sweep_cache.hh) so memoized
     * campaigns re-execute when the trace changes. Opening throws a
     * path-named TraceError on corrupt input.
     */
    std::string tracePackPath;
    /**
     * Steady-state pre-population: before timed simulation, a dry
     * enumeration of the whole trace installs every touched page in
     * the page tables and in the scheme's persistent translation
     * store (POM-TLB / TSB). This models workloads that have run far
     * longer than the simulated window — the regime the paper
     * measures — so first-touch cold misses do not pollute the
     * steady-state statistics. SRAM TLBs and data caches still warm
     * up normally during the warmup phase.
     */
    bool prepopulate = true;
};

/** Per-core results of a run. */
struct CoreRunStats
{
    std::uint64_t refs = 0;
    InstCount instructions = 0;
    Cycles cycles = 0;
    /** Post-L1-TLB translation cycles (T_post in DESIGN.md). */
    std::uint64_t translationCycles = 0;
    std::uint64_t l1TlbHits = 0;
    std::uint64_t l2TlbHits = 0;
    std::uint64_t lastLevelTlbMisses = 0;
    /** Average scheme cycles per last-level TLB miss (the paper's P). */
    double avgPenaltyPerMiss = 0.0;
    std::uint64_t pageWalks = 0;
    std::uint64_t shootdowns = 0;
};

/**
 * Machine-wide aggregates over a RunResult's per-core stats —
 * everything the old total*() walker family computed, gathered in
 * one pass and cached.
 */
struct RunTotals
{
    std::uint64_t refs = 0;
    InstCount instructions = 0;
    Cycles cycles = 0;
    std::uint64_t translationCycles = 0;
    std::uint64_t l1TlbHits = 0;
    std::uint64_t l2TlbHits = 0;
    std::uint64_t lastLevelMisses = 0;
    std::uint64_t pageWalks = 0;
    std::uint64_t shootdowns = 0;
    /** Machine-wide average penalty per last-level TLB miss. */
    double avgPenaltyPerMiss = 0.0;
    /** Fraction of last-level TLB misses that needed a page walk. */
    double walkFraction = 0.0;
};

/** Whole-run results. */
struct RunResult
{
    std::vector<CoreRunStats> cores;

    /**
     * Machine-wide aggregates, computed on first use and cached.
     * Callers must not mutate @c cores after calling totals(); build
     * the per-core vector first, aggregate once.
     */
    const RunTotals &totals() const;

  private:
    mutable RunTotals cached;
    mutable bool cachedValid = false;
};

/** Drives one benchmark through one machine. */
class SimulationEngine
{
  public:
    /**
     * @param machine  The machine to drive (state persists between
     *                 run() calls; construct fresh machines for
     *                 independent experiments).
     * @param profile  Benchmark to generate traces for.
     * @param config   Run length, warmup, VM placement, seed.
     */
    SimulationEngine(Machine &machine, const BenchmarkProfile &profile,
                     const EngineConfig &config);

    /**
     * Drive the machine from externally supplied trace sources (one
     * per core — e.g. recorded trace files). @p profile supplies the
     * workload metadata (multithreaded/pid policy and the Table 2
     * constants used by the performance model).
     */
    SimulationEngine(Machine &machine, const BenchmarkProfile &profile,
                     const EngineConfig &config,
                     std::vector<std::unique_ptr<TraceSource>> sources);

    /** Run warmup + measured phases; returns measured-phase stats. */
    RunResult run();

  private:
    /**
     * Per-core execution lane: the core's clock and the stats deltas
     * it accumulates locally (flushed into the RunResult at phase
     * boundaries). The core's trace cursor is its stream in
     * @c streams. Nothing here allocates on the per-reference path.
     */
    struct Lane
    {
        Cycles clock = 0;
        /** References issued in the current phase. */
        std::uint64_t phaseDone = 0;
        Mmu *mmu = nullptr;
        InstCount instructions = 0;
        std::uint64_t pageWalks = 0;
        std::uint64_t shootdowns = 0;
    };

    /**
     * Common constructor tail: stream c wraps @p sources[c], homed
     * on core c, in the core's VM and process (@p profile decides
     * whether the cores share one pid).
     */
    void buildStreams(
        const BenchmarkProfile &profile,
        std::vector<std::unique_ptr<TraceSource>> sources);

    /** Issue references until every lane has done @p target refs. */
    void runPhase(std::vector<Lane> &lanes, std::uint64_t target);

    Machine &machine;
    EngineConfig engineConfig;
    /** One stream per core (stream id = core = home core). */
    TenantStreamSet streams;
    std::uint64_t refsSinceShootdown = 0;
};

/**
 * Steady-state pre-population, shared by SimulationEngine and
 * ScenarioEngine. Enumerates every stream of @p streams in stream
 * order — exactly the TenantStream::totalRefs records its timed run
 * will issue — and installs each first-touched (page, pid, VM) in
 * the page tables and the scheme's persistent translation store,
 * deduplicated through one set across all streams. When every
 * stream fits TenantStreamSet::replayCapRecords the records are
 * captured for the timed run's replay. Leaves every source rewound.
 *
 * @return whether the streams were captured (the argument of
 *         TenantStreamSet::beginRun()).
 */
bool prepopulateStreams(Machine &machine, TenantStreamSet &streams);

} // namespace pomtlb

#endif // POMTLB_SIM_ENGINE_HH
