/**
 * @file
 * The classic run API: one benchmark profile on every core of one
 * machine.
 *
 * A classic run is the degenerate consolidation scenario — one
 * single-vCPU tenant per core, none arriving or departing — so
 * SimulationEngine compiles its arguments into exactly that
 * ScenarioSpec (sim/scenario.hh) and runs it on the scenario
 * engine, whose per-reference loop is the simulator's only one.
 * Tenant c runs the profile on core c, in VM coreVm[c] as process
 * pidBase (multithreaded profiles: every core shares one address
 * space) or pidBase + c (rate mode). A trace pack replaces the
 * generators through the scenario-wide pack rule: core c replays
 * pack stream c mod stream_count.
 *
 * The engine always advances the core with the smallest local
 * clock, so the cores' memory traffic interleaves at the shared
 * L3/DRAM the way a multicore's would (the Ramulator-style cadence
 * of Section 3.2). Non-memory instructions advance a core's clock at
 * one instruction per cycle; memory references charge translation
 * plus data-path latency. A warmup phase runs before statistics are
 * reset, so reported rates are steady-state. A run is
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
    /**
     * VM each core's workload runs in (filled out to the core count
     * with its last entry; empty means every core in VM 1). VM ids
     * must be non-zero.
     */
    std::vector<VmId> coreVm;
    /**
     * Process id base: core c runs as pid base + c (multithreaded
     * profiles: every core as pid base). Must be non-zero.
     */
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
     * When non-empty, every core replays this pomtlb-tracepack-v1
     * file instead of the synthetic generators: core @c c replays
     * pack stream <tt>c % stream_count</tt>, wrapping, straight out
     * of the mapping (trace/tracepack.hh). The pack's content hash
     * joins the sweep-cache job identity (sim/sweep_cache.hh) so
     * memoized campaigns re-execute when the trace changes. Opening
     * throws a path-named TraceError on corrupt input or on a
     * stream with no records.
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

class ScenarioEngine;

/**
 * Drives one benchmark through one machine: the classic-run facade
 * over ScenarioEngine (see the file comment).
 */
class SimulationEngine
{
  public:
    /**
     * Compile the run into its one-tenant-per-core scenario.
     *
     * @param machine  The machine to drive (state persists between
     *                 run() calls; construct fresh machines for
     *                 independent experiments).
     * @param profile  Benchmark to generate traces for: a registered
     *                 profile (ProfileRegistry), which the scenario
     *                 resolves by name.
     * @param config   Run length, warmup, VM placement, seed.
     *
     * Throws std::invalid_argument when @p profile is not the
     * registered profile of its name, or on a zero pidBase or
     * coreVm entry (0 would mean "auto-assign" to the scenario);
     * throws a path-named TraceError on an unusable trace pack.
     */
    SimulationEngine(Machine &machine, const BenchmarkProfile &profile,
                     const EngineConfig &config);
    ~SimulationEngine();

    /** Run warmup + measured phases; returns measured-phase stats. */
    RunResult run();

  private:
    std::unique_ptr<ScenarioEngine> scenario;
};

} // namespace pomtlb

#endif // POMTLB_SIM_ENGINE_HH
