/**
 * @file
 * The declarative tenant-scenario API and the cloud-consolidation
 * engine built on it.
 *
 * A consolidation study needs the datacenter shape: many tenants
 * with their own workloads, footprints, and VM/ASID bindings,
 * arriving and departing over the run, overcommitting memory,
 * migrating pages, and broadcasting TLB shootdowns. ScenarioSpec describes that world declaratively —
 * either as an explicit TenantSpec list or through a churn generator
 * — and ScenarioEngine compiles it down to the existing machine via
 * the VM-ID/ASID tagging the SRAM TLBs already carry.
 *
 * Compilation model:
 *
 *  - every tenant vCPU becomes one TenantStream
 *    (trace/interleave.hh) pinned to home core `stream_id % cores`;
 *  - each core's timeline (warmup + measured references) is split at
 *    tenant arrival/departure boundaries into segments, and each
 *    segment is round-robin time-sliced (`timeSliceRefs` references
 *    per quantum) among the streams resident in it;
 *  - ScenarioEngine's per-reference loop is the simulator's only
 *    one: the classic run API (SimulationEngine, sim/engine.hh)
 *    compiles "one profile on every core" into one single-vCPU
 *    tenant per core, none arriving or departing, and runs it here.
 *    A single always-resident tenant whose vCPUs cover every core
 *    compiles to the same streams, so it reproduces a classic run
 *    byte-identically, captured or streamed (checked in
 *    tests/test_scenario.cc);
 *  - tenant lifecycle events are modeled OS work: an arrival migrates
 *    pages (unmap + shootdown + remap), a mid-run departure broadcasts
 *    a VM-wide shootdown, and an optional storm schedule shoots down
 *    bursts of pages at a fixed reference interval (extending the
 *    periodic shootdowns of EngineConfig::shootdownIntervalRefs). Overcommit shrinks every tenant's
 *    resident footprint by the overcommit factor — the hot working
 *    set that stays mapped when guests' combined footprints exceed
 *    physical memory.
 *
 * The steady-state per-reference path allocates nothing (the PR 3
 * invariant): slice switches are index bumps into a precompiled
 * schedule, and per-tenant statistics are fixed counters plus a
 * Log2Histogram sample. Scenarios sustain 100–1000 tenants per run.
 *
 * Results export as the versioned `pomtlb-scenario-v1` document
 * (per-tenant hit ratios and translation-cycle p50/p95/p99 QoS
 * percentiles; docs/metrics.md), and scenario jobs are
 * content-hashed (scenarioHash) and run as SweepService campaigns,
 * memoized and journaled exactly like sweeps (scenarioJobs).
 */

#ifndef POMTLB_SIM_SCENARIO_HH
#define POMTLB_SIM_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/json.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/engine.hh"
#include "sim/sweep_cache.hh"
#include "trace/interleave.hh"

namespace pomtlb
{

class Machine;

/** Schema identifier of the scenario export document. */
inline constexpr const char *kScenarioSchemaV1 = "pomtlb-scenario-v1";

/** One tenant: a guest VM running one workload. */
struct TenantSpec
{
    /** Display name; empty resolves to "t<index>". */
    std::string name;
    /** Workload profile (ProfileRegistry name). */
    std::string benchmark = "mcf";
    /** Virtual CPUs (streams) the tenant runs. */
    unsigned vcpus = 1;
    /** VM-ID binding; 0 auto-assigns 1 + tenant index. */
    VmId vm = 0;
    /** Process-id (ASID) base; 0 auto-assigns sequentially. */
    ProcessId pid = 0;
    /** Per-core reference position the tenant arrives at. */
    std::uint64_t arrivalRefs = 0;
    /** Per-core reference position the tenant departs at (0 = end). */
    std::uint64_t departureRefs = 0;
    /** Nominal footprint override; 0 uses the profile's. */
    Addr footprintBytes = 0;

    /** @name Fluent builders. */
    ///@{
    TenantSpec &withName(std::string n) { name = std::move(n); return *this; }
    TenantSpec &withBenchmark(std::string b) { benchmark = std::move(b); return *this; }
    TenantSpec &withVcpus(unsigned v) { vcpus = v; return *this; }
    TenantSpec &withVm(VmId v) { vm = v; return *this; }
    TenantSpec &withPid(ProcessId p) { pid = p; return *this; }
    TenantSpec &withArrival(std::uint64_t refs) { arrivalRefs = refs; return *this; }
    TenantSpec &withFootprint(Addr bytes) { footprintBytes = bytes; return *this; }
    ///@}
};

/**
 * TLB-shootdown storm schedule: every @c intervalRefs references
 * machine-wide, @c pagesPerBurst consecutive pages starting at the
 * triggering reference's page are shot down across all cores, each
 * charging EngineConfig::shootdownCycles to the initiating core.
 * 0 disables storms.
 */
struct StormSpec
{
    std::uint64_t intervalRefs = 0;
    unsigned pagesPerBurst = 8;
};

/**
 * A tenant after resolution: every defaulted field made concrete.
 * This is the canonical form — the identity JSON (and therefore the
 * scenario hash) is built from it, so an explicit tenant list and a
 * generator producing the same tenants hash identically.
 */
struct ResolvedTenant
{
    std::string name;
    std::string benchmark;
    unsigned vcpus = 1;
    VmId vm = 1;
    ProcessId pidBase = 1;
    std::uint64_t arrivalRefs = 0;
    /** Clamped to the per-core run length (0 resolved to it). */
    std::uint64_t departureRefs = 0;
    /** Effective resident footprint (after overcommit), in bytes. */
    Addr footprintBytes = 0;
    /** From the profile: vCPUs share one address space. */
    bool multithreaded = false;
    /**
     * vCPUs of the tenants before this one: with a
     * ScenarioSpec::tracePack, vCPU @c v replays pack stream
     * <tt>(base + v) % stream_count</tt>.
     */
    std::uint32_t traceStreamBase = 0;
};

/** A whole consolidation scenario, declaratively. */
struct ScenarioSpec
{
    /** Scenario name (recorded in the identity and export). */
    std::string name = "scenario";
    /** Translation scheme (registry name or alias). */
    std::string scheme = "POM-TLB";
    /** Machine geometry (numCores decides the core pool). */
    SystemConfig system = SystemConfig::table1();
    /**
     * Run length, warmup, seed, shootdown costs, prepopulate — all
     * honoured as in a classic run. @c coreVm and @c pidBase
     * placement is superseded by the tenants' VM/ASID bindings
     * (pidBase seeds the sequential auto-assignment).
     */
    EngineConfig engine;

    /** Explicit tenant list; used when @c tenantCount is 0. */
    std::vector<TenantSpec> tenants;

    // --- tenant generator (used when tenantCount > 0) -------------
    /** Generate this many tenants instead of using @c tenants. */
    unsigned tenantCount = 0;
    /** Benchmarks cycled across generated tenants (default mcf). */
    std::vector<std::string> tenantBenchmarks;
    /**
     * Per-core reference distance between generated arrivals; 0
     * auto-spaces the overflow tenants evenly over the run.
     */
    std::uint64_t churnIntervalRefs = 0;
    /** Tenants resident per core at any instant (churn depth). */
    unsigned residentPerCore = 4;

    // --- consolidation knobs (generator and explicit lists) -------
    /**
     * Memory overcommit: guests' combined nominal footprints exceed
     * physical memory by this factor, so each tenant's resident
     * working set shrinks to nominal / overcommitFactor. Finite and
     * at least 1 (no overcommit); TenantSpec::footprintBytes sets a
     * larger tenant.
     */
    double overcommitFactor = 1.0;
    /** Pages migrated (unmap + shootdown + remap) per arrival. */
    std::uint64_t migrationPagesPerArrival = 0;
    /** TLB-shootdown storm schedule. */
    StormSpec storm;
    /** Round-robin quantum when streams share a core (0 = 2000). */
    std::uint64_t timeSliceRefs = 2000;
    /**
     * When non-empty, every tenant replays this pomtlb-tracepack-v1
     * file (docs/trace-format.md) instead of the synthetic
     * generator. Counting vCPUs in resolved-tenant order, vCPU
     * stream @c i replays pack stream <tt>i % stream_count</tt> — the
     * layout ScenarioEngine::recordPack() writes (one stream per
     * vCPU), so a recorded scenario replays its generator-driven twin
     * byte-identically (`pomtlb scenario --trace-in`), and the rule
     * `pomtlb run --trace-in` applies to cores. A stream with no
     * records is a TraceError naming the pack and the stream. The
     * pack's content hash joins the scenario identity, so memoized
     * campaigns re-execute when the trace changes.
     */
    std::string tracePack;

    /**
     * Resolve to the canonical tenant list: expands the generator
     * (or defaults of the explicit list), assigns VM/ASID bindings,
     * clamps departures to the run length, and applies overcommit to
     * footprints. Throws std::invalid_argument naming the bad input
     * on a zero or overflowing run length, no tenants, a tenant
     * arriving at/after the run end or departing before it arrives,
     * an overcommit factor that is not finite or is below 1, or a
     * generated placement that would leave a core idle; FatalError
     * on an unknown benchmark.
     */
    std::vector<ResolvedTenant> resolvedTenants() const;

    /** @name Fluent builders. */
    ///@{
    ScenarioSpec &withTenant(TenantSpec tenant)
    {
        tenants.push_back(std::move(tenant));
        return *this;
    }
    ScenarioSpec &withTracePack(std::string path)
    {
        tracePack = std::move(path);
        return *this;
    }
    ///@}
};

/**
 * One tenant's measured-phase counters. The engine updates them on
 * every reference and zeroes them at the warmup boundary; the
 * tenant's result carries them as they stand at the end of the run.
 */
struct TenantCounters
{
    std::uint64_t refs = 0;
    std::uint64_t l1TlbHits = 0;
    std::uint64_t l2TlbHits = 0;
    std::uint64_t lastLevelTlbMisses = 0;
    std::uint64_t translationCycles = 0;
    std::uint64_t pageWalks = 0;
    std::uint64_t shootdowns = 0;
    std::uint64_t migrations = 0;
    /** Per-reference translation-cycle distribution (QoS tail). */
    Log2Histogram translationLatency;
};

/** Measured-phase results of one tenant. */
struct TenantResult : TenantCounters
{
    std::string name;
    std::string benchmark;
    VmId vm = 1;
    ProcessId pidBase = 1;
    unsigned vcpus = 1;
    std::uint64_t arrivalRefs = 0;
    std::uint64_t departureRefs = 0;
    /** Whether the tenant departed (mid-run shootdown happened). */
    bool departed = false;
};

/** Whole-scenario results. */
struct ScenarioResult
{
    /** Per-core stats (the RunResult a classic run returns). */
    RunResult run;
    /** Per-tenant results, in resolved-tenant order. */
    std::vector<TenantResult> tenants;
    /** Mid-run tenant departures in the measured phase. */
    std::uint64_t departures = 0;
    /** Pages migrated in the measured phase. */
    std::uint64_t migrations = 0;
    /** Storm-schedule shootdowns in the measured phase. */
    std::uint64_t stormShootdowns = 0;
};

/**
 * Drives one scenario through one machine. Construction compiles
 * the spec (streams + per-core slice schedules); run() executes the
 * warmup and measured phases.
 */
class ScenarioEngine
{
  public:
    /**
     * @param machine The machine to drive — must have been built
     *                with spec.system and spec.scheme.
     * @param spec    The scenario to compile and run.
     *
     * Opening a trace pack throws a path-named TraceError on
     * corrupt input or on a stream with no records.
     */
    ScenarioEngine(Machine &machine, const ScenarioSpec &spec);

    /**
     * Run warmup + measured phases; returns measured-phase stats.
     * Pre-population enumerates the streams, or takes @p share's
     * enumeration when it carries this engine's enumeration key (a
     * campaign group's, sim/sweep_cache.hh); the result is the same
     * either way.
     */
    ScenarioResult run(EnumerationShare *share = nullptr);

    /**
     * Record every compiled stream's whole-run records into a
     * pomtlb-tracepack-v1 file at @p path: one pack stream per
     * tenant vCPU in resolved-tenant order, named
     * "&lt;tenant&gt;/&lt;vcpu&gt;", each holding exactly the
     * stream's scheduled reference count. Replaying the pack with
     * ScenarioSpec::tracePack reproduces this scenario's stats
     * document byte-identically. Call before run(); the streams
     * are rewound afterwards, so a subsequent run() is unaffected.
     * Throws TraceError if the pack cannot be written.
     */
    void recordPack(const std::string &path);

  private:
    /** One scheduled quantum of one stream on one core. */
    struct Slice
    {
        std::uint32_t stream = 0;
        std::uint64_t length = 0;
        /** First quantum of the stream (arrival actions fire). */
        bool firstOfStream = false;
        /** Last quantum of the stream (departure accounting). */
        bool lastOfStream = false;
    };

    /** Per-tenant runtime accounting (fixed storage, hot-path safe). */
    struct TenantRuntime
    {
        TenantCounters counters;
        bool departed = false;
        /** Streams still scheduled (departure fires at zero). */
        unsigned activeStreams = 0;
        /** Arrival actions already performed (or not needed). */
        bool arrivalDone = false;
        /** Whether the tenant departs before the run ends. */
        bool departsMidRun = false;
    };

    /**
     * Per-core execution lane: the core's clock, its slice cursor,
     * and the stats deltas it accumulates. Nothing here allocates on
     * the per-reference path.
     */
    struct Lane
    {
        Cycles clock = 0;
        std::uint64_t phaseDone = 0;
        /** References left in the current slice. */
        std::uint64_t sliceLeft = 0;
        /** Index into the core's slice schedule. */
        std::size_t sliceIndex = 0;
        TenantStream *cursor = nullptr;
        Mmu *mmu = nullptr;
        InstCount instructions = 0;
        std::uint64_t pageWalks = 0;
        std::uint64_t shootdowns = 0;
    };

    void buildStreams();
    void buildSchedule();
    void runPhase(std::uint64_t target);
    /** Switch @p lane to its next slice (lifecycle events fire). */
    void advanceSlice(Lane &lane, unsigned core, Cycles &clock);
    /** Arrival page migrations for tenant @p tenant_index. */
    void migratePages(unsigned tenant_index, Lane &lane,
                      Cycles &clock);

    Machine &machine;
    ScenarioSpec spec;
    EngineConfig engineConfig;
    std::uint64_t totalPerCore = 0;
    std::vector<ResolvedTenant> tenants;
    TenantStreamSet streams;
    /** schedule[core] = that core's slice sequence. */
    std::vector<std::vector<Slice>> schedule;
    /** runtimes[i] accounts for tenants[i]. */
    std::vector<TenantRuntime> runtimes;
    std::vector<Lane> lanes;
    std::uint64_t refsSinceShootdown = 0;
    std::uint64_t refsSinceStorm = 0;
    std::uint64_t departures = 0;
    std::uint64_t migrations = 0;
    std::uint64_t stormShootdowns = 0;
};

/**
 * Convenience wrapper: compile and run @p spec on @p machine.
 * The machine must have been constructed with spec.system and
 * spec.scheme.
 */
ScenarioResult runScenario(Machine &machine, const ScenarioSpec &spec);

/**
 * The canonical JSON identity of a scenario: schema version, name,
 * canonical scheme name, the complete system/engine configuration
 * (shared serialisers with the sweep cache), the resolved tenant
 * list, and every consolidation knob. Any field that can change a
 * result changes this identity.
 */
JsonValue scenarioIdentityJson(const ScenarioSpec &spec);

/**
 * The scenario's content hash: 128-bit FNV-1a over the compact
 * identity serialisation — the cache and journal key of scenario
 * jobs, stable across processes and hosts.
 */
std::string scenarioHash(const ScenarioSpec &spec);

/**
 * Benchmark label of a scenario: the distinct tenant benchmarks in
 * first-appearance order, joined with '+' (a single-workload
 * scenario labels itself exactly like the classic run).
 */
std::string scenarioBenchmarkLabel(const ScenarioSpec &spec);

/**
 * Build the `pomtlb-scenario-v1` document for a finished scenario:
 * identity + hash, per-tenant results (hit ratios, p50/p95/p99
 * translation-cycle percentiles, the latency histogram), lifecycle
 * event totals, and the embedded `pomtlb-stats-v1` document under
 * `stats` (byte-identical to a classic run's for the degenerate
 * single-tenant scenario).
 */
JsonValue buildScenarioDocument(Machine &machine,
                                const ScenarioSpec &spec,
                                const ScenarioResult &result);

/**
 * The campaign jobs of @p specs, for SweepService::run() with
 * kScenarioSchemaV1: scenarioHash(), the key "name/scheme", a group
 * shared by the scenarios whose identities differ only in scheme and
 * name, a producer that builds the machine, runs the scenario (with
 * the group's enumeration) and returns its buildScenarioDocument(),
 * and a servability check that accepts a stored `pomtlb-scenario-v1`
 * document only when its `scenario_hash` is the job's and it carries
 * the `tenants`, `events` and `stats` members its readers use.
 */
std::vector<CampaignJob>
scenarioJobs(const std::vector<ScenarioSpec> &specs);

} // namespace pomtlb

#endif // POMTLB_SIM_SCENARIO_HH
