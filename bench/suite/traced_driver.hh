/**
 * @file
 * The benchmark's traced driver: SimulationEngine::run() re-enacted
 * from outside the simulator, with host timers around every call into
 * a layer's public API.
 *
 * The engine's hot loop is one function, so timing it from inside
 * would mean editing the simulator. Instead the driver repeats the
 * engine's exact call sequence — TraceSource::fill() and
 * MemoryMap::ensureMapped()/TranslationScheme::prewarm() for the
 * steady-state pre-population, then a ClockHeap-scheduled loop of
 * Mmu::translate() and DataHierarchy::accessData() — and brackets
 * each call with std::chrono::steady_clock reads. Because the calls
 * and their order are the engine's, the simulated totals must come
 * out bit-identical; the benchmark checks that against an untraced
 * engine.run() of the same configuration and withholds the layer
 * numbers of any cell that differs.
 *
 * Spans are timer-inclusive: each recorded duration contains one
 * steady_clock read. The benchmark reports the whole traced run's
 * wall time against the untraced run's as the tracing overhead.
 */

#ifndef POMTLB_BENCH_SUITE_TRACED_DRIVER_HH
#define POMTLB_BENCH_SUITE_TRACED_DRIVER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hh"
#include "sim/machine.hh"
#include "trace/source.hh"

namespace pomtlb::bench
{

/** Host-latency histogram with 1 ns buckets; the last one clamps. */
class NsHistogram
{
  public:
    /** Record one duration of @p ns nanoseconds. */
    void add(std::uint64_t ns);

    /** Add every sample of @p other. */
    void merge(const NsHistogram &other);

    /** Smallest bucket holding at least fraction @p q of samples. */
    double quantile(double q) const;

  private:
    /** Durations at or above this many ns share the last bucket. */
    static constexpr std::uint64_t clampNs = 16383;

    std::vector<std::uint64_t> buckets =
        std::vector<std::uint64_t>(clampNs + 1, 0);
    std::uint64_t samples = 0;
};

/** Number of ServicePoint values (the enum is dense from 0). */
inline constexpr std::size_t servicePointCount = 11;

/** Number of MemLevel values (L1D, L2D, L3D, Memory). */
inline constexpr std::size_t memLevelCount = 4;

/**
 * Host time and work counts of traced runs, per layer. Times are in
 * nanoseconds; every field is a sum, so profiles of several runs
 * merge by addition. Counts cover warmup and measured phases alike,
 * exactly like the spans they sit beside.
 */
struct LayerProfile
{
    /** @name TraceSource::fill() during pre-population. */
    ///@{
    std::uint64_t fillNs = 0;
    std::uint64_t fillRecords = 0;
    ///@}

    /** @name Steady-state pre-population (its span includes fill). */
    ///@{
    std::uint64_t prepopulateNs = 0;
    std::uint64_t ensureMappedCalls = 0;
    std::uint64_t ensureMappedNs = 0;
    std::uint64_t prewarmNs = 0;
    ///@}

    /** @name Mmu::translate() calls an SRAM TLB served. */
    ///@{
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t hitNs = 0;
    NsHistogram hitHist;
    ///@}

    /** @name Mmu::translate() calls that went to the scheme. */
    ///@{
    std::uint64_t missCalls = 0;
    std::uint64_t walks = 0;
    std::uint64_t missNs = 0;
    NsHistogram missHist;
    /** Misses and their host time by the ServicePoint that served. */
    std::array<std::uint64_t, servicePointCount> servedCalls{};
    std::array<std::uint64_t, servicePointCount> servedNs{};
    ///@}

    /** @name DataHierarchy::accessData() calls. */
    ///@{
    std::uint64_t accessNs = 0;
    NsHistogram accessHist;
    /** Accesses and their host time by the MemLevel that served. */
    std::array<std::uint64_t, memLevelCount> levelCalls{};
    std::array<std::uint64_t, memLevelCount> levelNs{};
    ///@}

    /** @name The ClockHeap-scheduled reference loop. */
    ///@{
    /** Wall time of both phases' loops, child spans included. */
    std::uint64_t loopNs = 0;
    std::uint64_t refs = 0;
    /** Times the running lane stopped being earliest (heap sift). */
    std::uint64_t heapSwitches = 0;
    ///@}

    /** Add every field of @p other. */
    void merge(const LayerProfile &other);
};

/** A traced run's engine-shaped results plus its layer profile. */
struct TracedRun
{
    RunResult result;
    LayerProfile layers;
};

/**
 * The trace sources SimulationEngine's primary constructor builds
 * for @p config on @p machine: one generator per core seeded with
 * config.seed ^ system seed, or — when config.tracePackPath is set —
 * core c on stream c % stream_count of the pack.
 */
std::vector<std::unique_ptr<TraceSource>>
engineSources(const Machine &machine, const BenchmarkProfile &profile,
              const EngineConfig &config);

/**
 * Run warmup and measured phases exactly as
 * SimulationEngine(machine, profile, config, sources).run() would,
 * timing each layer call. @p machine must be freshly built. Throws
 * std::runtime_error when a source runs dry.
 */
TracedRun runTraced(Machine &machine, const BenchmarkProfile &profile,
                    const EngineConfig &config,
                    std::vector<std::unique_ptr<TraceSource>> sources);

} // namespace pomtlb::bench

#endif // POMTLB_BENCH_SUITE_TRACED_DRIVER_HH
