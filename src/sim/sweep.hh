/**
 * @file
 * The parallel experiment-sweep subsystem.
 *
 * A sweep is a declarative cross product — benchmarks × schemes —
 * expanded into ExperimentRequest jobs and executed as a
 * SweepService campaign (sim/sweep_cache.hh) on a bounded worker
 * pool. Each job constructs its own Machine + SimulationEngine, so
 * the simulator core stays single-threaded by design: no lock ever
 * guards simulation state, the isolation unit is the whole machine.
 * Results always come back in spec order, bit-identical to a serial
 * run (tests/test_sweep.cc enforces this).
 *
 * Layers:
 *  - ExperimentRequest / ExperimentResult — value types describing
 *    one run and its outcome, with a fluent builder for overrides;
 *  - runExperiment — one request on the calling thread;
 *  - SweepSpec — the declarative cross product, expand()ed to
 *    requests;
 *  - SweepResultWriter — the JSON form of one run entry (the
 *    SweepService document is an array of them) and the reader of a
 *    whole document.
 */

#ifndef POMTLB_SIM_SWEEP_HH
#define POMTLB_SIM_SWEEP_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "sim/experiment.hh"

namespace pomtlb
{

/** Schema identifier written into every sweep-result document. */
inline constexpr const char *kSweepSchemaV1 = "pomtlb-sweep-v1";

/**
 * One experiment to run: a benchmark under a scheme with a fully
 * resolved configuration. Build directly or through the fluent
 * with*() chain:
 *
 *     auto request = ExperimentRequest::of("mcf", "POM-TLB")
 *                        .withCores(16)
 *                        .withPomCapacityMb(32)
 *                        .withLabel("32MB");
 */
struct ExperimentRequest
{
    std::string benchmark; /**< Workload-model name ("mcf", ...). */
    /** Registry name of the scheme to run (canonicalised by of()). */
    std::string scheme = "Baseline";
    ExperimentConfig config; /**< Fully resolved configuration. */
    /** Free-form tag for reports; part of the job identity. */
    std::string label;
    /** Attach per-component StatGroup output to the result. */
    bool collectComponentStats = false;

    /**
     * Start a request from a base configuration. Accepts any
     * registry name or alias and canonicalises it; an unknown name
     * is kept verbatim and rejected later by runExperiment().
     */
    static ExperimentRequest
    of(std::string benchmark_name, std::string scheme_name,
       ExperimentConfig base = ExperimentConfig{});

    // Fluent overrides (each returns *this for chaining).
    /** Set the report tag. */
    ExperimentRequest &withLabel(std::string value);
    /** Override the simulated core count. */
    ExperimentRequest &withCores(unsigned cores);
    /** Override native/virtualized execution mode. */
    ExperimentRequest &withMode(ExecMode mode);
    /** Override measured and warmup references per core. */
    ExperimentRequest &withRefs(std::uint64_t refs_per_core,
                                std::uint64_t warmup_refs_per_core);
    /** Override the RNG seed every stream forks from. */
    ExperimentRequest &withSeed(std::uint64_t seed);
    /** Override the POM-TLB capacity, in megabytes. */
    ExperimentRequest &withPomCapacityMb(std::uint64_t mb);
    /** Request per-component stats in the result. */
    ExperimentRequest &withComponentStats(bool enabled = true);
    /** Escape hatch: arbitrary in-place config adjustment. */
    ExperimentRequest &
    tweak(const std::function<void(ExperimentConfig &)> &apply);

    /** "benchmark/scheme[/label]" identity string for reports. */
    std::string key() const;
};

/** The outcome of one ExperimentRequest. */
struct ExperimentResult
{
    ExperimentRequest request; /**< The request that produced this. */
    SchemeRunSummary summary;  /**< Scheme-level run summary. */
    /**
     * Per-component statistics (StatGroup::collect over the whole
     * machine); empty unless the request asked for them.
     */
    std::vector<std::pair<std::string, double>> componentStats;
};

/**
 * Run one request synchronously on the calling thread. @p share is a
 * campaign group's trace enumeration (SimulationEngine::run); the
 * result does not depend on it. Throws std::invalid_argument for an
 * unknown benchmark or scheme name, and FatalError (from fatal())
 * for a configuration that fails validation.
 */
ExperimentResult runExperiment(const ExperimentRequest &request,
                               EnumerationShare *share = nullptr);

/**
 * A declarative sweep: benchmarks × schemes. expand() produces the
 * cross product in benchmark-major order (benchmark, then scheme),
 * which is also the order of the runs in a SweepService document.
 */
class SweepSpec
{
  public:
    /** Set the base configuration every request starts from. */
    SweepSpec &withBase(ExperimentConfig config);
    /** Set the benchmark axis. */
    SweepSpec &withBenchmarks(std::vector<std::string> names);
    /** All fifteen Table 2 workloads. */
    SweepSpec &withAllBenchmarks();
    /** Set the scheme axis by registry name (aliases accepted). */
    SweepSpec &withSchemes(std::vector<std::string> names);
    /**
     * Every registered scheme: the paper's four in Figure 8 order,
     * then contenders in registration (rank) order.
     */
    SweepSpec &withAllSchemes();
    /** Request per-component stats on every expanded request. */
    SweepSpec &withComponentStats(bool enabled = true);

    /** Number of requests expand() will produce. */
    std::size_t jobCount() const;

    /** The cross product, in deterministic spec order. */
    std::vector<ExperimentRequest> expand() const;

  private:
    ExperimentConfig baseConfig;
    std::vector<std::string> benchmarkNames;
    std::vector<std::string> schemeNames;
    bool componentStats = false;
};

/**
 * Serialises sweep results to JSON (schema documented in
 * docs/internals.md). The reader reconstructs the identity fields
 * and every summary statistic — enough for plotting and regression
 * diffing; the full ExperimentConfig is summarised, not embedded.
 * SweepService::run() assembles the `pomtlb-sweep-v1` document from
 * these entries.
 */
class SweepResultWriter
{
  public:
    /**
     * One `runs[]` entry of the `pomtlb-sweep-v1` document, with
     * `wall_seconds` 0 (host time is reported per job, in
     * SweepJobReport). The sweep-result cache stores exactly this
     * object per job, so a cached job replays byte-identically into
     * the document.
     */
    static JsonValue entryToJson(const ExperimentResult &result);

    /**
     * Inverse of entryToJson for the round-trippable subset. Every
     * field is required: throws std::out_of_range for a missing one,
     * std::logic_error for one of the wrong kind, and
     * std::invalid_argument for an unknown scheme or service point.
     */
    static ExperimentResult entryFromJson(const JsonValue &entry);

    /** The entries of a whole `pomtlb-sweep-v1` document. */
    static std::vector<ExperimentResult>
    fromJson(const JsonValue &document);
};

} // namespace pomtlb

#endif // POMTLB_SIM_SWEEP_HH
