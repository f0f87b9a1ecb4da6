/**
 * @file
 * The parallel experiment-sweep subsystem.
 *
 * A sweep is a declarative cross product — benchmarks × schemes ×
 * config variants — expanded into ExperimentRequest jobs and executed
 * on a bounded worker pool. Each job constructs its own Machine +
 * SimulationEngine, so the simulator core stays single-threaded by
 * design: no lock ever guards simulation state, the isolation unit is
 * the whole machine. Results always come back in spec order,
 * bit-identical to a serial run (tests/test_sweep.cc enforces this).
 *
 * Layers:
 *  - ExperimentRequest / ExperimentResult — value types describing
 *    one run and its outcome, with a fluent builder for overrides;
 *  - SweepSpec — the declarative cross product, expand()ed to
 *    requests;
 *  - SweepRunner — the worker pool;
 *  - SweepResultWriter — JSON serialisation for
 *    scripts/plot_results.py, round-trippable through
 *    SweepResultWriter::fromJson.
 */

#ifndef POMTLB_SIM_SWEEP_HH
#define POMTLB_SIM_SWEEP_HH

#include <functional>
#include <iosfwd>
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
    /** Variant tag for reports ("" when the sweep has no variants). */
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
    /** Set the variant tag. */
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
    /** Replace the whole system configuration. */
    ExperimentRequest &withSystem(const SystemConfig &system);
    /** Replace the whole engine configuration. */
    ExperimentRequest &withEngine(const EngineConfig &engine);
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
    /** Host wall-clock seconds this job took (not simulated time). */
    double wallSeconds = 0.0;
};

/**
 * Run one request synchronously on the calling thread. Throws
 * std::invalid_argument for an unknown benchmark or scheme name —
 * the two user-input errors a sweep job can hit; configuration
 * errors still fatal() like everywhere else in the simulator.
 */
ExperimentResult runExperiment(const ExperimentRequest &request);

/**
 * A declarative sweep: benchmarks × schemes × config variants.
 * expand() produces the cross product in benchmark-major order
 * (benchmark, then scheme, then variant), which is also the order
 * SweepRunner returns results in.
 */
class SweepSpec
{
  public:
    /** Named configuration override applied on top of the base. */
    struct Variant
    {
        std::string label; /**< Tag appended to each request key. */
        std::function<void(ExperimentConfig &)> apply; /**< Override. */
    };

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
    /** Add one labelled config variant to the variant axis. */
    SweepSpec &withVariant(
        std::string label,
        std::function<void(ExperimentConfig &)> apply);
    /** Request per-component stats on every expanded request. */
    SweepSpec &withComponentStats(bool enabled = true);

    /** The base configuration. */
    const ExperimentConfig &base() const { return baseConfig; }
    /** The benchmark axis. */
    const std::vector<std::string> &benchmarks() const
    {
        return benchmarkNames;
    }
    /** The scheme axis (canonical registry names). */
    const std::vector<std::string> &schemes() const
    {
        return schemeNames;
    }
    /** The variant axis. */
    const std::vector<Variant> &variants() const
    {
        return configVariants;
    }

    /** Number of requests expand() will produce. */
    std::size_t jobCount() const;

    /** The cross product, in deterministic spec order. */
    std::vector<ExperimentRequest> expand() const;

  private:
    ExperimentConfig baseConfig;
    std::vector<std::string> benchmarkNames;
    std::vector<std::string> schemeNames;
    std::vector<Variant> configVariants;
    bool componentStats = false;
};

/**
 * Executes ExperimentRequests on a bounded pool of worker threads.
 *
 * Guarantees:
 *  - results[i] always corresponds to requests[i] (completion order
 *    never leaks into the output);
 *  - every summary is bit-identical to what a serial run produces
 *    (jobs share no mutable state — one Machine per job);
 *  - if jobs throw, the workers drain and the exception of the
 *    lowest-indexed failing request is rethrown, so error reporting
 *    is deterministic too.
 */
class SweepRunner
{
  public:
    /**
     * @param jobs  Worker threads. 1 = run serially on the calling
     *              thread; 0 = hardware concurrency (capped by the
     *              number of requests either way).
     */
    explicit SweepRunner(unsigned jobs = 1);

    /** The resolved worker count (never 0). */
    unsigned jobs() const { return workerCount; }

    /**
     * Invoked as each job finishes, in *completion* order (the
     * result vector stays in request order regardless). Calls are
     * serialised by the runner, so the callback may touch shared
     * state (journals, sockets) without its own lock; it must not
     * throw. This is the hook the sweep-at-scale service
     * (sim/sweep_cache.hh) uses to checkpoint and stream results.
     */
    using JobCallback =
        std::function<void(std::size_t index,
                           const ExperimentResult &result)>;

    /** Run every request; results land in request order. */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentRequest> &requests) const
    {
        return run(requests, JobCallback());
    }

    /** run() with a serialised per-completion callback. */
    std::vector<ExperimentResult>
    run(const std::vector<ExperimentRequest> &requests,
        const JobCallback &on_result) const;

    /** Expand a spec and run it. */
    std::vector<ExperimentResult> run(const SweepSpec &spec) const
    {
        return run(spec.expand());
    }

    /**
     * Resolve a requested job count: 0 consults POMTLB_SWEEP_JOBS,
     * then std::thread::hardware_concurrency(), then falls back
     * to 1.
     */
    static unsigned resolveJobs(unsigned requested);

  private:
    unsigned workerCount;
};

/**
 * Serialises sweep results to JSON (schema documented in
 * docs/internals.md). The reader reconstructs the identity fields
 * and every summary statistic — enough for plotting and regression
 * diffing; the full ExperimentConfig is summarised, not embedded.
 */
class SweepResultWriter
{
  public:
    /** Build the `pomtlb-sweep-v1` document for @p results. */
    static JsonValue
    toJson(const std::vector<ExperimentResult> &results);

    /**
     * One `runs[]` entry of the `pomtlb-sweep-v1` document. The
     * sweep-result cache stores exactly this object per job, so a
     * cached job replays byte-identically into the document.
     */
    static JsonValue entryToJson(const ExperimentResult &result);

    /** Inverse of entryToJson for the round-trippable subset. */
    static ExperimentResult entryFromJson(const JsonValue &entry);

    /** Pretty-printed JSON document, trailing newline included. */
    static void write(std::ostream &os,
                      const std::vector<ExperimentResult> &results);

    /** Inverse of toJson for the round-trippable subset. */
    static std::vector<ExperimentResult>
    fromJson(const JsonValue &document);
};

} // namespace pomtlb

#endif // POMTLB_SIM_SWEEP_HH
