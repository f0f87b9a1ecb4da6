/**
 * @file
 * High-level experiment runners shared by the paper's figures
 * (sim/figures.hh), the examples, and the integration tests: build a
 * machine for a scheme, drive a benchmark through it, and summarise
 * the statistics every figure of the paper needs.
 *
 * The multi-run entry points (compareSchemes, and every campaign of
 * sim/sweep.hh requests) execute their independent runs as a
 * SweepService campaign (sim/sweep_cache.hh), whose worker count is
 * a parameter of the call, never part of the configuration.
 */

#ifndef POMTLB_SIM_EXPERIMENT_HH
#define POMTLB_SIM_EXPERIMENT_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "sim/engine.hh"
#include "sim/scheme.hh"
#include "trace/profile.hh"

namespace pomtlb
{

/** Everything configurable about one experiment. */
struct ExperimentConfig
{
    /** The Table 1 machine unless overridden. */
    SystemConfig system = SystemConfig::table1();
    /**
     * Run length, seed and shootdowns; the defaults are the length
     * the paper's figures are reproduced at (`--refs`/`--warmup`
     * shorten it).
     */
    EngineConfig engine;
};

/** Flattened summary of one (benchmark, scheme) run. */
struct SchemeRunSummary
{
    std::string benchmark;
    /** Canonical registry name of the scheme that ran. */
    std::string scheme = "Baseline";
    ExecMode mode = ExecMode::Virtualized;

    RunResult run;

    /** Sum over cores of post-L1 translation cycles (T_post). */
    std::uint64_t translationCycles = 0;
    /** SRAM-TLB share of translationCycles (exact split). */
    std::uint64_t sramCycles = 0;
    /** Scheme share of translationCycles (exact split). */
    std::uint64_t schemeCycles = 0;
    /**
     * Scheme cycles attributed to each serving level, as reported by
     * TranslationScheme::cycleBreakdown(); the values sum exactly to
     * schemeCycles. Serialised as the `cycle_breakdown` object of
     * both `pomtlb-sweep-v1` runs and `pomtlb-stats-v1` documents.
     */
    std::vector<std::pair<ServicePoint, std::uint64_t>>
        cycleBreakdown;
    /** Average scheme cycles per last-level TLB miss (paper's P). */
    double avgPenaltyPerMiss = 0.0;
    /** Fraction of last-level TLB misses requiring a page walk. */
    double walkFraction = 0.0;

    // POM-TLB specific (zero for other schemes).
    double pomL2CacheServiceRate = 0.0;
    double pomL3CacheServiceRate = 0.0;
    double pomDramServiceRate = 0.0;
    double sizePredictorAccuracy = 0.0;
    double bypassPredictorAccuracy = 0.0;
    double dieStackedRowBufferHitRate = 0.0;

    // Data-cache behaviour (all schemes).
    double l3DataHitRate = 0.0;
};

/** Build a machine for (config, scheme), run @p profile, summarise. */
SchemeRunSummary runScheme(const BenchmarkProfile &profile,
                           const std::string &scheme,
                           const ExperimentConfig &config);

/**
 * Translation-cost ratio and Figure 8 improvement of one scheme
 * relative to the baseline run of the same benchmark.
 */
struct SchemeDelta
{
    double costRatio = 1.0;
    double improvementPct = 0.0;
};

/**
 * The delta of @p scheme over @p baseline, two runs of one benchmark
 * that may differ in any knob: their translation-cycle ratio and its
 * Eqs. 2-5 improvement at the baseline mode's Table 2 overhead.
 */
SchemeDelta schemeDelta(const SchemeRunSummary &scheme,
                        const SchemeRunSummary &baseline);

/**
 * One benchmark across every scheme, with Eq. 4-5 improvements.
 *
 * Runs and deltas are keyed by canonical registry scheme name, so
 * callers iterate instead of naming each scheme; adding a contender
 * means one registration, not editing every caller.
 */
struct BenchmarkComparison
{
    std::string benchmark;
    /** One summary per scheme, in registry (rank, name) order. */
    std::vector<std::pair<std::string, SchemeRunSummary>> runs;
    /** Cost ratio + improvement per scheme (baseline: 1.0 / 0.0). */
    std::map<std::string, SchemeDelta> deltas;

    /** Summary lookup; fatal if @p scheme was not part of the run. */
    const SchemeRunSummary &summary(const std::string &scheme) const;
    /** Delta lookup; fatal if @p scheme was not part of the run. */
    const SchemeDelta &delta(const std::string &scheme) const;
    /** The nested-walk baseline's summary. */
    const SchemeRunSummary &baseline() const
    {
        return summary("Baseline");
    }
};

/**
 * Run every registered scheme for @p profile and compute Figure 8's
 * improvement percentages from the paper's additive model. The runs
 * are one cache-less SweepService campaign on @p jobs workers
 * (0 = hardware concurrency); summaries are read back from the
 * campaign's entries, exactly as `pomtlb figures` reads them.
 */
BenchmarkComparison compareSchemes(const BenchmarkProfile &profile,
                                   const ExperimentConfig &config,
                                   unsigned jobs = 1);

} // namespace pomtlb

#endif // POMTLB_SIM_EXPERIMENT_HH
