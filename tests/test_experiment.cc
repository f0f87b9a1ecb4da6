/**
 * @file
 * Experiment-runner tests: scheme summaries and the all-scheme
 * comparison that feeds Figure 8.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/scheme_registry.hh"

namespace pomtlb
{
namespace
{

ExperimentConfig
quickConfig()
{
    ExperimentConfig config;
    config.system.numCores = 2;
    config.engine.refsPerCore = 4000;
    config.engine.warmupRefsPerCore = 2000;
    return config;
}

TEST(Experiment, RunSchemeSummarises)
{
    const SchemeRunSummary summary = runScheme(
        ProfileRegistry::byName("gups"), "POM-TLB",
        quickConfig());
    EXPECT_EQ(summary.benchmark, "gups");
    EXPECT_EQ(summary.scheme, "POM-TLB");
    EXPECT_GT(summary.translationCycles, 0u);
    EXPECT_GT(summary.avgPenaltyPerMiss, 0.0);
    EXPECT_GE(summary.sizePredictorAccuracy, 0.0);
    EXPECT_LE(summary.sizePredictorAccuracy, 1.0);
    EXPECT_GE(summary.dieStackedRowBufferHitRate, 0.0);
}

TEST(Experiment, BaselineSummaryHasNoPomStats)
{
    const SchemeRunSummary summary = runScheme(
        ProfileRegistry::byName("gups"), "Baseline",
        quickConfig());
    EXPECT_DOUBLE_EQ(summary.pomL2CacheServiceRate, 0.0);
    EXPECT_DOUBLE_EQ(summary.sizePredictorAccuracy, 0.0);
    EXPECT_DOUBLE_EQ(summary.walkFraction, 1.0);
}

TEST(Experiment, CompareSchemesProducesImprovements)
{
    const BenchmarkComparison comparison = compareSchemes(
        ProfileRegistry::byName("gups"), quickConfig());
    EXPECT_EQ(comparison.benchmark, "gups");
    // One run + delta per registered scheme, in registry order —
    // the paper's four first, then the contenders.
    const std::vector<std::string> names =
        SchemeRegistry::global().names();
    ASSERT_EQ(comparison.runs.size(), names.size());
    for (std::size_t i = 0; i < comparison.runs.size(); ++i)
        EXPECT_EQ(comparison.runs[i].first, names[i]);
    const std::vector<std::string> paper = {"Baseline", "POM-TLB",
                                            "Shared_L2", "TSB"};
    for (std::size_t i = 0; i < paper.size(); ++i)
        EXPECT_EQ(comparison.runs[i].first, paper[i]);
    const SchemeDelta &baseline =
        comparison.delta("Baseline");
    EXPECT_DOUBLE_EQ(baseline.costRatio, 1.0);
    EXPECT_DOUBLE_EQ(baseline.improvementPct, 0.0);

    const SchemeDelta &pom = comparison.delta("POM-TLB");
    EXPECT_GT(pom.costRatio, 0.0);
    EXPECT_LT(pom.costRatio, 1.0);
    // POM-TLB improves over the baseline on gups.
    EXPECT_GT(pom.improvementPct, 0.0);
    // And beats the TSB by a wide margin (the paper's "order of
    // difference" observation for gups).
    EXPECT_GT(pom.improvementPct,
              comparison.delta("TSB").improvementPct + 1.0);
}

TEST(Experiment, SchemeDeltaMatchesComparison)
{
    // The figures compute every improvement from two runs through
    // schemeDelta(); it must agree with compareSchemes' deltas.
    const ExperimentConfig config = quickConfig();
    const BenchmarkProfile &profile = ProfileRegistry::byName("gups");
    const BenchmarkComparison comparison =
        compareSchemes(profile, config);
    const SchemeDelta delta =
        schemeDelta(runScheme(profile, "POM-TLB", config),
                    runScheme(profile, "Baseline", config));
    EXPECT_NEAR(delta.improvementPct,
                comparison.delta("POM-TLB").improvementPct, 1e-9);
    EXPECT_EQ(delta.costRatio, comparison.delta("POM-TLB").costRatio);
}

TEST(Experiment, SchemeDeltaSeesAChangeOnTheSchemeSideOnly)
{
    // The scheme run may differ from the baseline in one knob (the
    // sensitivity tables and ablations vary only the POM-TLB
    // machine); the delta must reflect that change.
    const ExperimentConfig config = quickConfig();
    const BenchmarkProfile &profile = ProfileRegistry::byName("gups");
    const SchemeRunSummary baseline =
        runScheme(profile, "Baseline", config);
    const double cached =
        schemeDelta(runScheme(profile, "POM-TLB", config), baseline)
            .improvementPct;

    ExperimentConfig uncached = config;
    uncached.system.pomTlb.cacheable = false;
    const double without_caching =
        schemeDelta(runScheme(profile, "POM-TLB", uncached), baseline)
            .improvementPct;
    // gups relies on cached POM entries; disabling data caching
    // must change (lower) the improvement.
    EXPECT_NE(without_caching, cached);
}

TEST(Experiment, DefaultConfigIsTheFullRunLength)
{
    // The paper's tables are reproduced at the engine defaults;
    // shorter runs are an explicit --refs/--warmup.
    const ExperimentConfig config;
    EXPECT_EQ(config.engine.refsPerCore, 150000u);
    EXPECT_EQ(config.engine.warmupRefsPerCore, 120000u);
}

TEST(Experiment, NativeModeRuns)
{
    ExperimentConfig config = quickConfig();
    config.system.mode = ExecMode::Native;
    const SchemeRunSummary summary = runScheme(
        ProfileRegistry::byName("gups"), "Baseline",
        config);
    EXPECT_EQ(summary.mode, ExecMode::Native);
    EXPECT_GT(summary.avgPenaltyPerMiss, 0.0);
}

TEST(Experiment, VirtualizedWalksCostMoreThanNative)
{
    ExperimentConfig native_config = quickConfig();
    native_config.system.mode = ExecMode::Native;
    ExperimentConfig virt_config = quickConfig();

    const SchemeRunSummary native = runScheme(
        ProfileRegistry::byName("gups"), "Baseline",
        native_config);
    const SchemeRunSummary virt = runScheme(
        ProfileRegistry::byName("gups"), "Baseline",
        virt_config);
    // Figure 3's message: virtualized translation costs more.
    EXPECT_GT(virt.avgPenaltyPerMiss, native.avgPenaltyPerMiss);
}

} // namespace
} // namespace pomtlb
