/**
 * @file
 * Tests for the parallel sweep subsystem (sim/sweep.hh): request
 * builder semantics, spec expansion, determinism of the worker pool
 * against the serial path, ordering under different worker counts,
 * exception propagation, and the JSON result round trip.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "sim/sweep.hh"

namespace pomtlb
{
namespace
{

/** Tiny configuration so a full sweep stays fast. */
ExperimentConfig
tinyConfig()
{
    ExperimentConfig config;
    config.system.numCores = 2;
    config.engine.refsPerCore = 2000;
    config.engine.warmupRefsPerCore = 1000;
    return config;
}

/** The cross product the determinism tests run. */
SweepSpec
tinySpec()
{
    return SweepSpec()
        .withBase(tinyConfig())
        .withBenchmarks({"gups", "mcf"})
        .withSchemes(std::vector<std::string>{"Baseline", "POM-TLB"})
        .withVariant("16MB",
                     [](ExperimentConfig &c) {
                         c.system.pomTlb.capacityBytes = 16u << 20;
                     })
        .withVariant("8MB", [](ExperimentConfig &c) {
            c.system.pomTlb.capacityBytes = 8u << 20;
        });
}

/** Field-by-field bit-identity of two run summaries. */
void
expectIdentical(const SchemeRunSummary &a, const SchemeRunSummary &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.translationCycles, b.translationCycles);
    EXPECT_EQ(a.sramCycles, b.sramCycles);
    EXPECT_EQ(a.schemeCycles, b.schemeCycles);
    ASSERT_EQ(a.cycleBreakdown.size(), b.cycleBreakdown.size());
    for (std::size_t i = 0; i < a.cycleBreakdown.size(); ++i) {
        EXPECT_EQ(a.cycleBreakdown[i].first,
                  b.cycleBreakdown[i].first);
        EXPECT_EQ(a.cycleBreakdown[i].second,
                  b.cycleBreakdown[i].second);
    }
    // Doubles compared with EXPECT_EQ on purpose: parallel execution
    // must be *bit-identical* to serial, not merely close.
    EXPECT_EQ(a.avgPenaltyPerMiss, b.avgPenaltyPerMiss);
    EXPECT_EQ(a.walkFraction, b.walkFraction);
    EXPECT_EQ(a.pomL2CacheServiceRate, b.pomL2CacheServiceRate);
    EXPECT_EQ(a.pomL3CacheServiceRate, b.pomL3CacheServiceRate);
    EXPECT_EQ(a.pomDramServiceRate, b.pomDramServiceRate);
    EXPECT_EQ(a.sizePredictorAccuracy, b.sizePredictorAccuracy);
    EXPECT_EQ(a.bypassPredictorAccuracy, b.bypassPredictorAccuracy);
    EXPECT_EQ(a.dieStackedRowBufferHitRate,
              b.dieStackedRowBufferHitRate);
    EXPECT_EQ(a.l3DataHitRate, b.l3DataHitRate);
    ASSERT_EQ(a.run.cores.size(), b.run.cores.size());
    for (std::size_t c = 0; c < a.run.cores.size(); ++c) {
        EXPECT_EQ(a.run.cores[c].refs, b.run.cores[c].refs);
        EXPECT_EQ(a.run.cores[c].cycles, b.run.cores[c].cycles);
        EXPECT_EQ(a.run.cores[c].translationCycles,
                  b.run.cores[c].translationCycles);
        EXPECT_EQ(a.run.cores[c].lastLevelTlbMisses,
                  b.run.cores[c].lastLevelTlbMisses);
        EXPECT_EQ(a.run.cores[c].pageWalks,
                  b.run.cores[c].pageWalks);
    }
}

TEST(Sweep, RequestBuilderAppliesOverrides)
{
    const ExperimentRequest request =
        ExperimentRequest::of("mcf", "POM-TLB", tinyConfig())
            .withCores(4)
            .withMode(ExecMode::Native)
            .withRefs(1234, 567)
            .withSeed(99)
            .withPomCapacityMb(32)
            .withLabel("32MB")
            .withComponentStats();

    EXPECT_EQ(request.benchmark, "mcf");
    EXPECT_EQ(request.scheme, "POM-TLB");
    EXPECT_EQ(request.config.system.numCores, 4u);
    EXPECT_EQ(request.config.system.mode, ExecMode::Native);
    EXPECT_EQ(request.config.engine.refsPerCore, 1234u);
    EXPECT_EQ(request.config.engine.warmupRefsPerCore, 567u);
    EXPECT_EQ(request.config.engine.seed, 99u);
    EXPECT_EQ(request.config.system.pomTlb.capacityBytes,
              32u << 20);
    EXPECT_TRUE(request.collectComponentStats);
    EXPECT_EQ(request.key(), "mcf/POM-TLB/32MB");
}

TEST(Sweep, SpecExpandsInDeterministicOrder)
{
    const std::vector<ExperimentRequest> requests =
        tinySpec().expand();
    ASSERT_EQ(requests.size(), 8u);
    EXPECT_EQ(tinySpec().jobCount(), 8u);
    // benchmark-major, then scheme, then variant.
    EXPECT_EQ(requests[0].key(), "gups/Baseline/16MB");
    EXPECT_EQ(requests[1].key(), "gups/Baseline/8MB");
    EXPECT_EQ(requests[2].key(), "gups/POM-TLB/16MB");
    EXPECT_EQ(requests[3].key(), "gups/POM-TLB/8MB");
    EXPECT_EQ(requests[4].key(), "mcf/Baseline/16MB");
    EXPECT_EQ(requests[7].key(), "mcf/POM-TLB/8MB");
    // Variants really were applied.
    EXPECT_EQ(requests[2].config.system.pomTlb.capacityBytes,
              16u << 20);
    EXPECT_EQ(requests[3].config.system.pomTlb.capacityBytes,
              8u << 20);
}

TEST(Sweep, EmptySpecYieldsEmptyResults)
{
    EXPECT_TRUE(SweepRunner(4).run(SweepSpec()).empty());
    EXPECT_TRUE(
        SweepRunner(4).run(std::vector<ExperimentRequest>{}).empty());
}

TEST(Sweep, ParallelIsBitIdenticalToSerial)
{
    const std::vector<ExperimentRequest> requests =
        tinySpec().expand();
    const std::vector<ExperimentResult> serial =
        SweepRunner(1).run(requests);
    const std::vector<ExperimentResult> parallel =
        SweepRunner(4).run(requests);

    ASSERT_EQ(serial.size(), requests.size());
    ASSERT_EQ(parallel.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(parallel[i].request.key(), requests[i].key());
        expectIdentical(parallel[i].summary, serial[i].summary);
    }
}

TEST(Sweep, OrderingHoldsForAnyWorkerCount)
{
    const std::vector<ExperimentRequest> requests =
        tinySpec().expand();
    for (const unsigned jobs : {1u, 2u, 8u}) {
        const std::vector<ExperimentResult> results =
            SweepRunner(jobs).run(requests);
        ASSERT_EQ(results.size(), requests.size());
        for (std::size_t i = 0; i < requests.size(); ++i)
            EXPECT_EQ(results[i].request.key(), requests[i].key())
                << "jobs=" << jobs << " index=" << i;
    }
}

TEST(Sweep, WorkerCountIsCappedButNeverZero)
{
    EXPECT_EQ(SweepRunner(1).jobs(), 1u);
    EXPECT_EQ(SweepRunner(7).jobs(), 7u);
    EXPECT_GE(SweepRunner(0).jobs(), 1u);
}

TEST(Sweep, ResolveJobsHonoursEnvOverride)
{
    ::setenv("POMTLB_SWEEP_JOBS", "3", 1);
    EXPECT_EQ(SweepRunner::resolveJobs(0), 3u);
    // Explicit request wins over the environment.
    EXPECT_EQ(SweepRunner::resolveJobs(5), 5u);
    ::unsetenv("POMTLB_SWEEP_JOBS");
    EXPECT_GE(SweepRunner::resolveJobs(0), 1u);

    ::setenv("POMTLB_SWEEP_JOBS", "6", 1);
    EXPECT_EQ(defaultExperimentConfig().sweepJobs, 6u);
    ::unsetenv("POMTLB_SWEEP_JOBS");
    EXPECT_EQ(defaultExperimentConfig().sweepJobs, 1u);
}

TEST(Sweep, FailingJobPropagatesDeterministically)
{
    // A bad benchmark name in the middle of the batch: the workers
    // must drain, join, and rethrow the lowest-indexed failure.
    std::vector<ExperimentRequest> requests = {
        ExperimentRequest::of("gups", "Baseline",
                              tinyConfig()),
        ExperimentRequest::of("no-such-benchmark",
                              "POM-TLB", tinyConfig()),
        ExperimentRequest::of("also-missing", "TSB",
                              tinyConfig()),
        ExperimentRequest::of("mcf", "Baseline",
                              tinyConfig()),
    };
    for (const unsigned jobs : {1u, 4u}) {
        try {
            SweepRunner(jobs).run(requests);
            FAIL() << "expected std::invalid_argument (jobs="
                   << jobs << ")";
        } catch (const std::invalid_argument &error) {
            // Deterministic: always the first failing request.
            EXPECT_NE(std::string(error.what())
                          .find("no-such-benchmark"),
                      std::string::npos);
        }
    }
}

TEST(Sweep, CompareSchemesParallelMatchesSerial)
{
    // The redesigned compareSchemes is a thin wrapper over the
    // runner; fanning it out must not change a single digit.
    ExperimentConfig serial_config = tinyConfig();
    serial_config.sweepJobs = 1;
    ExperimentConfig parallel_config = tinyConfig();
    parallel_config.sweepJobs = 4;

    const BenchmarkComparison a = compareSchemes(
        ProfileRegistry::byName("gups"), serial_config);
    const BenchmarkComparison b = compareSchemes(
        ProfileRegistry::byName("gups"), parallel_config);

    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].first, b.runs[i].first);
        expectIdentical(a.runs[i].second, b.runs[i].second);
        const std::string &scheme = a.runs[i].first;
        EXPECT_EQ(a.delta(scheme).costRatio,
                  b.delta(scheme).costRatio);
        EXPECT_EQ(a.delta(scheme).improvementPct,
                  b.delta(scheme).improvementPct);
    }
}

TEST(Sweep, ComponentStatsAttachOnRequest)
{
    const ExperimentResult with_stats = runExperiment(
        ExperimentRequest::of("gups", "POM-TLB",
                              tinyConfig())
            .withComponentStats());
    EXPECT_GT(with_stats.componentStats.size(), 10u);

    const ExperimentResult without_stats = runExperiment(
        ExperimentRequest::of("gups", "POM-TLB",
                              tinyConfig()));
    EXPECT_TRUE(without_stats.componentStats.empty());
    EXPECT_GE(without_stats.wallSeconds, 0.0);
}

/**
 * Per-job stats isolation: every worker thread builds its own
 * Machine and therefore its own StatsRegistry, so concurrent jobs
 * must never bleed counters into each other. Eight identical jobs
 * run on four workers must each report exactly the stats a lone
 * serial run reports. This test is also compiled into the focused
 * `pomtlb_sweep_tests` binary so CI exercises it under TSan.
 */
TEST(Sweep, ComponentStatsIsolatedAcrossWorkerThreads)
{
    const ExperimentRequest request =
        ExperimentRequest::of("gups", "POM-TLB",
                              tinyConfig())
            .withComponentStats();
    const ExperimentResult serial = runExperiment(request);
    ASSERT_GT(serial.componentStats.size(), 10u);

    std::vector<ExperimentRequest> requests(8, request);
    const std::vector<ExperimentResult> parallel_results =
        SweepRunner(4).run(requests);
    ASSERT_EQ(parallel_results.size(), requests.size());
    for (const ExperimentResult &result : parallel_results) {
        ASSERT_EQ(result.componentStats.size(),
                  serial.componentStats.size());
        for (std::size_t s = 0; s < serial.componentStats.size();
             ++s) {
            EXPECT_EQ(result.componentStats[s].first,
                      serial.componentStats[s].first);
            EXPECT_EQ(result.componentStats[s].second,
                      serial.componentStats[s].second)
                << serial.componentStats[s].first;
        }
        expectIdentical(result.summary, serial.summary);
    }
}

TEST(Sweep, JsonRoundTrip)
{
    const std::vector<ExperimentResult> results = SweepRunner(2).run(
        SweepSpec()
            .withBase(tinyConfig())
            .withBenchmarks({"gups"})
            .withSchemes(std::vector<std::string>{"Baseline",
                                                  "POM-TLB"})
            .withComponentStats());

    std::ostringstream out;
    SweepResultWriter::write(out, results);

    const std::vector<ExperimentResult> parsed =
        SweepResultWriter::fromJson(JsonValue::parse(out.str()));
    ASSERT_EQ(parsed.size(), results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ExperimentResult &a = results[i];
        const ExperimentResult &b = parsed[i];
        EXPECT_EQ(a.request.benchmark, b.request.benchmark);
        EXPECT_EQ(a.request.scheme, b.request.scheme);
        EXPECT_EQ(a.request.label, b.request.label);
        EXPECT_EQ(a.request.config.system.numCores,
                  b.request.config.system.numCores);
        EXPECT_EQ(a.request.config.engine.seed,
                  b.request.config.engine.seed);
        EXPECT_EQ(a.summary.translationCycles,
                  b.summary.translationCycles);
        EXPECT_EQ(a.summary.sramCycles, b.summary.sramCycles);
        EXPECT_EQ(a.summary.schemeCycles, b.summary.schemeCycles);
        // The exact-consistency invariant survives serialisation.
        EXPECT_EQ(b.summary.sramCycles + b.summary.schemeCycles,
                  b.summary.translationCycles);
        ASSERT_EQ(a.summary.cycleBreakdown.size(),
                  b.summary.cycleBreakdown.size());
        for (std::size_t s = 0; s < a.summary.cycleBreakdown.size();
             ++s) {
            EXPECT_EQ(a.summary.cycleBreakdown[s].first,
                      b.summary.cycleBreakdown[s].first);
            EXPECT_EQ(a.summary.cycleBreakdown[s].second,
                      b.summary.cycleBreakdown[s].second);
        }
        EXPECT_EQ(a.summary.avgPenaltyPerMiss,
                  b.summary.avgPenaltyPerMiss);
        // Run totals the figures reduce (Table 2's MPKI, the L4
        // ablation's total cycles) survive too.
        EXPECT_EQ(a.summary.run.totals().instructions,
                  b.summary.run.totals().instructions);
        EXPECT_EQ(a.summary.run.totals().cycles,
                  b.summary.run.totals().cycles);
        EXPECT_EQ(a.summary.walkFraction, b.summary.walkFraction);
        EXPECT_EQ(a.summary.sizePredictorAccuracy,
                  b.summary.sizePredictorAccuracy);
        EXPECT_EQ(a.summary.l3DataHitRate, b.summary.l3DataHitRate);
        EXPECT_EQ(a.wallSeconds, b.wallSeconds);
        ASSERT_EQ(a.componentStats.size(), b.componentStats.size());
        for (std::size_t s = 0; s < a.componentStats.size(); ++s) {
            EXPECT_EQ(a.componentStats[s].first,
                      b.componentStats[s].first);
            EXPECT_EQ(a.componentStats[s].second,
                      b.componentStats[s].second);
        }
    }

    // And the serialisation itself is stable: write -> parse ->
    // write reproduces the same document.
    std::ostringstream again;
    SweepResultWriter::write(again, parsed);
    EXPECT_EQ(out.str(), again.str());
}

TEST(Sweep, RejectsForeignJsonDocuments)
{
    EXPECT_THROW(
        SweepResultWriter::fromJson(JsonValue::parse("{}")),
        std::invalid_argument);
    EXPECT_THROW(SweepResultWriter::fromJson(JsonValue::parse(
                     "{\"schema\": \"other\", \"runs\": []}")),
                 std::invalid_argument);
}

} // namespace
} // namespace pomtlb
