/**
 * @file
 * Tests for the parallel sweep subsystem (sim/sweep.hh) and the one
 * campaign runner it executes on (SweepService, sim/sweep_cache.hh):
 * request builder semantics, spec expansion, determinism of the
 * worker pool against the serial path and ordering under different
 * worker counts for both job kinds (sweep requests and scenarios),
 * exception propagation, and the JSON result round trip. Compiled
 * into pomtlb_focused_tests too, so the pool runs under TSan.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "campaign_fixtures.hh"
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
    SweepServiceOptions options;
    options.jobs = 4;
    SweepService service(options);
    EXPECT_TRUE(service.run(SweepSpec()).at("runs").elements().empty());
    EXPECT_TRUE(service.run(std::vector<ExperimentRequest>{})
                    .at("runs")
                    .elements()
                    .empty());
    EXPECT_EQ(service.stats().executed, 0u);
}

TEST(Sweep, ParallelIsBitIdenticalToSerial)
{
    // ScenarioCampaign.RerunByteIdenticalAcrossCacheAndJobs checks
    // the same guarantee for scenario jobs.
    expectParallelAndWarmRunsMatchSerial(sweepCampaign());
}

TEST(Sweep, OrderingHoldsForAnyWorkerCount)
{
    // Jobs finish in any order, but reports, emitted entries and
    // document runs always come in request order.
    for (const TestCampaign &campaign : campaignsOfEveryKind()) {
        for (const unsigned jobs : {1u, 2u, 8u}) {
            SCOPED_TRACE(campaign.kind + " jobs=" +
                         std::to_string(jobs));
            SweepServiceOptions options;
            options.jobs = jobs;
            std::vector<std::string> emitted;
            const JsonValue document =
                SweepService(options).run(
                    campaign.schema, campaign.jobs,
                    [&](const SweepJobReport &report,
                        const JsonValue &run) {
                        ASSERT_EQ(report.index, emitted.size());
                        EXPECT_EQ(report.key,
                                  campaign.jobs[report.index].key);
                        EXPECT_EQ(report.hash,
                                  campaign.jobs[report.index].hash);
                        emitted.push_back(run.dump(0));
                    });
            EXPECT_EQ(document.at("schema").asString(),
                      campaign.schema);
            const JsonValue &runs = document.at("runs");
            ASSERT_EQ(runs.size(), campaign.jobs.size());
            ASSERT_EQ(emitted.size(), campaign.jobs.size());
            for (std::size_t i = 0; i < campaign.jobs.size(); ++i) {
                EXPECT_EQ(entryKey(runs.at(i)), campaign.jobs[i].key)
                    << "index=" << i;
                EXPECT_EQ(runs.at(i).dump(0), emitted[i]);
            }
        }
    }
}

TEST(Sweep, WorkerCountIsCappedButNeverZero)
{
    EXPECT_EQ(campaignWorkers(1, 8), 1u);
    EXPECT_EQ(campaignWorkers(7, 8), 7u);
    EXPECT_EQ(campaignWorkers(7, 3), 3u);
    EXPECT_GE(campaignWorkers(0, 8), 1u);
    EXPECT_LE(campaignWorkers(0, 8), 8u);
    EXPECT_EQ(campaignWorkers(4, 0), 1u);
}

TEST(Sweep, FailingJobPropagatesDeterministically)
{
    // Two bad jobs in the middle of each batch: every pending job
    // still runs, and the failure of the lowest pending index (jobs
    // run in hash order) is rethrown at any worker count.
    const ExperimentConfig config = campaignConfig();
    const std::vector<TestCampaign> campaigns = {
        {"sweep", kSweepSchemaV1,
         experimentJobs(
             {ExperimentRequest::of("gups", "Baseline", config),
              ExperimentRequest::of("no-such-benchmark", "POM-TLB",
                                    config),
              ExperimentRequest::of("also-missing", "TSB", config),
              ExperimentRequest::of("mcf", "Baseline", config)})},
        {"scenario", kScenarioSchemaV1,
         scenarioJobs({campaignScenario(2),
                       campaignScenario(4, "no-such-scheme"),
                       campaignScenario(8, "also-missing"),
                       campaignScenario(8)})},
    };
    for (const TestCampaign &campaign : campaigns) {
        const CampaignJob &first =
            campaign.jobs[campaign.jobs[1].hash < campaign.jobs[2].hash
                              ? 1
                              : 2];
        std::string expected;
        try {
            first.produce();
        } catch (const std::invalid_argument &error) {
            expected = error.what();
        }
        ASSERT_FALSE(expected.empty());
        for (const unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(campaign.kind + " jobs=" +
                         std::to_string(jobs));
            SweepServiceOptions options;
            options.jobs = jobs;
            SweepService service(options);
            try {
                service.run(campaign.schema, campaign.jobs);
                FAIL() << "expected std::invalid_argument";
            } catch (const std::invalid_argument &error) {
                EXPECT_EQ(error.what(), expected);
            }
            EXPECT_EQ(service.stats().executed, 2u);
        }
    }
}

TEST(Sweep, CompareSchemesParallelMatchesSerial)
{
    // compareSchemes is one campaign of the runner; fanning it out
    // must not change a single digit of a summary or a delta.
    const auto digits = [](const BenchmarkComparison &comparison) {
        std::string text;
        for (const auto &[scheme, summary] : comparison.runs) {
            ExperimentResult result;
            result.request =
                ExperimentRequest::of(comparison.benchmark, scheme);
            result.summary = summary;
            const SchemeDelta &delta = comparison.delta(scheme);
            text += SweepResultWriter::entryToJson(result).dump(0) +
                    JsonValue(delta.costRatio).dump(0) + " " +
                    JsonValue(delta.improvementPct).dump(0) + "\n";
        }
        return text;
    };
    const BenchmarkProfile &gups = ProfileRegistry::byName("gups");
    EXPECT_EQ(digits(compareSchemes(gups, tinyConfig(), 1)),
              digits(compareSchemes(gups, tinyConfig(), 4)));
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
 * must never bleed counters into each other. Eight jobs that differ
 * only in their label (so none is deduplicated) run on four workers
 * and must each report exactly the stats a lone serial run reports.
 * This test is also compiled into pomtlb_focused_tests so CI
 * exercises it under TSan.
 */
TEST(Sweep, ComponentStatsIsolatedAcrossWorkerThreads)
{
    const ExperimentRequest request =
        ExperimentRequest::of("gups", "POM-TLB",
                              tinyConfig())
            .withComponentStats();
    ExperimentResult serial = runExperiment(request);
    ASSERT_GT(serial.componentStats.size(), 10u);
    serial.wallSeconds = 0.0;
    const JsonValue expected = SweepResultWriter::entryToJson(serial);

    std::vector<ExperimentRequest> requests;
    for (int copy = 0; copy < 8; ++copy)
        requests.push_back(ExperimentRequest(request).withLabel(
            "copy" + std::to_string(copy)));
    SweepServiceOptions options;
    options.jobs = 4;
    SweepService service(options);
    const JsonValue document = service.run(requests);
    EXPECT_EQ(service.stats().executed, requests.size());
    ASSERT_EQ(document.at("runs").size(), requests.size());
    for (const JsonValue &entry : document.at("runs").elements()) {
        EXPECT_EQ(entry.at("component_stats").dump(0),
                  expected.at("component_stats").dump(0));
        EXPECT_EQ(entry.at("summary").dump(0),
                  expected.at("summary").dump(0));
    }
}

TEST(Sweep, JsonRoundTrip)
{
    std::vector<ExperimentResult> results;
    for (const ExperimentRequest &request :
         SweepSpec()
             .withBase(tinyConfig())
             .withBenchmarks({"gups"})
             .withSchemes(std::vector<std::string>{"Baseline",
                                                   "POM-TLB"})
             .withComponentStats()
             .expand())
        results.push_back(runExperiment(request));

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
