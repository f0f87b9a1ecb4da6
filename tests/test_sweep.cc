/**
 * @file
 * Tests for the parallel sweep subsystem (sim/sweep.hh) and the one
 * campaign runner it executes on (SweepService, sim/sweep_cache.hh):
 * request builder semantics, spec expansion, determinism of the
 * worker pool against the serial path and ordering under different
 * worker counts for both job kinds (sweep requests and scenarios),
 * exception propagation, the JSON result round trip, and the trace
 * enumeration the jobs of one group share. Compiled into
 * pomtlb_focused_tests too, so the pool and the shared enumeration
 * run under TSan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>

#include "campaign_fixtures.hh"
#include "sim/machine.hh"
#include "sim/sweep.hh"
#include "trace/tracepack.hh"

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

/** A cross product of four benchmarks and two schemes. */
SweepSpec
tinySpec()
{
    return SweepSpec()
        .withBase(tinyConfig())
        .withBenchmarks({"gups", "mcf", "canneal", "astar"})
        .withSchemes(std::vector<std::string>{"Baseline", "pom"});
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
    // benchmark-major, then scheme, with aliases canonicalised.
    EXPECT_EQ(requests[0].key(), "gups/Baseline");
    EXPECT_EQ(requests[1].key(), "gups/POM-TLB");
    EXPECT_EQ(requests[2].key(), "mcf/Baseline");
    EXPECT_EQ(requests[3].key(), "mcf/POM-TLB");
    EXPECT_EQ(requests[4].key(), "canneal/Baseline");
    EXPECT_EQ(requests[7].key(), "astar/POM-TLB");
    // Every request starts from the base configuration.
    for (const ExperimentRequest &request : requests) {
        EXPECT_EQ(request.config.engine.refsPerCore, 2000u);
        EXPECT_TRUE(request.label.empty());
    }
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
    // still runs, and the failure of the lowest job hash is rethrown
    // at any worker count, whatever order the groups ran in.
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
            first.produce(nullptr);
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
    const ExperimentResult serial = runExperiment(request);
    ASSERT_GT(serial.componentStats.size(), 10u);
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
    const std::vector<ExperimentRequest> requests =
        SweepSpec()
            .withBase(tinyConfig())
            .withBenchmarks({"gups"})
            .withSchemes(std::vector<std::string>{"Baseline",
                                                  "POM-TLB"})
            .withComponentStats()
            .expand();
    std::vector<ExperimentResult> results;
    for (const ExperimentRequest &request : requests)
        results.push_back(runExperiment(request));

    // The document a campaign of the same requests writes.
    SweepService service(SweepServiceOptions{});
    const std::string text = service.run(requests).dump(2);

    const std::vector<ExperimentResult> parsed =
        SweepResultWriter::fromJson(JsonValue::parse(text));
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
        ASSERT_EQ(a.componentStats.size(), b.componentStats.size());
        for (std::size_t s = 0; s < a.componentStats.size(); ++s) {
            EXPECT_EQ(a.componentStats[s].first,
                      b.componentStats[s].first);
            EXPECT_EQ(a.componentStats[s].second,
                      b.componentStats[s].second);
        }
    }

    // And the serialisation itself is stable: the parsed entries
    // write the document's runs again.
    JsonValue runs = JsonValue::array();
    for (const ExperimentResult &result : parsed)
        runs.push(SweepResultWriter::entryToJson(result));
    EXPECT_EQ(runs.dump(2), JsonValue::parse(text).at("runs").dump(2));
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

// ----------------------------------------------------------------
// Shared trace enumerations
// ----------------------------------------------------------------

/** @p request run alone, as its campaign entry. */
std::string
loneEntry(const ExperimentRequest &request,
          EnumerationShare *share = nullptr)
{
    return SweepResultWriter::entryToJson(runExperiment(request, share))
        .dump(0);
}

/** @p spec run on a standalone engine, as its scenario document. */
std::string
loneEntry(const ScenarioSpec &spec, EnumerationShare *share = nullptr)
{
    Machine machine(spec.system, spec.scheme);
    ScenarioEngine engine(machine, spec);
    const ScenarioResult result = engine.run(share);
    return buildScenarioDocument(machine, spec, result).dump(0);
}

/**
 * Wraps campaign jobs to watch their shares: around every shared job
 * it counts the shares that hold an enumeration, and it keeps a weak
 * pointer to each enumeration a job saw published.
 */
struct ShareWatch
{
    std::mutex lock;
    std::set<EnumerationShare *> shares;
    std::size_t maxLive = 0;
    std::vector<std::weak_ptr<const StreamEnumeration>> seen;

    void
    sample()
    {
        std::size_t live = 0;
        for (EnumerationShare *share : shares)
            live += share->published() ? 1 : 0;
        maxLive = std::max(maxLive, live);
    }

    std::vector<CampaignJob>
    watch(std::vector<CampaignJob> jobs)
    {
        for (CampaignJob &job : jobs) {
            job.produce = [this, produce = job.produce](
                              EnumerationShare *share) {
                if (share != nullptr) {
                    const std::lock_guard<std::mutex> guard(lock);
                    shares.insert(share);
                    sample();
                }
                JsonValue entry = produce(share);
                if (share != nullptr) {
                    const std::lock_guard<std::mutex> guard(lock);
                    sample();
                    seen.push_back(share->published());
                }
                return entry;
            };
        }
        return jobs;
    }
};

/**
 * Run @p jobs as one campaign at 1 and 4 workers: every entry must
 * equal @p lone (the same request run alone), one enumeration is
 * built per group and reused by the group's other jobs, no more
 * enumerations are alive at once than there are workers, and none
 * outlives the campaign.
 */
void
expectGroupsShareAndMatchLoneRuns(const char *schema,
                                  const std::vector<CampaignJob> &jobs,
                                  const std::vector<std::string> &lone,
                                  std::size_t groups)
{
    for (const unsigned workers : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(workers));
        SweepServiceOptions options;
        options.jobs = workers;
        SweepService service(options);
        ShareWatch watch;
        const JsonValue document =
            service.run(schema, watch.watch(jobs));
        const JsonValue &runs = document.at("runs");
        ASSERT_EQ(runs.size(), lone.size());
        for (std::size_t i = 0; i < lone.size(); ++i)
            EXPECT_EQ(runs.at(i).dump(0), lone[i]) << "index=" << i;
        EXPECT_EQ(service.stats().executed, jobs.size());
        EXPECT_EQ(service.stats().enumerations, groups);
        EXPECT_EQ(service.stats().enumerationReuses,
                  jobs.size() - groups);
        EXPECT_EQ(watch.shares.size(), groups);
        EXPECT_GE(watch.maxLive, 1u);
        EXPECT_LE(watch.maxLive, workers);
        ASSERT_EQ(watch.seen.size(), jobs.size());
        for (const auto &enumeration : watch.seen)
            EXPECT_TRUE(enumeration.expired());
    }
}

TEST(SharedEnumeration, AFailedJobStillReleasesItsGroup)
{
    // In each group one job fails before it reaches the enumeration;
    // the service still releases the group when its last job
    // completes: on one worker, the second group's enumeration must
    // not meet the first's.
    ShareWatch watch;
    const ExperimentConfig config = campaignConfig();
    const std::vector<CampaignJob> jobs =
        watch.watch(experimentJobs(
            {ExperimentRequest::of("mcf", "Baseline", config),
             ExperimentRequest::of("mcf", "no-such-scheme", config),
             ExperimentRequest::of("gups", "Baseline", config),
             ExperimentRequest::of("gups", "also-missing", config)}));
    SweepService service{SweepServiceOptions{}};
    EXPECT_THROW(service.run(kSweepSchemaV1, jobs),
                 std::invalid_argument);
    EXPECT_EQ(service.stats().executed, 2u);
    EXPECT_EQ(watch.shares.size(), 2u);
    EXPECT_EQ(watch.maxLive, 1u);
    ASSERT_EQ(watch.seen.size(), 2u);
    for (const auto &enumeration : watch.seen)
        EXPECT_TRUE(enumeration.expired());
}

TEST(SharedEnumeration, SweepGroupsMatchLoneRuns)
{
    // Two groups (benchmarks) of three schemes.
    std::vector<ExperimentRequest> requests;
    std::vector<std::string> lone;
    for (const char *benchmark : {"gups", "mcf"}) {
        for (const char *scheme : {"Baseline", "POM-TLB", "TSB"}) {
            requests.push_back(ExperimentRequest::of(
                benchmark, scheme, campaignConfig()));
            lone.push_back(loneEntry(requests.back()));
        }
    }
    expectGroupsShareAndMatchLoneRuns(
        kSweepSchemaV1, experimentJobs(requests), lone, 2);
}

TEST(SharedEnumeration, ScenarioGroupsMatchLoneRuns)
{
    // Two groups (tenant counts) of three schemes.
    std::vector<ScenarioSpec> specs;
    std::vector<std::string> lone;
    for (const unsigned tenants : {2u, 4u}) {
        for (const char *scheme : {"POM-TLB", "Baseline", "TSB"}) {
            specs.push_back(campaignScenario(tenants, scheme));
            lone.push_back(loneEntry(specs.back()));
        }
    }
    expectGroupsShareAndMatchLoneRuns(
        kScenarioSchemaV1, scenarioJobs(specs), lone, 2);
}

TEST(SharedEnumeration, LiveEnumerationsNeverExceedTheWorkers)
{
    // Five groups on two workers: a group's enumeration must go
    // before a third group's is built.
    std::vector<ExperimentRequest> requests;
    for (const char *benchmark :
         {"gups", "mcf", "canneal", "astar", "lbm"}) {
        for (const char *scheme : {"Baseline", "POM-TLB"})
            requests.push_back(ExperimentRequest::of(
                benchmark, scheme, campaignConfig()));
    }
    for (const unsigned workers : {1u, 2u}) {
        SCOPED_TRACE("jobs=" + std::to_string(workers));
        SweepServiceOptions options;
        options.jobs = workers;
        SweepService service(options);
        ShareWatch watch;
        service.run(kSweepSchemaV1, watch.watch(experimentJobs(requests)));
        EXPECT_EQ(service.stats().enumerations, 5u);
        EXPECT_EQ(watch.shares.size(), 5u);
        EXPECT_LE(watch.maxLive, workers);
        for (const auto &enumeration : watch.seen)
            EXPECT_TRUE(enumeration.expired());
    }
}

/**
 * Whether @p second reuses the enumeration @p first published through
 * one share. Either way @p second's entry must equal its lone run.
 */
template <typename Job>
bool
reusesEnumeration(const Job &first, const Job &second)
{
    EnumerationShare share;
    loneEntry(first, &share);
    EXPECT_EQ(loneEntry(second, &share), loneEntry(second));
    EXPECT_EQ(share.builds() + share.reuses(), 2u);
    return share.reuses() == 1;
}

TEST(SharedEnumeration, EveryStreamInputSeparatesEnumerations)
{
    const ExperimentRequest base =
        ExperimentRequest::of("mcf", "Baseline", campaignConfig());
    // Only the scheme differs: the second job reuses.
    const ExperimentRequest pom =
        ExperimentRequest::of("mcf", "POM-TLB", campaignConfig());
    EXPECT_TRUE(reusesEnumeration(base, pom));

    // Each input of stream compilation, changed alone.
    const auto changed =
        [&](const std::function<void(ExperimentConfig &)> &apply) {
            return ExperimentRequest(pom).tweak(apply);
        };
    EXPECT_FALSE(reusesEnumeration(
        base, changed([](ExperimentConfig &c) { c.engine.seed = 7; })))
        << "engine seed";
    EXPECT_FALSE(reusesEnumeration(
        base, changed([](ExperimentConfig &c) { c.system.seed = 7; })))
        << "system seed";
    EXPECT_FALSE(reusesEnumeration(base, ExperimentRequest(pom).withCores(4)))
        << "cores";
    EXPECT_FALSE(
        reusesEnumeration(base, ExperimentRequest(pom).withRefs(1001, 500)))
        << "refs";
    EXPECT_FALSE(
        reusesEnumeration(base, ExperimentRequest(pom).withRefs(1000, 501)))
        << "warmup";
    EXPECT_FALSE(reusesEnumeration(base, changed([](ExperimentConfig &c) {
                     c.engine.coreVm = {1, 2};
                 })))
        << "coreVm";
    EXPECT_FALSE(reusesEnumeration(base, changed([](ExperimentConfig &c) {
                     c.engine.pidBase = 5;
                 })))
        << "pidBase";

    // Overcommit and footprint shrink or grow a tenant's page pool.
    ScenarioSpec scenario;
    scenario.system = campaignConfig().system;
    scenario.engine = campaignConfig().engine;
    scenario.withTenant(TenantSpec{}.withBenchmark("mcf").withVcpus(2));
    ScenarioSpec baseline = scenario;
    baseline.scheme = "Baseline";
    EXPECT_TRUE(reusesEnumeration(scenario, baseline));
    ScenarioSpec overcommitted = baseline;
    overcommitted.overcommitFactor = 2.0;
    EXPECT_FALSE(reusesEnumeration(scenario, overcommitted))
        << "overcommit";
    ScenarioSpec smaller = baseline;
    smaller.tenants[0].withFootprint(Addr{64} << 20);
    EXPECT_FALSE(reusesEnumeration(scenario, smaller)) << "footprint";

    // Two packs of the same shape that differ in one record.
    ScratchDir scratch("shared-enumeration-packs");
    const auto writePack = [&](const std::string &path,
                               Addr last_vaddr) {
        TracePackWriter writer(path, {"core0"});
        TraceRecord record;
        for (Addr page = 0; page < 64; ++page) {
            record.vaddr = (Addr{1} << 40) + (page << 12);
            writer.append(0, record);
        }
        record.vaddr = last_vaddr;
        writer.append(0, record);
        writer.close();
    };
    writePack(scratch.sub("a.pack"), Addr{1} << 41);
    writePack(scratch.sub("b.pack"), (Addr{1} << 41) + 4096);
    const auto replaying = [&](const ExperimentRequest &request,
                               const std::string &pack) {
        return ExperimentRequest(request).tweak(
            [&](ExperimentConfig &c) { c.engine.tracePackPath = pack; });
    };
    EXPECT_TRUE(reusesEnumeration(replaying(base, scratch.sub("a.pack")),
                                  replaying(pom, scratch.sub("a.pack"))));
    EXPECT_FALSE(reusesEnumeration(replaying(base, scratch.sub("a.pack")),
                                   replaying(pom, scratch.sub("b.pack"))))
        << "pack content";
}

TEST(SharedEnumeration, MismatchedGroupIsReEnumeratedNotReplayed)
{
    // A grouping mistake: two jobs that compile different streams
    // (different seeds) deliberately put in one group. The second
    // must enumerate its own streams, not replay the first's.
    const std::vector<ExperimentRequest> requests = {
        ExperimentRequest::of("mcf", "Baseline", campaignConfig()),
        ExperimentRequest::of("mcf", "POM-TLB", campaignConfig())
            .withSeed(7)};
    std::vector<CampaignJob> jobs = experimentJobs(requests);
    ASSERT_NE(jobs[0].group, jobs[1].group);
    jobs[1].group = jobs[0].group;
    for (const unsigned workers : {1u, 2u}) {
        SCOPED_TRACE("jobs=" + std::to_string(workers));
        SweepServiceOptions options;
        options.jobs = workers;
        SweepService service(options);
        const JsonValue document = service.run(kSweepSchemaV1, jobs);
        for (std::size_t i = 0; i < requests.size(); ++i) {
            EXPECT_EQ(document.at("runs").at(i).dump(0),
                      loneEntry(requests[i]));
        }
        EXPECT_EQ(service.stats().enumerations, 2u);
        EXPECT_EQ(service.stats().enumerationReuses, 0u);
    }
}

} // namespace
} // namespace pomtlb
