/**
 * @file
 * Small campaigns of both job kinds SweepService runs — sweep
 * requests and consolidation scenarios — plus a scratch directory
 * for their caches and journals, and the runner guarantees checked
 * for each kind: every guarantee of the one campaign loop holds for
 * both of them.
 */

#ifndef POMTLB_TESTS_CAMPAIGN_FIXTURES_HH
#define POMTLB_TESTS_CAMPAIGN_FIXTURES_HH

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/scenario.hh"
#include "sim/sweep_cache.hh"

namespace pomtlb
{

/** A unique scratch directory, recursively removed on destruction. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &tag)
    {
        namespace fs = std::filesystem;
        path = (fs::temp_directory_path() /
                ("pomtlb-" + tag + "-" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { std::filesystem::remove_all(path); }

    std::string sub(const std::string &name) const
    {
        return (std::filesystem::path(path) / name).string();
    }

    std::string path;
};

/** One campaign of one job kind, ready for SweepService::run(). */
struct TestCampaign
{
    std::string kind;   /**< "sweep" or "scenario". */
    const char *schema; /**< Schema of the campaign document. */
    std::vector<CampaignJob> jobs;
};

/** The configuration every fixture job runs at: 2 cores, short. */
inline ExperimentConfig
campaignConfig()
{
    ExperimentConfig config;
    config.system.numCores = 2;
    config.engine.refsPerCore = 1000;
    config.engine.warmupRefsPerCore = 500;
    return config;
}

/** A churn + migration + storm scenario of @p tenants tenants. */
inline ScenarioSpec
campaignScenario(unsigned tenants, std::string scheme = "POM-TLB")
{
    const ExperimentConfig config = campaignConfig();
    ScenarioSpec spec;
    spec.name = "churn-" + std::to_string(tenants) + "t";
    spec.scheme = std::move(scheme);
    spec.system = config.system;
    spec.engine = config.engine;
    spec.tenantCount = tenants;
    spec.tenantBenchmarks = {"mcf", "gups"};
    spec.migrationPagesPerArrival = 2;
    spec.storm.intervalRefs = 400;
    spec.storm.pagesPerBurst = 4;
    return spec;
}

/** A sweep campaign of four jobs: two benchmarks, two schemes. */
inline TestCampaign
sweepCampaign()
{
    const ExperimentConfig config = campaignConfig();
    std::vector<ExperimentRequest> requests;
    for (const char *benchmark : {"gups", "mcf"}) {
        for (const char *scheme : {"Baseline", "POM-TLB"})
            requests.push_back(
                ExperimentRequest::of(benchmark, scheme, config));
    }
    return {"sweep", kSweepSchemaV1, experimentJobs(requests)};
}

/** A scenario campaign of three scenarios: 2, 4 and 8 tenants. */
inline TestCampaign
scenarioCampaign()
{
    return {"scenario", kScenarioSchemaV1,
            scenarioJobs({campaignScenario(2), campaignScenario(4),
                          campaignScenario(8)})};
}

/** One campaign of each job kind. */
inline std::vector<TestCampaign>
campaignsOfEveryKind()
{
    return {sweepCampaign(), scenarioCampaign()};
}

/**
 * The runner's byte-identity guarantee for @p campaign: a cache-less
 * serial run is the reference; several workers with a cache, a
 * journal and an emit callback produce the same bytes, and so does a
 * warm rerun served from that cache without executing anything.
 */
inline void
expectParallelAndWarmRunsMatchSerial(const TestCampaign &campaign)
{
    SCOPED_TRACE(campaign.kind);
    ScratchDir scratch("parallel-" + campaign.kind);
    const std::size_t count = campaign.jobs.size();
    const std::string serial = SweepService(SweepServiceOptions{})
                                   .run(campaign.schema, campaign.jobs)
                                   .dump(2);

    SweepServiceOptions options;
    options.cacheDir = scratch.sub("cache");
    options.journalPath = scratch.sub("campaign.journal");
    options.jobs = 4;
    ASSERT_GE(campaignWorkers(options.jobs, count), 2u);
    std::size_t emitted = 0;
    SweepService parallel(options);
    EXPECT_EQ(parallel
                  .run(campaign.schema, campaign.jobs,
                       [&](const SweepJobReport &report,
                           const JsonValue &) {
                           EXPECT_EQ(report.index, emitted++);
                           EXPECT_GT(report.wallSeconds, 0.0);
                       })
                  .dump(2),
              serial);
    EXPECT_EQ(emitted, count);
    EXPECT_EQ(parallel.stats().executed, count);

    options.journalPath.clear();
    SweepService warm(options);
    EXPECT_EQ(warm.run(campaign.schema, campaign.jobs).dump(2), serial);
    EXPECT_EQ(warm.stats().executed, 0u);
    EXPECT_EQ(warm.stats().cacheHits, count);
}

/**
 * The runner's crash/resume guarantee for @p campaign: a campaign
 * killed right after its first journal append resumes by replaying
 * that job and executing only the rest, and the resumed document is
 * byte-identical to an uninterrupted run in a pristine cache.
 */
inline void
expectKilledCampaignResumesByteIdentical(const TestCampaign &campaign)
{
    SCOPED_TRACE(campaign.kind);
    ScratchDir scratch("service-crash-" + campaign.kind);
    SweepServiceOptions options;
    options.cacheDir = scratch.sub("cache");
    options.journalPath = scratch.sub("campaign.journal");

    // Child: run the campaign with the crash hook armed — the
    // process vanishes (status 137, no flushes, no destructors)
    // right after the first journal append, like a SIGKILL landing
    // mid-campaign.
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        SweepServiceOptions crashing = options;
        crashing.crashAfterAppends = 1;
        SweepService(crashing).run(campaign.schema, campaign.jobs);
        std::_Exit(0); // not reached: the hook fires first
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137);

    // Parent: resume. The journaled job replays, only the remainder
    // executes.
    SweepService resumed(options);
    const JsonValue document = resumed.run(campaign.schema, campaign.jobs);
    EXPECT_EQ(resumed.stats().journalHits, 1u);
    EXPECT_EQ(resumed.stats().executed, campaign.jobs.size() - 1);

    SweepServiceOptions pristine;
    pristine.cacheDir = scratch.sub("cache-reference");
    EXPECT_EQ(document.dump(2), SweepService(pristine)
                                    .run(campaign.schema, campaign.jobs)
                                    .dump(2));
}

/** The CampaignJob::key of an entry of either kind, read from it. */
inline std::string
entryKey(const JsonValue &run)
{
    if (run.has("scenario")) {
        const JsonValue &identity = run.at("scenario");
        return identity.at("name").asString() + "/" +
               identity.at("scheme").asString();
    }
    std::string key =
        run.at("benchmark").asString() + "/" + run.at("scheme").asString();
    if (!run.at("label").asString().empty())
        key += "/" + run.at("label").asString();
    return key;
}

} // namespace pomtlb

#endif // POMTLB_TESTS_CAMPAIGN_FIXTURES_HH
