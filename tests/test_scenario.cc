/**
 * @file
 * Scenario-engine tests: the single-tenant golden equivalence (a
 * degenerate scenario reproduces the classic engine byte-for-byte),
 * spec resolution (generator expansion, churn schedules, overcommit,
 * VM/ASID auto-binding), lifecycle events (arrivals, departures,
 * migrations, storms), per-tenant QoS accounting, and the
 * `pomtlb-scenario-v1` export.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/scenario.hh"
#include "sim/stats_export.hh"
#include "test_paths.hh"

namespace pomtlb
{
namespace
{

SystemConfig
smallSystem(unsigned cores = 2)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = cores;
    return config;
}

EngineConfig
quickEngine()
{
    EngineConfig config;
    config.refsPerCore = 2000;
    config.warmupRefsPerCore = 1000;
    return config;
}

/** A one-tenant scenario whose vCPUs cover every core. */
ScenarioSpec
degenerateSpec(const std::string &benchmark, unsigned cores = 2)
{
    ScenarioSpec spec;
    spec.name = "degenerate";
    spec.scheme = "POM-TLB";
    spec.system = smallSystem(cores);
    spec.engine = quickEngine();
    TenantSpec tenant;
    tenant.benchmark = benchmark;
    tenant.vcpus = cores;
    spec.tenants.push_back(tenant);
    return spec;
}

std::string
legacyStatsDump(const std::string &benchmark, unsigned cores,
                const EngineConfig &config)
{
    Machine machine(smallSystem(cores), std::string("POM-TLB"));
    SimulationEngine engine(machine,
                            ProfileRegistry::byName(benchmark),
                            config);
    const RunResult result = engine.run();
    return buildStatsDocument(machine, result, benchmark).dump(2);
}

std::string
scenarioStatsDump(const ScenarioSpec &spec)
{
    Machine machine(spec.system, spec.scheme);
    const ScenarioResult result = runScenario(machine, spec);
    return buildScenarioDocument(machine, spec, result)
        .at("stats")
        .dump(2);
}

// ---------------------------------------------------------------
// The golden guarantee: one always-resident tenant covering every
// core IS the classic run, byte for byte — replaying the
// pre-population capture or, with pre-population off, streaming
// records straight from the sources, with and without periodic
// shootdowns.
// ---------------------------------------------------------------

/** ((benchmark, cores), prepopulate, shootdown interval in refs). */
using LegacyCase =
    std::tuple<std::tuple<std::string, unsigned>, bool, std::uint64_t>;

class SingleTenantLegacy : public ::testing::TestWithParam<LegacyCase>
{
};

TEST_P(SingleTenantLegacy, MatchesClassicRunByteForByte)
{
    const auto &[workload, prepopulate, interval] = GetParam();
    const auto &[benchmark, cores] = workload;
    EngineConfig config = quickEngine();
    config.prepopulate = prepopulate;
    config.shootdownIntervalRefs = interval;
    ScenarioSpec spec = degenerateSpec(benchmark, cores);
    spec.engine = config;
    EXPECT_EQ(scenarioStatsDump(spec),
              legacyStatsDump(benchmark, cores, config));
}

// canneal is multithreaded: every vCPU shares one ASID, the other
// pid-assignment branch of both engines.
INSTANTIATE_TEST_SUITE_P(
    Scenario, SingleTenantLegacy,
    ::testing::Combine(
        ::testing::Values(std::make_tuple(std::string("mcf"), 2u),
                          std::make_tuple(std::string("canneal"), 2u),
                          std::make_tuple(std::string("gups"), 4u)),
        ::testing::Bool(),
        ::testing::Values(std::uint64_t{0}, std::uint64_t{500})),
    [](const ::testing::TestParamInfo<LegacyCase> &info) {
        const auto &workload = std::get<0>(info.param);
        return std::get<0>(workload) + "_c" +
               std::to_string(std::get<1>(workload)) +
               (std::get<1>(info.param) ? "_captured" : "_streamed") +
               "_sd" + std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------
// Spec resolution
// ---------------------------------------------------------------

TEST(Scenario, ResolvedTenantsAutoAssignVmAndAsid)
{
    ScenarioSpec spec;
    spec.system = smallSystem();
    spec.engine = quickEngine();
    spec.tenants.push_back(
        TenantSpec{}.withBenchmark("mcf").withVcpus(2));
    spec.tenants.push_back(
        TenantSpec{}.withBenchmark("gups").withVcpus(2));

    const std::vector<ResolvedTenant> resolved =
        spec.resolvedTenants();
    ASSERT_EQ(resolved.size(), 2u);
    EXPECT_EQ(resolved[0].name, "t0");
    EXPECT_EQ(resolved[0].vm, VmId{1});
    EXPECT_EQ(resolved[0].pidBase, ProcessId{1});
    EXPECT_EQ(resolved[1].vm, VmId{2});
    // mcf is single-threaded: its two vCPUs claim pids 1 and 2,
    // so the next tenant starts at 3.
    EXPECT_EQ(resolved[1].pidBase, ProcessId{3});
    EXPECT_EQ(resolved[0].departureRefs, 3000u);
}

TEST(Scenario, GeneratorExpandsChurnSchedule)
{
    ScenarioSpec spec;
    spec.system = smallSystem(2);
    spec.engine = quickEngine();
    spec.tenantCount = 6;
    spec.residentPerCore = 1;
    spec.tenantBenchmarks = {"mcf", "gups"};

    const std::vector<ResolvedTenant> resolved =
        spec.resolvedTenants();
    ASSERT_EQ(resolved.size(), 6u);
    // Tenant t homes on core t % 2: core 0 runs {0, 2, 4}, core 1
    // runs {1, 3, 5}. With one resident at a time over a 3000-ref
    // timeline, the churn interval is 3000 / 3 = 1000.
    EXPECT_EQ(resolved[0].arrivalRefs, 0u);
    EXPECT_EQ(resolved[0].departureRefs, 1000u);
    EXPECT_EQ(resolved[2].arrivalRefs, 1000u);
    EXPECT_EQ(resolved[2].departureRefs, 2000u);
    EXPECT_EQ(resolved[4].arrivalRefs, 2000u);
    EXPECT_EQ(resolved[4].departureRefs, 3000u);
    // Benchmarks cycle through the list.
    EXPECT_EQ(resolved[0].benchmark, "mcf");
    EXPECT_EQ(resolved[1].benchmark, "gups");
    EXPECT_EQ(resolved[2].benchmark, "mcf");
}

TEST(Scenario, OvercommitShrinksEffectiveFootprints)
{
    ScenarioSpec spec;
    spec.system = smallSystem();
    spec.engine = quickEngine();
    spec.overcommitFactor = 2.0;
    spec.tenants.push_back(TenantSpec{}
                               .withBenchmark("mcf")
                               .withVcpus(2)
                               .withFootprint(Addr{64} << 20));

    const std::vector<ResolvedTenant> resolved =
        spec.resolvedTenants();
    ASSERT_EQ(resolved.size(), 1u);
    EXPECT_EQ(resolved[0].footprintBytes, Addr{32} << 20);
}

TEST(Scenario, ExplicitListAndGeneratorHashIdentically)
{
    ScenarioSpec generated;
    generated.system = smallSystem(2);
    generated.engine = quickEngine();
    generated.tenantCount = 2;
    generated.tenantBenchmarks = {"mcf"};

    ScenarioSpec explicit_list;
    explicit_list.system = smallSystem(2);
    explicit_list.engine = quickEngine();
    explicit_list.tenants.push_back(
        TenantSpec{}.withName("t0").withBenchmark("mcf"));
    explicit_list.tenants.push_back(
        TenantSpec{}.withName("t1").withBenchmark("mcf"));

    EXPECT_EQ(scenarioHash(generated),
              scenarioHash(explicit_list));
}

TEST(Scenario, HashChangesWithConsolidationKnobs)
{
    const ScenarioSpec base = degenerateSpec("mcf");
    ScenarioSpec storm = base;
    storm.storm.intervalRefs = 500;
    ScenarioSpec overcommit = base;
    overcommit.overcommitFactor = 1.5;
    EXPECT_NE(scenarioHash(base), scenarioHash(storm));
    EXPECT_NE(scenarioHash(base), scenarioHash(overcommit));
    EXPECT_EQ(scenarioHash(base), scenarioHash(degenerateSpec("mcf")));
}

TEST(Scenario, BenchmarkLabelJoinsDistinctWorkloads)
{
    ScenarioSpec spec;
    spec.system = smallSystem(2);
    spec.engine = quickEngine();
    spec.tenants.push_back(TenantSpec{}.withBenchmark("mcf"));
    spec.tenants.push_back(TenantSpec{}.withBenchmark("gups"));
    EXPECT_EQ(scenarioBenchmarkLabel(spec), "mcf+gups");
    EXPECT_EQ(scenarioBenchmarkLabel(degenerateSpec("mcf")), "mcf");
}

// ---------------------------------------------------------------
// Lifecycle events and per-tenant accounting
// ---------------------------------------------------------------

TEST(Scenario, ChurnRunsDepartTenantsAndAttributeRefs)
{
    ScenarioSpec spec;
    spec.name = "churn";
    spec.system = smallSystem(2);
    spec.engine = quickEngine();
    spec.tenantCount = 6;
    spec.residentPerCore = 1;

    Machine machine(spec.system, spec.scheme);
    const ScenarioResult result = runScenario(machine, spec);
    ASSERT_EQ(result.tenants.size(), 6u);

    // Tenants 4 and 5 run last (the measured window); the early
    // tenants departed. Departures during warmup are lifecycle
    // state, not measured events — only the measured phase counts.
    std::uint64_t total_refs = 0;
    for (const TenantResult &tenant : result.tenants)
        total_refs += tenant.refs;
    EXPECT_EQ(total_refs, 2u * spec.engine.refsPerCore);
    EXPECT_TRUE(result.tenants[0].departed);
    EXPECT_TRUE(result.tenants[1].departed);
    EXPECT_FALSE(result.tenants[4].departed);
    EXPECT_FALSE(result.tenants[5].departed);
}

TEST(Scenario, TimeSlicedTenantsShareEachCore)
{
    ScenarioSpec spec;
    spec.system = smallSystem(1);
    spec.engine = quickEngine();
    spec.timeSliceRefs = 100;
    spec.tenants.push_back(TenantSpec{}.withBenchmark("mcf"));
    spec.tenants.push_back(TenantSpec{}.withBenchmark("gups"));

    Machine machine(spec.system, spec.scheme);
    const ScenarioResult result = runScenario(machine, spec);
    ASSERT_EQ(result.tenants.size(), 2u);
    // Round-robin at equal priority: the measured window splits
    // evenly between the two always-resident tenants.
    EXPECT_EQ(result.tenants[0].refs, 1000u);
    EXPECT_EQ(result.tenants[1].refs, 1000u);
    EXPECT_GT(result.tenants[0].translationCycles, 0u);
    EXPECT_GT(result.tenants[1].translationCycles, 0u);
}

TEST(Scenario, StormScheduleShootsDownPages)
{
    ScenarioSpec spec = degenerateSpec("mcf");
    spec.storm.intervalRefs = 500;
    spec.storm.pagesPerBurst = 4;

    Machine machine(spec.system, spec.scheme);
    const ScenarioResult result = runScenario(machine, spec);
    EXPECT_GT(result.stormShootdowns, 0u);
    EXPECT_EQ(result.stormShootdowns % 4, 0u);
    EXPECT_EQ(result.tenants[0].shootdowns, result.stormShootdowns);
    EXPECT_EQ(result.run.totals().shootdowns,
              result.stormShootdowns);
}

TEST(Scenario, ArrivalsMigratePages)
{
    ScenarioSpec spec;
    spec.system = smallSystem(1);
    spec.engine = quickEngine();
    spec.migrationPagesPerArrival = 16;
    spec.tenants.push_back(TenantSpec{}.withBenchmark("mcf"));
    spec.tenants.push_back(TenantSpec{}
                               .withBenchmark("gups")
                               .withArrival(2000));

    Machine machine(spec.system, spec.scheme);
    const ScenarioResult result = runScenario(machine, spec);
    // The late tenant arrives inside the measured window and its
    // pages migrate in.
    EXPECT_EQ(result.migrations, 16u);
    EXPECT_EQ(result.tenants[1].migrations, 16u);
    EXPECT_EQ(result.tenants[0].migrations, 0u);
}

TEST(Scenario, DeterministicAcrossRuns)
{
    ScenarioSpec spec;
    spec.name = "repeat";
    spec.system = smallSystem(2);
    spec.engine = quickEngine();
    spec.tenantCount = 6;
    spec.residentPerCore = 2;
    spec.storm.intervalRefs = 700;
    spec.migrationPagesPerArrival = 8;

    Machine machine_a(spec.system, spec.scheme);
    const ScenarioResult a = runScenario(machine_a, spec);
    const std::string doc_a =
        buildScenarioDocument(machine_a, spec, a).dump(2);

    Machine machine_b(spec.system, spec.scheme);
    const ScenarioResult b = runScenario(machine_b, spec);
    const std::string doc_b =
        buildScenarioDocument(machine_b, spec, b).dump(2);
    EXPECT_EQ(doc_a, doc_b);
}

TEST(Scenario, PackReplayReproducesTheScenarioExactly)
{
    // A churny multi-tenant scenario with storms and migrations,
    // recorded to a trace pack and replayed from it: every
    // behavioural section of the document matches byte for byte.
    ScenarioSpec spec;
    spec.name = "replayed";
    spec.system = smallSystem(2);
    spec.engine = quickEngine();
    spec.tenantCount = 4;
    spec.residentPerCore = 1;
    spec.storm.intervalRefs = 700;
    spec.migrationPagesPerArrival = 8;

    const std::string path =
        testTempPath("scenario_replay_test", ".pack");
    Machine machine_a(spec.system, spec.scheme);
    ScenarioEngine engine_a(machine_a, spec);
    engine_a.recordPack(path);
    const ScenarioResult a = engine_a.run();
    const JsonValue doc_a = buildScenarioDocument(machine_a, spec, a);

    ScenarioSpec replay = spec;
    replay.withTracePack(path);
    Machine machine_b(replay.system, replay.scheme);
    const ScenarioResult b = runScenario(machine_b, replay);
    const JsonValue doc_b =
        buildScenarioDocument(machine_b, replay, b);

    EXPECT_EQ(doc_a.at("stats").dump(2), doc_b.at("stats").dump(2));
    EXPECT_EQ(doc_a.at("tenants").dump(2),
              doc_b.at("tenants").dump(2));
    EXPECT_EQ(doc_a.at("events").dump(2), doc_b.at("events").dump(2));
    // The identities differ on purpose: the replay folds the pack's
    // content hash into the scenario hash.
    EXPECT_NE(scenarioHash(spec), scenarioHash(replay));
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------
// Export document
// ---------------------------------------------------------------

TEST(Scenario, DocumentCarriesPerTenantQosPercentiles)
{
    ScenarioSpec spec = degenerateSpec("mcf");
    Machine machine(spec.system, spec.scheme);
    const ScenarioResult result = runScenario(machine, spec);
    const JsonValue document =
        buildScenarioDocument(machine, spec, result);

    EXPECT_EQ(document.at("schema").asString(),
              "pomtlb-scenario-v1");
    EXPECT_EQ(document.at("scenario_hash").asString(),
              scenarioHash(spec));
    const JsonValue &tenants = document.at("tenants");
    ASSERT_EQ(tenants.elements().size(), 1u);
    const JsonValue &tenant = tenants.at(std::size_t{0});
    EXPECT_EQ(tenant.at("name").asString(), "t0");
    EXPECT_EQ(tenant.at("refs").asUint(), 4000u);
    // p50 is 0 for this workload — most references hit the L1 TLB,
    // which translates for free; the QoS tail lives in p95/p99.
    EXPECT_GT(tenant.at("p95_translation_cycles").asUint(), 0u);
    EXPECT_GE(tenant.at("p95_translation_cycles").asUint(),
              tenant.at("p50_translation_cycles").asUint());
    EXPECT_GE(tenant.at("p99_translation_cycles").asUint(),
              tenant.at("p95_translation_cycles").asUint());
    EXPECT_GT(tenant.at("l1_hit_ratio").asNumber(), 0.0);
    EXPECT_TRUE(tenant.has("translation_cycle_histogram"));
    EXPECT_TRUE(document.at("events").has("departures"));
    EXPECT_EQ(document.at("stats").at("schema").asString(),
              "pomtlb-stats-v1");
}

TEST(Scenario, RegistryExposesTenantGroups)
{
    ScenarioSpec spec = degenerateSpec("mcf");
    Machine machine(spec.system, spec.scheme);
    ScenarioEngine engine(machine, spec);
    engine.run();

    std::vector<std::pair<std::string, double>> flat;
    engine.registry().collect(flat);
    bool saw_refs = false;
    bool saw_p99 = false;
    for (const auto &[name, value] : flat) {
        if (name == "tenants.t0.refs") {
            saw_refs = true;
            EXPECT_EQ(value, 4000.0);
        }
        if (name == "tenants.t0.p99_translation_cycles")
            saw_p99 = true;
    }
    EXPECT_TRUE(saw_refs);
    EXPECT_TRUE(saw_p99);
}

// ---------------------------------------------------------------
// Consolidation at scale: hundreds of tenants, per-tenant QoS.
// ---------------------------------------------------------------

TEST(Scenario, SustainsHundredsOfTenantsWithPerTenantQos)
{
    ScenarioSpec spec;
    spec.name = "consolidation-256t";
    spec.scheme = "POM-TLB";
    spec.system = smallSystem(4);
    spec.engine.refsPerCore = 4000;
    spec.engine.warmupRefsPerCore = 1000;
    spec.tenantCount = 256;
    spec.tenantBenchmarks = {"mcf", "gups", "canneal"};
    spec.storm.intervalRefs = 1000;
    spec.storm.pagesPerBurst = 4;
    spec.migrationPagesPerArrival = 2;
    spec.overcommitFactor = 2.0;

    Machine machine(spec.system, spec.scheme);
    const ScenarioResult result = runScenario(machine, spec);
    const JsonValue document =
        buildScenarioDocument(machine, spec, result);

    const JsonValue &tenants = document.at("tenants");
    ASSERT_EQ(tenants.elements().size(), 256u);
    std::uint64_t refs = 0;
    for (const JsonValue &tenant : tenants.elements()) {
        refs += tenant.at("refs").asUint();
        EXPECT_TRUE(tenant.has("p50_translation_cycles"));
        EXPECT_TRUE(tenant.has("p95_translation_cycles"));
        EXPECT_TRUE(tenant.has("p99_translation_cycles"));
    }
    // Every measured reference is attributed to exactly one tenant.
    EXPECT_EQ(refs, 4u * spec.engine.refsPerCore);
    EXPECT_GT(result.departures, 0u);
    EXPECT_GT(result.stormShootdowns, 0u);
    EXPECT_GT(result.migrations, 0u);
}

// ---------------------------------------------------------------
// Campaigns: memoized, checkpointed, parallel, crash-resumable.
// ---------------------------------------------------------------

namespace fs = std::filesystem;

/** A unique scratch directory, recursively removed on destruction. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &tag)
    {
        path = (fs::temp_directory_path() /
                ("pomtlb-" + tag + "-" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }

    std::string sub(const std::string &name) const
    {
        return (fs::path(path) / name).string();
    }

    std::string path;
};

/** A small churn+storm scenario with @p tenants tenants. */
ScenarioSpec
churnSpec(unsigned tenants)
{
    ScenarioSpec spec;
    spec.name = "churn-" + std::to_string(tenants) + "t";
    spec.scheme = "POM-TLB";
    spec.system = smallSystem(2);
    spec.engine = quickEngine();
    spec.tenantCount = tenants;
    spec.tenantBenchmarks = {"mcf", "gups"};
    spec.migrationPagesPerArrival = 2;
    spec.storm.intervalRefs = 800;
    spec.storm.pagesPerBurst = 4;
    return spec;
}

TEST(ScenarioCampaign, RerunByteIdenticalAcrossCacheAndJobs)
{
    ScratchDir scratch("scenario-campaign");
    const std::vector<ScenarioSpec> specs = {churnSpec(4),
                                             churnSpec(8)};

    ScenarioCampaignOptions options;
    options.cacheDir = scratch.sub("cache");
    options.jobs = 1;
    SweepServiceStats stats;
    const JsonValue cold =
        runScenarioCampaign(specs, options, &stats);
    EXPECT_EQ(cold.at("schema").asString(), kScenarioSchemaV1);
    EXPECT_EQ(stats.executed, 2u);

    // The warm rerun executes nothing and is byte-identical.
    const JsonValue warm =
        runScenarioCampaign(specs, options, &stats);
    EXPECT_EQ(stats.executed, 0u);
    EXPECT_EQ(stats.cacheHits, 2u);
    EXPECT_EQ(cold.dump(2), warm.dump(2));

    // A different worker count in a pristine cache changes nothing.
    ScenarioCampaignOptions wide;
    wide.cacheDir = scratch.sub("cache-wide");
    wide.jobs = 4;
    const JsonValue parallel =
        runScenarioCampaign(specs, wide, &stats);
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(cold.dump(2), parallel.dump(2));
}

TEST(ScenarioCampaign, KilledCampaignResumesByteIdentical)
{
    ScratchDir scratch("scenario-crash");
    const std::vector<ScenarioSpec> specs = {churnSpec(4),
                                             churnSpec(8)};

    ScenarioCampaignOptions options;
    options.cacheDir = scratch.sub("cache");
    options.journalPath = scratch.sub("scenario.journal");
    options.jobs = 1;

    // Child: the crash hook vanishes the process (status 137, no
    // flushes, no destructors) right after the first journal
    // append, like a SIGKILL landing mid-campaign.
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ScenarioCampaignOptions crashing = options;
        crashing.crashAfterAppends = 1;
        runScenarioCampaign(specs, crashing);
        std::_Exit(0); // not reached: the hook fires first
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137);

    // Parent: resume. The journaled scenario replays, only the
    // remainder executes.
    SweepServiceStats stats;
    const JsonValue resumed =
        runScenarioCampaign(specs, options, &stats);
    EXPECT_EQ(stats.journalHits, 1u);
    EXPECT_EQ(stats.executed, 1u);

    // The resumed document is byte-identical to an uninterrupted
    // campaign in a pristine cache.
    ScenarioCampaignOptions pristine;
    pristine.cacheDir = scratch.sub("cache-reference");
    pristine.jobs = 1;
    const JsonValue reference = runScenarioCampaign(specs, pristine);
    EXPECT_EQ(resumed.dump(2), reference.dump(2));
}

} // namespace
} // namespace pomtlb
