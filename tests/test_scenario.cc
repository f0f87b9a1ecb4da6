/**
 * @file
 * Scenario-engine tests: the single-tenant golden equivalence (one
 * tenant whose vCPUs cover every core reproduces a classic run —
 * one tenant per core — byte-for-byte),
 * spec resolution (generator expansion, churn schedules, overcommit,
 * VM/ASID auto-binding), lifecycle events (arrivals, departures,
 * migrations, storms), per-tenant QoS accounting, the pack-replay
 * rule, and the `pomtlb-scenario-v1` export.
 */

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "campaign_fixtures.hh"
#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/scenario.hh"
#include "sim/stats_export.hh"
#include "trace/error.hh"
#include "trace/tracepack.hh"
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
// pid-assignment branch of both the scenario and the classic run.
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
// The one pack-replay rule: vCPU stream i replays pack stream
// i mod stream_count, in scenarios and classic runs alike; an
// empty pack stream is a named error at engine construction.
// ---------------------------------------------------------------

/**
 * Write a pack at @p path with one stream per entry of @p names,
 * each holding @p records mcf generator records — except stream
 * @p empty_stream, when given, which holds none.
 */
void
writeGeneratorPack(const std::string &path,
                   const std::vector<std::string> &names,
                   std::uint64_t records, int empty_stream = -1)
{
    TracePackWriter writer(path, names);
    std::vector<TraceRecord> block(static_cast<std::size_t>(records));
    for (std::size_t s = 0; s < names.size(); ++s) {
        if (static_cast<int>(s) == empty_stream)
            continue;
        GeneratorSource source(ProfileRegistry::byName("mcf"),
                               static_cast<CoreId>(s), 7 + s);
        source.fill(block.data(), block.size());
        writer.append(static_cast<std::uint32_t>(s), block.data(),
                      block.size());
    }
    writer.close();
}

TEST(Scenario, ScenarioPackWrapsOntoVcpusLikeRun)
{
    // Three pack streams, four vCPUs: vCPU 3 wraps onto stream 0,
    // exactly as core 3 of `pomtlb run --trace-in` does.
    const std::string path =
        testTempPath("scenario_wrap_test", ".pack");
    writeGeneratorPack(path, {"a", "b", "c"}, 1500);
    EngineConfig config = quickEngine();
    config.tracePackPath = path;
    ScenarioSpec spec = degenerateSpec("mcf", 4);
    spec.withTracePack(path);
    EXPECT_EQ(scenarioStatsDump(spec),
              legacyStatsDump("mcf", 4, config));
    std::filesystem::remove(path);
}

TEST(Scenario, TenantTraceStreamStaysRangeChecked)
{
    // An explicit TenantSpec::traceStream names one stream; it does
    // not wrap.
    const std::string path =
        testTempPath("scenario_range_test", ".pack");
    writeGeneratorPack(path, {"a", "b"}, 100);
    ScenarioSpec spec;
    spec.system = smallSystem(2);
    spec.engine = quickEngine();
    spec.withTenant(
        TenantSpec{}.withVcpus(2).withTracePack(path, 1));
    Machine machine(spec.system, spec.scheme);
    try {
        ScenarioEngine engine(machine, spec);
        FAIL() << "expected TraceError";
    } catch (const TraceError &error) {
        EXPECT_NE(std::string(error.what()).find("out of range"),
                  std::string::npos)
            << error.what();
    }
    std::filesystem::remove(path);
}

TEST(Scenario, EmptyPackStreamIsANamedError)
{
    // Stream 'core1' holds no records: replaying it would exhaust
    // during pre-population (or the first refill). Both the classic
    // facade and a scenario-wide pack refuse it up front, naming
    // the pack and the stream.
    const std::string path =
        testTempPath("scenario_empty_test", ".pack");
    writeGeneratorPack(path, {"core0", "core1"}, 2,
                       /*empty_stream=*/1);
    const auto expect_named = [&](const std::function<void()> &build) {
        try {
            build();
            FAIL() << "expected TraceError";
        } catch (const TraceError &error) {
            const std::string what = error.what();
            EXPECT_NE(what.find(path), std::string::npos) << what;
            EXPECT_NE(what.find("'core1'"), std::string::npos) << what;
        }
    };

    for (const bool prepopulate : {true, false}) {
        EngineConfig config = quickEngine();
        config.prepopulate = prepopulate;
        config.tracePackPath = path;
        Machine classic(smallSystem(2), std::string("POM-TLB"));
        expect_named([&] {
            SimulationEngine engine(
                classic, ProfileRegistry::byName("mcf"), config);
        });

        ScenarioSpec spec = degenerateSpec("mcf", 2);
        spec.engine.prepopulate = prepopulate;
        spec.withTracePack(path);
        Machine scenario(spec.system, spec.scheme);
        expect_named([&] { ScenarioEngine engine(scenario, spec); });
    }
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
// Scenario jobs run through the same SweepService as sweep jobs;
// these are the runner's guarantees checked for scenarios (the
// sweep-job counterparts are in test_sweep.cc and
// test_sweep_cache.cc).
// ---------------------------------------------------------------

TEST(ScenarioCampaign, RerunByteIdenticalAcrossCacheAndJobs)
{
    expectParallelAndWarmRunsMatchSerial(scenarioCampaign());
}

TEST(ScenarioCampaign, KilledCampaignResumesByteIdentical)
{
    expectKilledCampaignResumesByteIdentical(scenarioCampaign());
}

} // namespace
} // namespace pomtlb
