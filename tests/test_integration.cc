/**
 * @file
 * Cross-module integration tests: end-to-end properties of the full
 * machine that individual unit tests cannot see.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "sim/perf_model.hh"

namespace pomtlb
{
namespace
{

ExperimentConfig
integrationConfig()
{
    ExperimentConfig config;
    config.system.numCores = 2;
    config.engine.refsPerCore = 30000;
    config.engine.warmupRefsPerCore = 20000;
    return config;
}

TEST(Integration, AllSchemesTranslateIdentically)
{
    // Whatever the scheme, the same (vm, pid, vaddr) must resolve to
    // the same host frame for the same machine seed: translation is
    // a function of the memory map, not of the caching scheme.
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    const Addr vaddr = 0x123456789;

    std::vector<HostPhysAddr> results;
    for (const std::string scheme :
         {"Baseline", "POM-TLB", "Shared_L2", "TSB"}) {
        Machine machine(config, scheme);
        const MmuResult result = machine.mmu(0).translate(
            vaddr, PageSize::Small4K, 1, 1, 0);
        results.push_back(result.hpa);
    }
    for (std::size_t i = 1; i < results.size(); ++i)
        EXPECT_EQ(results[i], results[0]);
}

TEST(Integration, RepeatedTranslationIsStable)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine machine(config, "POM-TLB");
    const Addr vaddr = 0xabc123456;
    const MmuResult first = machine.mmu(0).translate(
        vaddr, PageSize::Small4K, 1, 1, 0);
    for (Cycles t = 100; t < 2000; t += 100) {
        const MmuResult again = machine.mmu(0).translate(
            vaddr, PageSize::Small4K, 1, 1, t);
        EXPECT_EQ(again.hpa, first.hpa);
    }
}

TEST(Integration, PomTlbEliminatesNearlyAllWalks)
{
    // Section 4.6 / conclusion: "99% of the page walks can be
    // eliminated by a very large TLB of size 16 MB".
    const SchemeRunSummary pom = runScheme(
        ProfileRegistry::byName("mcf"), "POM-TLB",
        integrationConfig());
    EXPECT_LT(pom.walkFraction, 0.01);
}

TEST(Integration, Figure8OrderingOnMcf)
{
    const BenchmarkComparison comparison = compareSchemes(
        ProfileRegistry::byName("mcf"), integrationConfig());
    // POM-TLB beats both prior schemes on the paper's strongest
    // benchmark.
    const double pom =
        comparison.delta("POM-TLB").improvementPct;
    EXPECT_GT(pom, comparison.delta("TSB").improvementPct);
    EXPECT_GT(pom, 2.0);
}

TEST(Integration, CachedEntriesAreWhatMakePomFast)
{
    // Figure 12's mechanism: with caching disabled, the average POM
    // penalty rises.
    ExperimentConfig cached = integrationConfig();
    ExperimentConfig uncached = integrationConfig();
    uncached.system.pomTlb.cacheable = false;

    const SchemeRunSummary with_cache = runScheme(
        ProfileRegistry::byName("mcf"), "POM-TLB", cached);
    const SchemeRunSummary without_cache = runScheme(
        ProfileRegistry::byName("mcf"), "POM-TLB",
        uncached);
    EXPECT_LT(with_cache.avgPenaltyPerMiss,
              without_cache.avgPenaltyPerMiss);
    // Caching changes latency, not the number of page walks.
    EXPECT_NEAR(with_cache.walkFraction, without_cache.walkFraction,
                0.01);
}

TEST(Integration, DataCachesStillServeData)
{
    // Caching TLB entries must not wreck the data path: the L3 data
    // hit rate stays meaningful under the POM scheme.
    const SchemeRunSummary pom = runScheme(
        ProfileRegistry::byName("mcf"), "POM-TLB",
        integrationConfig());
    EXPECT_GT(pom.l3DataHitRate, 0.0);
}

TEST(Integration, MultiVmConsolidationKeepsHitRates)
{
    // Section 5.2: the POM-TLB retains translations of multiple VMs.
    ExperimentConfig config = integrationConfig();
    config.engine.coreVm = {1, 2};
    const SchemeRunSummary summary = runScheme(
        ProfileRegistry::byName("canneal"), "POM-TLB",
        config);
    EXPECT_LT(summary.walkFraction, 0.02);
}

TEST(Integration, SizePredictorAccurateEndToEnd)
{
    const SchemeRunSummary pom = runScheme(
        ProfileRegistry::byName("mcf"), "POM-TLB",
        integrationConfig());
    // Section 4.3: ~95% average; individual benchmarks vary.
    EXPECT_GT(pom.sizePredictorAccuracy, 0.8);
}

TEST(Integration, CapacityInsensitivity)
{
    // Section 4.6: halving/doubling the 16 MB capacity changes the
    // improvement by under ~1 percentage point.
    // Only the POM-TLB machine changes capacity.
    const ExperimentConfig config = integrationConfig();
    const BenchmarkProfile &profile = ProfileRegistry::byName("mcf");
    const SchemeRunSummary baseline =
        runScheme(profile, "Baseline", config);
    ExperimentConfig small = config;
    small.system.pomTlb.capacityBytes = 8 * 1024 * 1024;
    const double at16 =
        schemeDelta(runScheme(profile, "POM-TLB", config), baseline)
            .improvementPct;
    const double at8 =
        schemeDelta(runScheme(profile, "POM-TLB", small), baseline)
            .improvementPct;
    EXPECT_NEAR(at16, at8, 1.5);
}

TEST(Integration, StatDumpCoversMachine)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine machine(config, "POM-TLB");
    machine.mmu(0).translate(0x1234000, PageSize::Small4K, 1, 1, 0);

    std::vector<std::pair<std::string, double>> stats;
    machine.mainMemory().stats().collect(stats);
    machine.dieStackedMemory().stats().collect(stats);
    machine.hierarchy().l3d().stats().collect(stats);
    EXPECT_GT(stats.size(), 10u);
}

} // namespace
} // namespace pomtlb
