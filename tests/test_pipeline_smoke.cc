/**
 * @file
 * End-to-end smoke tests of the exact flows the examples and CLI
 * drive, kept fast enough for CI: each test mirrors one user-facing
 * entry point so a regression there fails here first.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/machine.hh"
#include "sim/perf_model.hh"
#include "sim/scenario.hh"

namespace pomtlb
{
namespace
{

ExperimentConfig
smokeConfig()
{
    ExperimentConfig config;
    config.system.numCores = 2;
    config.engine.refsPerCore = 5000;
    config.engine.warmupRefsPerCore = 5000;
    return config;
}

TEST(PipelineSmoke, QuickstartFlow)
{
    // examples/quickstart.cpp in miniature.
    const ExperimentConfig config = smokeConfig();
    const BenchmarkProfile &profile = ProfileRegistry::byName("mcf");
    const SchemeRunSummary baseline =
        runScheme(profile, "Baseline", config);
    const SchemeRunSummary pom =
        runScheme(profile, "POM-TLB", config);
    const double ratio =
        static_cast<double>(pom.translationCycles) /
        static_cast<double>(baseline.translationCycles);
    const double improvement = PerfModel::improvementPct(
        profile, config.system.mode, ratio);
    EXPECT_GT(improvement, 0.0);
    EXPECT_LT(improvement, profile.overheadVirtualPct * 1.5);
}

TEST(PipelineSmoke, CapacityExplorerFlow)
{
    // examples/capacity_explorer.cpp in miniature: two capacities,
    // neither may break and the bigger may not walk more.
    ExperimentConfig config = smokeConfig();
    const BenchmarkProfile &profile =
        ProfileRegistry::byName("gups");
    config.system.pomTlb.capacityBytes = 2 << 20;
    const SchemeRunSummary small =
        runScheme(profile, "POM-TLB", config);
    config.system.pomTlb.capacityBytes = 32 << 20;
    const SchemeRunSummary big =
        runScheme(profile, "POM-TLB", config);
    EXPECT_LE(big.walkFraction, small.walkFraction + 1e-9);
}

TEST(PipelineSmoke, MixedTenantsFlow)
{
    // examples/mixed_tenants.cpp in miniature: mcf and gups as two
    // 2-vCPU tenants in different VMs on one 4-core machine.
    ScenarioSpec spec;
    spec.name = "mixed-tenants";
    spec.system.numCores = 4;
    spec.engine.refsPerCore = 5000;
    spec.engine.warmupRefsPerCore = 5000;
    spec.withTenant(TenantSpec{}
                        .withName("mcf-tenant")
                        .withBenchmark("mcf")
                        .withVcpus(2))
        .withTenant(TenantSpec{}
                        .withName("gups-tenant")
                        .withBenchmark("gups")
                        .withVcpus(2));
    Machine machine(spec.system, spec.scheme);
    const ScenarioResult result = runScenario(machine, spec);
    EXPECT_EQ(result.run.cores.size(), 4u);
    ASSERT_EQ(result.tenants.size(), 2u);
    EXPECT_EQ(result.tenants[0].refs, 10000u);
    EXPECT_EQ(result.tenants[1].refs, 10000u);
    EXPECT_LT(result.run.totals().walkFraction, 0.05);
    EXPECT_EQ(machine.memoryMap().vmCount(), 2u);
}

TEST(PipelineSmoke, CompareFlowOrdering)
{
    // tools `compare` in miniature: four schemes, baseline cost
    // ratio exactly 1.
    const BenchmarkComparison comparison = compareSchemes(
        ProfileRegistry::byName("canneal"), smokeConfig());
    EXPECT_DOUBLE_EQ(
        comparison.delta("Baseline").costRatio, 1.0);
    const SchemeDelta &pom = comparison.delta("POM-TLB");
    EXPECT_GT(pom.costRatio, 0.0);
    EXPECT_LT(pom.costRatio, 1.5);
    EXPECT_GT(comparison.delta("Shared_L2").costRatio, 0.0);
    EXPECT_GT(comparison.delta("TSB").costRatio, 0.0);
}

} // namespace
} // namespace pomtlb
