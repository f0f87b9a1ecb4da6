/**
 * @file
 * Machine-assembly tests: scheme wiring, configuration scaling, and
 * whole-machine shootdown.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/json.hh"
#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"
#include "trace/profile.hh"

namespace pomtlb
{
namespace
{

TEST(Machine, BuildsAllPaperSchemes)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 2;
    for (const std::string scheme :
         {"Baseline", "POM-TLB", "Shared_L2", "TSB"}) {
        Machine machine(config, scheme);
        EXPECT_EQ(machine.schemeName(), scheme);
        EXPECT_EQ(machine.numCores(), 2u);
    }
}

TEST(Machine, PomDeviceOnlyForPomScheme)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine pom(config, "POM-TLB");
    EXPECT_NE(pom.pomTlbDevice(), nullptr);
    EXPECT_NE(pom.pomTlbScheme(), nullptr);

    Machine baseline(config, "Baseline");
    EXPECT_EQ(baseline.pomTlbDevice(), nullptr);
    EXPECT_EQ(baseline.pomTlbScheme(), nullptr);
}

TEST(Machine, CoreCountScalesComponents)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 4;
    Machine machine(config, "POM-TLB");
    for (CoreId core = 0; core < 4; ++core) {
        EXPECT_NO_THROW(machine.mmu(core));
        EXPECT_NO_THROW(machine.walker(core));
    }
    EXPECT_EQ(machine.hierarchy().numCores(), 4u);
}

TEST(Machine, PrivateL2PresentExceptSharedL2)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine pom(config, "POM-TLB");
    EXPECT_TRUE(pom.mmu(0).tlbs().hasPrivateL2());
    Machine shared(config, "Shared_L2");
    EXPECT_FALSE(shared.mmu(0).tlbs().hasPrivateL2());
    Machine tsb(config, "TSB");
    EXPECT_TRUE(tsb.mmu(0).tlbs().hasPrivateL2());
}

TEST(Machine, ShootdownVmClearsEverything)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine machine(config, "POM-TLB");
    machine.mmu(0).translate(0x1234000, PageSize::Small4K, 1, 1, 0);
    machine.shootdownVm(1);
    const MmuResult after = machine.mmu(0).translate(
        0x1234000, PageSize::Small4K, 1, 1, 1000);
    EXPECT_EQ(after.level, TlbLevel::Miss);
    EXPECT_TRUE(after.walked);
}

TEST(Machine, ResetStatsPreservesState)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine machine(config, "POM-TLB");
    machine.mmu(0).translate(0x1234000, PageSize::Small4K, 1, 1, 0);
    machine.resetStats();
    EXPECT_EQ(machine.mmu(0).translationCount(), 0u);
    // Translation state survives: next access is an L1 hit.
    const MmuResult after = machine.mmu(0).translate(
        0x1234000, PageSize::Small4K, 1, 1, 1000);
    EXPECT_EQ(after.level, TlbLevel::L1);
}

TEST(Machine, DramChannelsAreSeparate)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine machine(config, "POM-TLB");
    // Main-memory traffic does not touch the die-stacked channel.
    machine.hierarchy().accessData(0, 0x5000, AccessType::Read, 0);
    EXPECT_GT(machine.mainMemory().accessCount(), 0u);
    EXPECT_EQ(machine.dieStackedMemory().accessCount(), 0u);
}

TEST(Machine, NativeModeMachine)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    config.mode = ExecMode::Native;
    Machine machine(config, "Baseline");
    const MmuResult result = machine.mmu(0).translate(
        0x1234000, PageSize::Small4K, 1, 1, 0);
    EXPECT_TRUE(result.walked);
    EXPECT_EQ(machine.memoryMap().mode(), ExecMode::Native);
}

TEST(Machine, StatsTreeNamesEveryComponent)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine machine(config, "POM-TLB");
    machine.mmu(0).translate(0x1234000, PageSize::Small4K, 1, 1, 0);
    // The root's JSON is the stats document's `components` object.
    const JsonValue json = machine.stats().toJson();
    for (const char *group :
         {"mmu.0", "walker.0", "scheme", "l1d.0", "l2d.0", "l3", "hierarchy",
          "ddr4-2133", "die-stacked"}) {
        EXPECT_TRUE(json.has(group)) << group;
    }
    EXPECT_EQ(json.at("mmu.0").at("translations").asUint(), 1u);
    EXPECT_TRUE(json.at("scheme").at("pom_tlb").isObject());
    // collect() flattens the same tree into dotted names.
    std::vector<std::pair<std::string, double>> flat;
    machine.stats().collect(flat);
    const auto translations = std::find_if(
        flat.begin(), flat.end(), [](const auto &stat) {
            return stat.first == "mmu.0.translations";
        });
    ASSERT_NE(translations, flat.end());
    EXPECT_DOUBLE_EQ(translations->second, 1.0);
}

/**
 * Expect every statistic under @p node to read 0, except the gauges,
 * which read live state. @p path names the node in failures.
 */
void
expectAllZero(const JsonValue &node, const std::string &path)
{
    static const std::set<std::string> gauges = {
        "valid_entries", "tlb_line_occupancy", "avg_pages_per_entry"};
    for (const auto &[key, value] : node.members()) {
        const std::string name = path + "." + key;
        if (gauges.count(key))
            continue;
        if (value.isNumber()) {
            EXPECT_EQ(value.asNumber(), 0.0) << name;
        } else if (value.has("kind")) {
            EXPECT_EQ(value.at("samples").asUint(), 0u) << name;
            EXPECT_EQ(value.at("max").asUint(), 0u) << name;
            EXPECT_EQ(value.at("buckets").size(), 0u) << name;
        } else {
            expectAllZero(value, name);
        }
    }
}

TEST(Machine, ResetZeroesEveryRegisteredStatistic)
{
    // Every optional component on, so every group is in the tree:
    // refresh on both DRAM channels (and so on the L4's), the L4
    // cache, and writeback traffic.
    SystemConfig config = SystemConfig::table1();
    config.numCores = 2;
    config.mainMemory.refreshEnabled = true;
    config.dieStacked.refreshEnabled = true;
    config.dieStackedL4Cache = true;
    config.modelWritebackTraffic = true;
    EngineConfig engine_config;
    engine_config.refsPerCore = 3000;
    engine_config.warmupRefsPerCore = 0;
    const BenchmarkProfile &profile = ProfileRegistry::byName("gups");
    for (const std::string &scheme : SchemeRegistry::global().names()) {
        SCOPED_TRACE(scheme);
        Machine machine(config, scheme);
        SimulationEngine(machine, profile, engine_config).run();
        ASSERT_GT(machine.mainMemory().refreshCount(), 0u);
        const TranslationScheme &ledger = machine.scheme();
        ASSERT_GT(ledger.missCount(), 0u);
        machine.resetStats();
        expectAllZero(machine.stats().toJson(), "components");
        // The whole miss ledger resets, what the scheme does not
        // export included.
        for (const ServicePoint point : allServicePoints())
            EXPECT_EQ(ledger.servedCount(point), 0u)
                << servicePointName(point);
        EXPECT_EQ(ledger.missCount(), 0u);
        EXPECT_EQ(ledger.avgMissCycles(), 0.0);
        for (const auto &[point, cycles] : ledger.cycleBreakdown())
            EXPECT_EQ(cycles, 0u) << servicePointName(point);
    }
}

} // namespace
} // namespace pomtlb
