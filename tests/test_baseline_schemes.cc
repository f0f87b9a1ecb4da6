/**
 * @file
 * Baseline scheme tests: the miss ledger every scheme inherits, the
 * nested-walk MMU, Shared_L2, and TSB.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "baseline/nested_scheme.hh"
#include "baseline/shared_l2_scheme.hh"
#include "baseline/tsb_scheme.hh"
#include "common/json.hh"
#include "sim/machine.hh"

namespace pomtlb
{
namespace
{

SystemConfig
twoCoreConfig()
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 2;
    return config;
}

/**
 * A scheme whose misses are scripted (ServicePoint, cycles) pairs. It
 * exports the miss count, one point's count and two points' cycles,
 * the walk's first, so export order differs from enum order.
 */
class ScriptedScheme : public TranslationScheme
{
  public:
    explicit ScriptedScheme(
        std::vector<std::pair<ServicePoint, Cycles>> script)
        : outcomes(std::move(script))
    {
        exportMissCount("requests");
        exportServedCount("walks", ServicePoint::PageWalk);
        exportServedCycles("walk_cycles", ServicePoint::PageWalk);
        exportServedCycles("tsb_cycles", ServicePoint::TsbBuffer);
        exportMissCycles("avg_miss_cycles", "miss_cycle_hist");
    }

    std::string name() const override { return "Scripted"; }

  private:
    SchemeResult
    resolve(CoreId, Addr, PageSize, VmId, ProcessId, Cycles) override
    {
        SchemeResult result;
        result.servedBy = outcomes.at(next).first;
        result.cycles = outcomes.at(next).second;
        ++next;
        return result;
    }

    std::vector<std::pair<ServicePoint, Cycles>> outcomes;
    std::size_t next = 0;
};

TEST(MissLedger, ChargesEachMissToThePointThatServedIt)
{
    ScriptedScheme scheme({{ServicePoint::TsbBuffer, 10},
                           {ServicePoint::PageWalk, 300},
                           {ServicePoint::TsbBuffer, 30},
                           {ServicePoint::PageWalk, 100}});
    for (int miss = 0; miss < 4; ++miss)
        scheme.translateMiss(0, 0x1000, PageSize::Small4K, 1, 1, 0);

    EXPECT_EQ(scheme.missCount(), 4u);
    EXPECT_EQ(scheme.servedCount(ServicePoint::TsbBuffer), 2u);
    EXPECT_EQ(scheme.servedCount(ServicePoint::PageWalk), 2u);
    EXPECT_EQ(scheme.servedCount(ServicePoint::CacheL2D), 0u);
    EXPECT_DOUBLE_EQ(scheme.avgMissCycles(), 110.0);

    // The exported points, in export order, not enum order.
    const std::vector<std::pair<ServicePoint, std::uint64_t>> expected =
        {{ServicePoint::PageWalk, 400}, {ServicePoint::TsbBuffer, 40}};
    EXPECT_EQ(scheme.cycleBreakdown(), expected);

    const JsonValue stats = scheme.stats().toJson();
    EXPECT_EQ(stats.at("requests").asUint(), 4u);
    EXPECT_EQ(stats.at("walks").asUint(), 2u);
    EXPECT_EQ(stats.at("walk_cycles").asUint(), 400u);
    EXPECT_EQ(stats.at("tsb_cycles").asUint(), 40u);
    EXPECT_DOUBLE_EQ(stats.at("avg_miss_cycles").asNumber(), 110.0);
    EXPECT_EQ(stats.at("miss_cycle_hist").at("samples").asUint(), 4u);

    // The reset zeroes the whole ledger, the TSB point's count, which
    // is not exported, included.
    scheme.stats().reset();
    EXPECT_EQ(scheme.missCount(), 0u);
    EXPECT_EQ(scheme.servedCount(ServicePoint::TsbBuffer), 0u);
    EXPECT_EQ(scheme.servedCount(ServicePoint::PageWalk), 0u);
    EXPECT_EQ(scheme.avgMissCycles(), 0.0);
    for (const auto &[point, cycles] : scheme.cycleBreakdown())
        EXPECT_EQ(cycles, 0u) << servicePointName(point);
}

TEST(NestedScheme, AlwaysWalks)
{
    Machine machine(twoCoreConfig(), "Baseline");
    auto &scheme = machine.scheme();
    const SchemeResult a =
        scheme.translateMiss(0, 0x1234000, PageSize::Small4K, 1, 1, 0);
    const SchemeResult b = scheme.translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 1000);
    EXPECT_TRUE(a.walked);
    EXPECT_TRUE(b.walked);
    EXPECT_EQ(a.pfn, b.pfn);
    // Warm structures make the second walk cheaper.
    EXPECT_LT(b.cycles, a.cycles);
}

TEST(NestedScheme, StatsTrackWalks)
{
    Machine machine(twoCoreConfig(), "Baseline");
    auto *scheme =
        dynamic_cast<NestedWalkScheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    scheme->translateMiss(0, 0x1000000, PageSize::Small4K, 1, 1, 0);
    scheme->translateMiss(0, 0x2000000, PageSize::Small4K, 1, 1, 0);
    EXPECT_EQ(scheme->walkCount(), 2u);
    EXPECT_GT(scheme->avgWalkCycles(), 0.0);
    EXPECT_GT(scheme->avgWalkRefs(), 0.0);
    scheme->stats().reset();
    EXPECT_EQ(scheme->walkCount(), 0u);
}

TEST(SharedL2, ProvidesSecondLevel)
{
    Machine machine(twoCoreConfig(), "Shared_L2");
    EXPECT_TRUE(machine.scheme().providesSecondLevel());
    // Cores therefore have no private L2 TLB.
    EXPECT_FALSE(machine.mmu(0).tlbs().hasPrivateL2());
}

TEST(SharedL2, SharedCapacityScalesWithCores)
{
    Machine machine(twoCoreConfig(), "Shared_L2");
    auto *scheme =
        dynamic_cast<SharedL2Scheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    EXPECT_EQ(scheme->tlb().config().entries, 2u * 1536);
}

TEST(SharedL2, MissWalksThenHits)
{
    Machine machine(twoCoreConfig(), "Shared_L2");
    auto *scheme =
        dynamic_cast<SharedL2Scheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    const SchemeResult miss = scheme->translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 0);
    EXPECT_TRUE(miss.walked);
    const SchemeResult hit = scheme->translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 1000);
    EXPECT_FALSE(hit.walked);
    // A shared-TLB hit costs exactly the shared access latency.
    EXPECT_EQ(hit.cycles, Cycles{24});
}

TEST(SharedL2, SharedAcrossCores)
{
    Machine machine(twoCoreConfig(), "Shared_L2");
    auto *scheme =
        dynamic_cast<SharedL2Scheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    scheme->translateMiss(0, 0x1234000, PageSize::Small4K, 1, 1, 0);
    // Same page from the other core: inter-core sharing hits.
    const SchemeResult other = scheme->translateMiss(
        1, 0x1234000, PageSize::Small4K, 1, 1, 1000);
    EXPECT_FALSE(other.walked);
    EXPECT_EQ(scheme->walkCount(), 1u);
}

TEST(Tsb, TrapCostAlwaysPaid)
{
    SystemConfig config = twoCoreConfig();
    Machine machine(config, "TSB");
    auto &scheme = machine.scheme();
    const SchemeResult hit_path = scheme.translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 0);
    EXPECT_GE(hit_path.cycles, config.tsb.trapCycles);
}

TEST(Tsb, MissWalksThenHits)
{
    Machine machine(twoCoreConfig(), "TSB");
    auto *scheme = dynamic_cast<TsbScheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    const SchemeResult miss = scheme->translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 0);
    EXPECT_TRUE(miss.walked);
    const SchemeResult hit = scheme->translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 10000);
    EXPECT_FALSE(hit.walked);
    EXPECT_EQ(hit.pfn, miss.pfn);
    EXPECT_EQ(scheme->walkCount(), 1u);
    EXPECT_GT(scheme->tsbHitRate(), 0.0);
}

TEST(Tsb, DirectMappedConflictEvicts)
{
    Machine machine(twoCoreConfig(), "TSB");
    auto *scheme = dynamic_cast<TsbScheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    const std::uint64_t stage_entries =
        machine.config().tsb.capacityBytes /
        machine.config().tsb.entryBytes /
        machine.config().tsb.accessesPerTranslation;
    const Addr vaddr = 0x1234000;
    // A VPN exactly stage_entries apart collides in the
    // direct-mapped buffer (same vm, same pid).
    const Addr collider = vaddr + (stage_entries << smallPageShift);
    scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 0);
    scheme->translateMiss(0, collider, PageSize::Small4K, 1, 1, 100);
    const SchemeResult again = scheme->translateMiss(
        0, vaddr, PageSize::Small4K, 1, 1, 20000);
    EXPECT_TRUE(again.walked);
}

TEST(Tsb, PrewarmFillsAllStages)
{
    Machine machine(twoCoreConfig(), "TSB");
    auto *scheme = dynamic_cast<TsbScheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    const Addr vaddr = 0x9999000;
    const TranslationInfo info = machine.memoryMap().ensureMapped(
        1, 1, vaddr, PageSize::Small4K);
    scheme->prewarm(0, vaddr, PageSize::Small4K, 1, 1,
                    info.hpa >> smallPageShift);
    const SchemeResult hit = scheme->translateMiss(
        0, vaddr, PageSize::Small4K, 1, 1, 0);
    EXPECT_FALSE(hit.walked);
}

TEST(Tsb, VmShootdown)
{
    Machine machine(twoCoreConfig(), "TSB");
    auto *scheme = dynamic_cast<TsbScheme *>(&machine.scheme());
    ASSERT_NE(scheme, nullptr);
    scheme->translateMiss(0, 0x1234000, PageSize::Small4K, 1, 1, 0);
    scheme->invalidateVm(1);
    const SchemeResult after = scheme->translateMiss(
        0, 0x1234000, PageSize::Small4K, 1, 1, 10000);
    EXPECT_TRUE(after.walked);
}

} // namespace
} // namespace pomtlb
