/**
 * @file
 * MMU front-end tests: TLB level routing, penalty accounting, and the
 * translation-cycle bookkeeping the performance model consumes.
 */

#include <gtest/gtest.h>

#include "common/json.hh"
#include "sim/machine.hh"

namespace pomtlb
{
namespace
{

class MmuTest : public ::testing::Test
{
  protected:
    MmuTest()
    {
        SystemConfig config = SystemConfig::table1();
        config.numCores = 1;
        machine =
            std::make_unique<Machine>(config, "POM-TLB");
    }

    std::unique_ptr<Machine> machine;
};

TEST_F(MmuTest, ColdTranslationMissesAndResolves)
{
    Mmu &mmu = machine->mmu(0);
    const Addr vaddr = 0x123456789;
    const MmuResult result =
        mmu.translate(vaddr, PageSize::Small4K, 1, 1, 0);
    EXPECT_EQ(result.level, TlbLevel::Miss);
    EXPECT_TRUE(result.walked);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_EQ(pageOffset(result.hpa, PageSize::Small4K),
              pageOffset(vaddr, PageSize::Small4K));
}

TEST_F(MmuTest, SecondAccessHitsL1Free)
{
    Mmu &mmu = machine->mmu(0);
    const Addr vaddr = 0x123456789;
    const MmuResult first =
        mmu.translate(vaddr, PageSize::Small4K, 1, 1, 0);
    const MmuResult second =
        mmu.translate(vaddr, PageSize::Small4K, 1, 1, 1000);
    EXPECT_EQ(second.level, TlbLevel::L1);
    EXPECT_EQ(second.cycles, 0u);
    EXPECT_EQ(second.hpa, first.hpa);
}

TEST_F(MmuTest, CountersTrackLevels)
{
    Mmu &mmu = machine->mmu(0);
    mmu.translate(0x1000000, PageSize::Small4K, 1, 1, 0);
    mmu.translate(0x1000000, PageSize::Small4K, 1, 1, 100);
    mmu.translate(0x2000000, PageSize::Small4K, 1, 1, 200);
    EXPECT_EQ(mmu.translationCount(), 3u);
    EXPECT_EQ(mmu.lastLevelMissCount(), 2u);
    EXPECT_EQ(mmu.l1HitCount(), 1u);
}

TEST_F(MmuTest, TranslationCyclesAccumulatePostL1Costs)
{
    Mmu &mmu = machine->mmu(0);
    mmu.translate(0x1000000, PageSize::Small4K, 1, 1, 0);
    const std::uint64_t after_miss = mmu.totalTranslationCycles();
    EXPECT_GT(after_miss, 0u);
    // An L1 hit adds nothing.
    mmu.translate(0x1000000, PageSize::Small4K, 1, 1, 100);
    EXPECT_EQ(mmu.totalTranslationCycles(), after_miss);
}

TEST_F(MmuTest, AvgPenaltyPerMissIsSchemeCyclesOnly)
{
    Mmu &mmu = machine->mmu(0);
    const MmuResult result =
        mmu.translate(0x1000000, PageSize::Small4K, 1, 1, 0);
    const Cycles tlb_cost =
        machine->config().l1TlbSmall.missPenalty +
        machine->config().l2Tlb.missPenalty;
    EXPECT_NEAR(mmu.avgPenaltyPerMiss(),
                static_cast<double>(result.cycles - tlb_cost), 1e-9);
}

TEST_F(MmuTest, DifferentPageSizesRouteToDifferentL1s)
{
    Mmu &mmu = machine->mmu(0);
    mmu.translate(0x80000000, PageSize::Large2M, 1, 1, 0);
    const MmuResult hit =
        mmu.translate(0x80000000, PageSize::Large2M, 1, 1, 100);
    EXPECT_EQ(hit.level, TlbLevel::L1);
    EXPECT_TRUE(machine->mmu(0).tlbs().l1LargeTlb().contains(
        0x80000000 >> largePageShift, PageSize::Large2M, 1, 1));
}

TEST_F(MmuTest, VmShootdownForcesRefetch)
{
    Mmu &mmu = machine->mmu(0);
    mmu.translate(0x1000000, PageSize::Small4K, 1, 1, 0);
    mmu.invalidateVm(1);
    const MmuResult after =
        mmu.translate(0x1000000, PageSize::Small4K, 1, 1, 100);
    EXPECT_EQ(after.level, TlbLevel::Miss);
}

TEST_F(MmuTest, PenaltyHistogramFills)
{
    Mmu &mmu = machine->mmu(0);
    for (Addr vaddr = 0x1000000; vaddr < 0x1000000 + 50 * 4096;
         vaddr += 4096) {
        mmu.translate(vaddr, PageSize::Small4K, 1, 1, 0);
    }
    const Histogram &hist = mmu.penaltyHistogram();
    EXPECT_EQ(hist.sampleCount(), 50u);
    EXPECT_GT(hist.mean(), 0.0);
    // Every sample landed in some bucket or the overflow.
    std::uint64_t total = hist.overflow();
    for (std::size_t b = 0; b < hist.bucketCount(); ++b)
        total += hist.bucket(b);
    EXPECT_EQ(total, 50u);
}

TEST_F(MmuTest, StatGroupDumps)
{
    Mmu &mmu = machine->mmu(0);
    mmu.translate(0x1000000, PageSize::Small4K, 1, 1, 0);
    std::vector<std::pair<std::string, double>> flat;
    mmu.stats().collect(flat);
    bool found_translations = false;
    for (const auto &entry : flat) {
        if (entry.first.find("translations") != std::string::npos) {
            found_translations = true;
            EXPECT_DOUBLE_EQ(entry.second, 1.0);
        }
    }
    EXPECT_TRUE(found_translations);
}

TEST_F(MmuTest, ResetStats)
{
    Mmu &mmu = machine->mmu(0);
    mmu.translate(0x1000000, PageSize::Small4K, 1, 1, 0);
    ASSERT_EQ(mmu.penaltyHistogram().sampleCount(), 1u);
    mmu.stats().reset();
    EXPECT_EQ(mmu.translationCount(), 0u);
    EXPECT_EQ(mmu.totalTranslationCycles(), 0u);
    EXPECT_EQ(mmu.lastLevelMissCount(), 0u);
    // The 32-cycle histogram behind penalty_p99_bucket is a derived
    // input of the group, so it resets too.
    EXPECT_EQ(mmu.penaltyHistogram().sampleCount(), 0u);
    EXPECT_EQ(mmu.stats().toJson().at("penalty_p99_bucket").asUint(),
              0u);
}

} // namespace
} // namespace pomtlb
