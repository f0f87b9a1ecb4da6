/**
 * @file
 * POM-TLB device tests: timed DRAM lookups, untimed set search,
 * installs, shootdowns, and row-buffer behaviour of adjacent sets.
 */

#include <gtest/gtest.h>

#include "pomtlb/pom_tlb.hh"

namespace pomtlb
{
namespace
{

class PomTlbTest : public ::testing::Test
{
  protected:
    PomTlbTest()
    {
        config.validate();
        DramConfig die = DramConfig::dieStacked();
        die.coreFreqGhz = 4.0;
        dram = std::make_unique<DramController>(die);
        pom = std::make_unique<PomTlb>(config, *dram);
    }

    PomTlbConfig config;
    std::unique_ptr<DramController> dram;
    std::unique_ptr<PomTlb> pom;
};

TEST_F(PomTlbTest, MissThenInstallThenHit)
{
    const Addr vaddr = 0x123456000;
    const PomTlbDeviceResult miss =
        pom->lookupDram(vaddr, 1, 1, PageSize::Small4K, 0);
    EXPECT_FALSE(miss.hit);
    EXPECT_GT(miss.cycles, 0u);

    pom->install(vaddr, 1, 1, PageSize::Small4K, 0x777, 1000);
    const PomTlbDeviceResult hit =
        pom->lookupDram(vaddr, 1, 1, PageSize::Small4K, 2000);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.pfn, 0x777u);
}

TEST_F(PomTlbTest, PartitionsAreIndependent)
{
    const Addr vaddr = 0x40000000;
    pom->install(vaddr, 1, 1, PageSize::Large2M, 0x9, 0);
    EXPECT_FALSE(
        pom->lookupDram(vaddr, 1, 1, PageSize::Small4K, 100).hit);
    EXPECT_TRUE(
        pom->lookupDram(vaddr, 1, 1, PageSize::Large2M, 200).hit);
}

TEST_F(PomTlbTest, SearchSetIsUntimed)
{
    const Addr vaddr = 0x123456000;
    pom->installUntimed(vaddr, 1, 1, PageSize::Small4K, 0x777);
    const std::uint64_t before = dram->accessCount();
    const PomTlbArrayResult search =
        pom->searchSet(vaddr, 1, 1, PageSize::Small4K);
    EXPECT_TRUE(search.hit);
    EXPECT_EQ(search.pfn, 0x777u);
    EXPECT_EQ(dram->accessCount(), before);
}

TEST_F(PomTlbTest, SetAddressInPartitionRange)
{
    const Addr small =
        pom->setAddress(0x123456000, 1, PageSize::Small4K);
    const Addr large =
        pom->setAddress(0x123456000, 1, PageSize::Large2M);
    EXPECT_EQ(pom->addrMap().partitionOf(small), PageSize::Small4K);
    EXPECT_EQ(pom->addrMap().partitionOf(large), PageSize::Large2M);
}

TEST_F(PomTlbTest, AdjacentPagesHitSameDramRow)
{
    // Section 4.4: consecutive VPNs map to consecutive sets, which
    // share a 2 KB DRAM row (32 sets per row).
    pom->lookupDram(0x10000000, 1, 1, PageSize::Small4K, 0);
    const PomTlbDeviceResult next =
        pom->lookupDram(0x10001000, 1, 1, PageSize::Small4K, 1000);
    EXPECT_EQ(next.rowBuffer, RowBufferOutcome::Hit);
}

TEST_F(PomTlbTest, InvalidatePageAndVm)
{
    const Addr vaddr = 0x123456000;
    pom->installUntimed(vaddr, 1, 1, PageSize::Small4K, 1);
    pom->installUntimed(vaddr, 2, 1, PageSize::Small4K, 2);
    EXPECT_TRUE(pom->invalidatePage(vaddr, 1, 1, PageSize::Small4K));
    EXPECT_FALSE(
        pom->searchSet(vaddr, 1, 1, PageSize::Small4K).hit);
    EXPECT_TRUE(pom->searchSet(vaddr, 2, 1, PageSize::Small4K).hit);
    EXPECT_EQ(pom->invalidateVm(2), 1u);
}

TEST_F(PomTlbTest, HitRateAcrossPartitions)
{
    pom->installUntimed(0x1000, 1, 1, PageSize::Small4K, 1);
    pom->searchSet(0x1000, 1, 1, PageSize::Small4K); // hit
    pom->searchSet(0x2000, 1, 1, PageSize::Small4K); // miss
    EXPECT_DOUBLE_EQ(pom->hitRate(), 0.5);
    pom->stats().reset();
    EXPECT_DOUBLE_EQ(pom->hitRate(), 0.0);
}

TEST_F(PomTlbTest, CapacityScalesWithConfig)
{
    PomTlbConfig big = config;
    big.capacityBytes = 32 * 1024 * 1024;
    PomTlb bigger(big, *dram);
    EXPECT_EQ(bigger.partition(PageSize::Small4K).setCount(),
              2 * pom->partition(PageSize::Small4K).setCount());
}

} // namespace
} // namespace pomtlb
