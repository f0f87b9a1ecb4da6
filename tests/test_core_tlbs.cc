/**
 * @file
 * Per-core TLB-stack tests: level routing, penalty accounting, and
 * the no-private-L2 (Shared_L2 baseline) configuration.
 */

#include <gtest/gtest.h>

#include "tlb/core_tlbs.hh"

namespace pomtlb
{
namespace
{

class CoreTlbsTest : public ::testing::Test
{
  protected:
    CoreTlbsTest() : config(SystemConfig::table1()) {}

    SystemConfig config;
};

TEST_F(CoreTlbsTest, MissThenInsertThenL1Hit)
{
    CoreTlbs tlbs(config, 0, true);
    const CoreTlbResult miss =
        tlbs.lookup(0x10, PageSize::Small4K, 1, 1);
    EXPECT_EQ(miss.level, TlbLevel::Miss);
    EXPECT_EQ(miss.cycles, config.l1TlbSmall.missPenalty +
                               config.l2Tlb.missPenalty);

    tlbs.insert(0x10, PageSize::Small4K, 1, 1, 0x99);
    const CoreTlbResult hit =
        tlbs.lookup(0x10, PageSize::Small4K, 1, 1);
    EXPECT_EQ(hit.level, TlbLevel::L1);
    EXPECT_EQ(hit.cycles, 0u);
    EXPECT_EQ(hit.pfn, 0x99u);
}

TEST_F(CoreTlbsTest, L2HitRefillsL1)
{
    CoreTlbs tlbs(config, 0, true);
    tlbs.insert(0x10, PageSize::Small4K, 1, 1, 0x99);
    // Evict VPN 0x10 from the small L1 TLB (16 sets x 4 ways): fill
    // its set with conflicting entries.
    const unsigned l1_sets = config.l1TlbSmall.numSets();
    for (PageNum vpn = 0x10 + l1_sets; tlbs.l1SmallTlb().contains(
             0x10, PageSize::Small4K, 1, 1);
         vpn += l1_sets) {
        tlbs.l1For(PageSize::Small4K)
            .insert(vpn, PageSize::Small4K, 1, 1, vpn);
    }

    const CoreTlbResult hit =
        tlbs.lookup(0x10, PageSize::Small4K, 1, 1);
    EXPECT_EQ(hit.level, TlbLevel::L2);
    EXPECT_EQ(hit.cycles, config.l1TlbSmall.missPenalty);
    // And the L1 got refilled.
    EXPECT_TRUE(
        tlbs.l1SmallTlb().contains(0x10, PageSize::Small4K, 1, 1));
}

TEST_F(CoreTlbsTest, SplitL1ByPageSize)
{
    CoreTlbs tlbs(config, 0, true);
    tlbs.insert(0x10, PageSize::Small4K, 1, 1, 0xA);
    tlbs.insert(0x10, PageSize::Large2M, 1, 1, 0xB);
    EXPECT_TRUE(
        tlbs.l1SmallTlb().contains(0x10, PageSize::Small4K, 1, 1));
    EXPECT_TRUE(
        tlbs.l1LargeTlb().contains(0x10, PageSize::Large2M, 1, 1));
    EXPECT_FALSE(
        tlbs.l1SmallTlb().contains(0x10, PageSize::Large2M, 1, 1));
}

TEST_F(CoreTlbsTest, NoPrivateL2Configuration)
{
    CoreTlbs tlbs(config, 0, false);
    EXPECT_FALSE(tlbs.hasPrivateL2());
    const CoreTlbResult miss =
        tlbs.lookup(0x10, PageSize::Small4K, 1, 1);
    EXPECT_EQ(miss.level, TlbLevel::Miss);
    // Only the L1 miss penalty applies: there is no private L2.
    EXPECT_EQ(miss.cycles, config.l1TlbSmall.missPenalty);
    EXPECT_EQ(tlbs.l1For(PageSize::Small4K).misses(), 1u);
}

TEST_F(CoreTlbsTest, VmShootdownClearsAllLevels)
{
    CoreTlbs tlbs(config, 0, true);
    tlbs.insert(0x10, PageSize::Small4K, 1, 1, 0xA);
    tlbs.insert(0x20, PageSize::Large2M, 1, 1, 0xB);
    tlbs.invalidateVm(1);
    EXPECT_EQ(tlbs.lookup(0x10, PageSize::Small4K, 1, 1).level,
              TlbLevel::Miss);
    EXPECT_EQ(tlbs.lookup(0x20, PageSize::Large2M, 1, 1).level,
              TlbLevel::Miss);
}

TEST_F(CoreTlbsTest, PageShootdownIsPrecise)
{
    CoreTlbs tlbs(config, 0, true);
    tlbs.insert(0x10, PageSize::Small4K, 1, 1, 0xA);
    tlbs.insert(0x11, PageSize::Small4K, 1, 1, 0xB);
    tlbs.invalidatePage(0x10, PageSize::Small4K, 1, 1);
    EXPECT_EQ(tlbs.lookup(0x10, PageSize::Small4K, 1, 1).level,
              TlbLevel::Miss);
    EXPECT_EQ(tlbs.lookup(0x11, PageSize::Small4K, 1, 1).level,
              TlbLevel::L1);
}

TEST_F(CoreTlbsTest, FlushAndMissCounting)
{
    CoreTlbs tlbs(config, 0, true);
    tlbs.insert(0x10, PageSize::Small4K, 1, 1, 0xA);
    tlbs.invalidateVm(1);
    tlbs.lookup(0x10, PageSize::Small4K, 1, 1);
    tlbs.lookup(0x11, PageSize::Small4K, 1, 1);
    EXPECT_EQ(tlbs.l2Tlb().misses(), 2u);
    tlbs.l2Tlb().stats().reset();
    EXPECT_EQ(tlbs.l2Tlb().misses(), 0u);
}

} // namespace
} // namespace pomtlb
