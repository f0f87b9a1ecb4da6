/**
 * @file
 * SRAM TLB tests: tag matching across page sizes, VM/process
 * isolation, eviction, and shootdowns.
 */

#include <gtest/gtest.h>

#include "tlb/tlb.hh"

namespace pomtlb
{
namespace
{

TlbConfig
tinyTlb()
{
    TlbConfig config;
    config.name = "test";
    config.entries = 16;
    config.associativity = 4; // 4 sets
    config.missPenalty = 9;
    return config;
}

TEST(Tlb, InsertThenLookup)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0x900);
    const TlbLookupResult hit =
        tlb.lookup(0x100, PageSize::Small4K, 1, 2);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.pfn, 0x900u);
}

TEST(Tlb, PageSizeIsPartOfTheTag)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0x900);
    EXPECT_FALSE(tlb.lookup(0x100, PageSize::Large2M, 1, 2).hit);
}

TEST(Tlb, VmAndPidIsolation)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0x900);
    EXPECT_FALSE(tlb.lookup(0x100, PageSize::Small4K, 2, 2).hit);
    EXPECT_FALSE(tlb.lookup(0x100, PageSize::Small4K, 1, 3).hit);
}

TEST(Tlb, SameVpnDifferentVmsCoexist)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0xA);
    tlb.insert(0x100, PageSize::Small4K, 2, 2, 0xB);
    EXPECT_EQ(tlb.lookup(0x100, PageSize::Small4K, 1, 2).pfn, 0xAu);
    EXPECT_EQ(tlb.lookup(0x100, PageSize::Small4K, 2, 2).pfn, 0xBu);
}

TEST(Tlb, LruEvictionWithinSet)
{
    SetAssocTlb tlb(tinyTlb());
    // VPNs 0, 4, 8, 12, 16 all map to set 0 (4 sets), vm 0.
    for (PageNum vpn = 0; vpn < 16; vpn += 4)
        tlb.insert(vpn, PageSize::Small4K, 0, 0, vpn + 100);
    tlb.insert(16, PageSize::Small4K, 0, 0, 116);
    // VPN 0 was least recently used and must be gone.
    EXPECT_FALSE(tlb.contains(0, PageSize::Small4K, 0, 0));
    EXPECT_TRUE(tlb.contains(16, PageSize::Small4K, 0, 0));
    EXPECT_EQ(tlb.validEntryCount(), 4u);
}

TEST(Tlb, ReinsertUpdatesPfnInPlace)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0x900);
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0x901);
    EXPECT_EQ(tlb.validEntryCount(), 1u);
    EXPECT_EQ(tlb.lookup(0x100, PageSize::Small4K, 1, 2).pfn, 0x901u);
}

TEST(Tlb, InvalidatePage)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0x900);
    EXPECT_TRUE(tlb.invalidatePage(0x100, PageSize::Small4K, 1, 2));
    EXPECT_FALSE(tlb.contains(0x100, PageSize::Small4K, 1, 2));
    EXPECT_FALSE(tlb.invalidatePage(0x100, PageSize::Small4K, 1, 2));
}

TEST(Tlb, VmShootdownDropsOnlyThatVm)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0xA);
    tlb.insert(0x101, PageSize::Small4K, 1, 2, 0xB);
    tlb.insert(0x100, PageSize::Small4K, 2, 2, 0xC);
    EXPECT_EQ(tlb.invalidateVm(1), 2u);
    EXPECT_FALSE(tlb.contains(0x100, PageSize::Small4K, 1, 2));
    EXPECT_TRUE(tlb.contains(0x100, PageSize::Small4K, 2, 2));
}

TEST(Tlb, HitRateTracksLookups)
{
    SetAssocTlb tlb(tinyTlb());
    tlb.insert(0x100, PageSize::Small4K, 1, 2, 0xA);
    tlb.lookup(0x100, PageSize::Small4K, 1, 2);
    tlb.lookup(0x999, PageSize::Small4K, 1, 2);
    EXPECT_DOUBLE_EQ(tlb.hitRate(), 0.5);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
    tlb.stats().reset();
    EXPECT_EQ(tlb.hits(), 0u);
    EXPECT_EQ(tlb.misses(), 0u);
}

} // namespace
} // namespace pomtlb
