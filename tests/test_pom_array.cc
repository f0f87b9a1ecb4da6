/**
 * @file
 * POM-TLB partition tests: associative search, the 2-bit in-attr LRU
 * replacement of Section 2.2, and shootdowns.
 */

#include <gtest/gtest.h>

#include "pomtlb/array.hh"

namespace pomtlb
{
namespace
{

TEST(PomArray, InsertLookup)
{
    PomTlbPartition part("p", 16, 4);
    part.insert(3, 0x100, 1, 2, PageSize::Small4K, 0x900);
    const PomTlbArrayResult hit =
        part.lookup(3, 0x100, 1, 2, PageSize::Small4K);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.pfn, 0x900u);
    EXPECT_EQ(part.validEntryCount(), 1u);
}

TEST(PomArray, MissOnWrongTag)
{
    PomTlbPartition part("p", 16, 4);
    part.insert(3, 0x100, 1, 2, PageSize::Small4K, 0x900);
    EXPECT_FALSE(part.lookup(3, 0x101, 1, 2, PageSize::Small4K).hit);
    EXPECT_FALSE(part.lookup(3, 0x100, 2, 2, PageSize::Small4K).hit);
    EXPECT_FALSE(part.lookup(3, 0x100, 1, 3, PageSize::Small4K).hit);
}

TEST(PomArray, FourWayCapacityPerSet)
{
    PomTlbPartition part("p", 16, 4);
    for (PageNum vpn = 0; vpn < 4; ++vpn)
        part.insert(0, vpn, 1, 1, PageSize::Small4K, vpn + 100);
    for (PageNum vpn = 0; vpn < 4; ++vpn)
        EXPECT_TRUE(part.lookup(0, vpn, 1, 1, PageSize::Small4K).hit);
    EXPECT_EQ(part.validEntryCount(), 4u);
}

TEST(PomArray, LruBitsPickOldestVictim)
{
    PomTlbPartition part("p", 16, 4);
    for (PageNum vpn = 0; vpn < 4; ++vpn)
        part.insert(0, vpn, 1, 1, PageSize::Small4K, vpn);
    // Touch 0 so it is youngest; 1 becomes the saturated-oldest.
    part.lookup(0, 0, 1, 1, PageSize::Small4K);
    part.insert(0, 99, 1, 1, PageSize::Small4K, 99);
    EXPECT_TRUE(part.lookup(0, 0, 1, 1, PageSize::Small4K).hit);
    EXPECT_FALSE(part.lookup(0, 1, 1, 1, PageSize::Small4K).hit);
    EXPECT_TRUE(part.lookup(0, 99, 1, 1, PageSize::Small4K).hit);
}

TEST(PomArray, ReinsertRefreshesInPlace)
{
    PomTlbPartition part("p", 16, 4);
    part.insert(0, 7, 1, 1, PageSize::Small4K, 10);
    part.insert(0, 7, 1, 1, PageSize::Small4K, 11);
    EXPECT_EQ(part.validEntryCount(), 1u);
    EXPECT_EQ(part.lookup(0, 7, 1, 1, PageSize::Small4K).pfn, 11u);
}

TEST(PomArray, InvalidatePage)
{
    PomTlbPartition part("p", 16, 4);
    part.insert(0, 7, 1, 1, PageSize::Small4K, 10);
    EXPECT_TRUE(part.invalidatePage(0, 7, 1, 1, PageSize::Small4K));
    EXPECT_FALSE(part.lookup(0, 7, 1, 1, PageSize::Small4K).hit);
    EXPECT_FALSE(part.invalidatePage(0, 7, 1, 1, PageSize::Small4K));
    EXPECT_EQ(part.validEntryCount(), 0u);
}

TEST(PomArray, InvalidateVm)
{
    PomTlbPartition part("p", 16, 4);
    part.insert(0, 7, 1, 1, PageSize::Small4K, 10);
    part.insert(1, 8, 1, 1, PageSize::Small4K, 11);
    part.insert(2, 9, 2, 1, PageSize::Small4K, 12);
    EXPECT_EQ(part.invalidateVm(1), 2u);
    EXPECT_EQ(part.validEntryCount(), 1u);
    EXPECT_TRUE(part.lookup(2, 9, 2, 1, PageSize::Small4K).hit);
}

TEST(PomArray, HitRateAndReset)
{
    PomTlbPartition part("p", 16, 4);
    part.insert(0, 7, 1, 1, PageSize::Small4K, 10);
    part.lookup(0, 7, 1, 1, PageSize::Small4K);
    part.lookup(0, 8, 1, 1, PageSize::Small4K);
    EXPECT_DOUBLE_EQ(part.hitRate(), 0.5);
    part.stats().reset();
    EXPECT_EQ(part.hits(), 0u);
    EXPECT_EQ(part.misses(), 0u);
}

TEST(PomArray, MultiVmEntriesSameSet)
{
    // Section 5.2: the large TLB retains translations of many VMs.
    PomTlbPartition part("p", 16, 4);
    for (VmId vm = 1; vm <= 4; ++vm)
        part.insert(5, 0x42, vm, 1, PageSize::Small4K, vm * 10);
    for (VmId vm = 1; vm <= 4; ++vm) {
        const PomTlbArrayResult hit =
            part.lookup(5, 0x42, vm, 1, PageSize::Small4K);
        EXPECT_TRUE(hit.hit);
        EXPECT_EQ(hit.pfn, static_cast<PageNum>(vm) * 10);
    }
}

} // namespace
} // namespace pomtlb
