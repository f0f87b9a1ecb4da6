/**
 * @file
 * Page-structure-cache tests: coverage granularity, LRU within the
 * tiny Table 1 capacities, probe priority, and VM shootdowns.
 */

#include <gtest/gtest.h>

#include "pagetable/psc.hh"

namespace pomtlb
{
namespace
{

PscConfig
table1Psc()
{
    return PscConfig{};
}

TEST(StructureCache, CoversItsRegion)
{
    StructureCache pde(4, WalkLevel::Pd);
    pde.insert(0x0, 1, 1);
    // Any address within the same 2 MB region hits.
    EXPECT_TRUE(pde.lookup(0x1fffff, 1, 1));
    // The next region misses.
    EXPECT_FALSE(pde.lookup(0x200000, 1, 1));
}

TEST(StructureCache, VmAndPidTagged)
{
    StructureCache pde(4, WalkLevel::Pd);
    pde.insert(0x0, 1, 1);
    EXPECT_FALSE(pde.lookup(0x0, 2, 1));
    EXPECT_FALSE(pde.lookup(0x0, 1, 2));
}

TEST(StructureCache, LruEvictionAtCapacity)
{
    StructureCache pml4(2, WalkLevel::Pml4);
    const Addr region = Addr{1} << 39;
    pml4.insert(0 * region, 1, 1);
    pml4.insert(1 * region, 1, 1);
    // Touch region 0 so region 1 is LRU.
    EXPECT_TRUE(pml4.lookup(0 * region, 1, 1));
    pml4.insert(2 * region, 1, 1);
    EXPECT_TRUE(pml4.lookup(0 * region, 1, 1));
    EXPECT_FALSE(pml4.lookup(1 * region, 1, 1));
    EXPECT_TRUE(pml4.lookup(2 * region, 1, 1));
}

TEST(PscSet, DeepestHitWins)
{
    PscSet psc(table1Psc());
    const Addr addr = 0x12345678;
    psc.fill(addr, 1, 1, 4);
    psc.fill(addr, 1, 1, 3);
    psc.fill(addr, 1, 1, 2);
    const PscProbeResult probe = psc.probe(addr, 1, 1);
    EXPECT_EQ(probe.deepestHitLevel, 2u);
    EXPECT_EQ(probe.cycles, table1Psc().accessLatency);
}

TEST(PscSet, PartialFillHitsUpperLevel)
{
    PscSet psc(table1Psc());
    const Addr addr = 0x12345678;
    psc.fill(addr, 1, 1, 3);
    const PscProbeResult probe = psc.probe(addr, 1, 1);
    EXPECT_EQ(probe.deepestHitLevel, 3u);
}

TEST(PscSet, MissReturnsZero)
{
    PscSet psc(table1Psc());
    const PscProbeResult probe = psc.probe(0x999999999, 1, 1);
    EXPECT_EQ(probe.deepestHitLevel, 0u);
    // Probes still cost the access latency.
    EXPECT_EQ(probe.cycles, table1Psc().accessLatency);
}

TEST(PscSet, LeafFillsIgnored)
{
    PscSet psc(table1Psc());
    psc.fill(0x1000, 1, 1, 1); // PT-level entries belong in TLBs
    EXPECT_EQ(psc.probe(0x1000, 1, 1).deepestHitLevel, 0u);
}

TEST(PscSet, VmShootdown)
{
    PscSet psc(table1Psc());
    psc.fill(0x1000, 1, 1, 2);
    psc.fill(0x1000, 2, 1, 2);
    psc.invalidateVm(1);
    EXPECT_EQ(psc.probe(0x1000, 1, 1).deepestHitLevel, 0u);
    EXPECT_EQ(psc.probe(0x1000, 2, 1).deepestHitLevel, 2u);
}

TEST(PscSet, HitAndMissCounters)
{
    PscSet psc(table1Psc());
    psc.fill(0x1000, 1, 1, 2);
    psc.probe(0x1000, 1, 1);   // PDE hit
    psc.probe(0x5000000, 1, 1); // all miss
    EXPECT_EQ(psc.pdeCache().hits(), 1u);
    EXPECT_GE(psc.pdeCache().misses(), 1u);
    EXPECT_GE(psc.pml4Cache().misses(), 1u);
}

} // namespace
} // namespace pomtlb
