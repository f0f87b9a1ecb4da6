/**
 * @file
 * Configuration validation tests: Table 1 defaults must validate and
 * impossible geometries must be rejected.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "common/log.hh"

namespace pomtlb
{
namespace
{

TEST(Config, Table1Validates)
{
    EXPECT_NO_THROW(SystemConfig::table1());
}

TEST(Config, Table1MatchesPaper)
{
    const SystemConfig config = SystemConfig::table1();
    EXPECT_EQ(config.numCores, 8u);
    EXPECT_DOUBLE_EQ(config.coreFreqGhz, 4.0);
    EXPECT_EQ(config.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(config.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(config.l3.sizeBytes, 8u * 1024 * 1024);
    EXPECT_EQ(config.l1TlbSmall.entries, 64u);
    EXPECT_EQ(config.l1TlbLarge.entries, 32u);
    EXPECT_EQ(config.l2Tlb.entries, 1536u);
    EXPECT_EQ(config.l2Tlb.associativity, 12u);
    EXPECT_EQ(config.psc.pml4Entries, 2u);
    EXPECT_EQ(config.psc.pdpEntries, 4u);
    EXPECT_EQ(config.psc.pdeEntries, 32u);
    EXPECT_EQ(config.pomTlb.capacityBytes, 16u * 1024 * 1024);
    EXPECT_EQ(config.pomTlb.associativity, 4u);
    EXPECT_EQ(config.pomTlb.entryBytes, 16u);
    EXPECT_EQ(config.dieStacked.tCas, 11u);
    EXPECT_EQ(config.mainMemory.tCas, 14u);
    EXPECT_EQ(config.dieStacked.rowBufferBytes, 2048u);
}

TEST(Config, CacheRejectsNonPowerOfTwoSets)
{
    CacheConfig cache;
    cache.sizeBytes = 3 * 1024;
    cache.associativity = 4;
    cache.lineBytes = 64;
    EXPECT_THROW(cache.validate(), FatalError);
}

TEST(Config, CacheSetCount)
{
    CacheConfig cache;
    cache.sizeBytes = 256 * 1024;
    cache.associativity = 4;
    cache.lineBytes = 64;
    EXPECT_EQ(cache.numSets(), 1024u);
}

TEST(Config, DramBurstCycles)
{
    DramConfig die = DramConfig::dieStacked();
    // 64 B over a 128-bit DDR bus: 4 beats = 2 bus cycles.
    EXPECT_DOUBLE_EQ(die.burstBusCycles(), 2.0);

    DramConfig ddr = DramConfig::ddr4();
    // 64 B over a 64-bit DDR bus: 8 beats = 4 bus cycles.
    EXPECT_DOUBLE_EQ(ddr.burstBusCycles(), 4.0);
}

TEST(Config, DramCoreCycleConversion)
{
    DramConfig die = DramConfig::dieStacked();
    die.coreFreqGhz = 4.0;
    die.busFreqGhz = 1.0;
    // One bus cycle at 1 GHz is four 4 GHz core cycles.
    EXPECT_EQ(die.toCoreCycles(1.0), 4u);
    EXPECT_EQ(die.toCoreCycles(2.5), 10u);
}

TEST(Config, PomTlbPartitionsSplitCapacity)
{
    PomTlbConfig pom;
    EXPECT_EQ(pom.smallPartitionBytes() + pom.largePartitionBytes(),
              pom.capacityBytes);
    EXPECT_NO_THROW(pom.validate());
}

TEST(Config, PomTlbRejectsWrongEntrySize)
{
    PomTlbConfig pom;
    pom.entryBytes = 8;
    EXPECT_THROW(pom.validate(), FatalError);
}

TEST(Config, TsbDefaults)
{
    TsbConfig tsb;
    EXPECT_NO_THROW(tsb.validate());
    EXPECT_EQ(tsb.capacityBytes, 16u * 1024 * 1024);
    EXPECT_EQ(tsb.accessesPerTranslation, 2u);
}

TEST(Config, SystemRejectsMismatchedLineSizes)
{
    SystemConfig config = SystemConfig::table1();
    config.l1d.lineBytes = 32;
    config.l1d.associativity = 8;
    EXPECT_THROW(config.validate(), FatalError);
}

TEST(Config, SetAssociativeStructuresHoldAtMost64Ways)
{
    // One 64-bit mask matches a set, so a 65th way cannot be named.
    CacheConfig cache{"wide", 64 * 64, 64, 64, 4};
    EXPECT_NO_THROW(cache.validate());
    cache.sizeBytes = 65 * 64;
    cache.associativity = 65;
    EXPECT_THROW(cache.validate(), FatalError);

    TlbConfig tlb{"wide", 64, 64, 9, 1};
    EXPECT_NO_THROW(tlb.validate());
    tlb.entries = 65;
    tlb.associativity = 65;
    EXPECT_THROW(tlb.validate(), FatalError);

    PscConfig psc;
    psc.pdeEntries = 64;
    EXPECT_NO_THROW(psc.validate());
    psc.pdeEntries = 65;
    EXPECT_THROW(psc.validate(), FatalError);
    psc = PscConfig{};
    psc.nestedTlbEntries = 65;
    psc.nestedTlbAssociativity = 65;
    EXPECT_THROW(psc.validate(), FatalError);

    CoalescedTlbConfig coalesced;
    coalesced.associativity = 64;
    EXPECT_NO_THROW(coalesced.validate());
    coalesced.associativity = 65;
    EXPECT_THROW(coalesced.validate(), FatalError);
}

} // namespace
} // namespace pomtlb
