/**
 * @file
 * Edge-case and failure-injection tests: degenerate geometries,
 * boundary addresses, exhaustion paths, and misconfiguration.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "common/log.hh"
#include "dram/controller.hh"
#include "pagetable/radix_table.hh"
#include "pomtlb/array.hh"
#include "sim/experiment.hh"
#include "tlb/tlb.hh"

namespace pomtlb
{
namespace
{

// ----------------------------------------------------------------
// Degenerate geometries.
// ----------------------------------------------------------------

TEST(EdgeCache, DirectMappedWorks)
{
    CacheConfig config;
    config.name = "dm";
    config.sizeBytes = 1024;
    config.associativity = 1;
    config.lineBytes = 64;
    SetAssocCache cache(config);
    cache.fill(0x0, LineKind::Data);
    // The conflicting address (same set, different tag) evicts.
    const CacheFillResult fill = cache.fill(0x400, LineKind::Data);
    EXPECT_TRUE(fill.evicted);
    EXPECT_FALSE(cache.contains(0x0));
}

TEST(EdgeCache, FullyAssociativeSingleSet)
{
    CacheConfig config;
    config.name = "fa";
    config.sizeBytes = 256;
    config.associativity = 4;
    config.lineBytes = 64; // exactly one set
    SetAssocCache cache(config);
    for (Addr addr = 0; addr < 4 * 64; addr += 64)
        cache.fill(addr, LineKind::Data);
    EXPECT_EQ(cache.validLineCount(), 4u);
    cache.fill(0x10000, LineKind::Data);
    EXPECT_EQ(cache.validLineCount(), 4u);
}

TEST(EdgeTlb, SingleSetTlb)
{
    TlbConfig config;
    config.name = "tiny";
    config.entries = 4;
    config.associativity = 4;
    SetAssocTlb tlb(config);
    for (PageNum vpn = 0; vpn < 8; ++vpn)
        tlb.insert(vpn, PageSize::Small4K, 0, 0, vpn);
    EXPECT_EQ(tlb.validEntryCount(), 4u);
}

TEST(EdgePom, SingleWayPartitionEvictsInPlace)
{
    PomTlbPartition partition("dm", 8, 1);
    partition.insert(3, 100, 1, 1, PageSize::Small4K, 1);
    partition.insert(3, 200, 1, 1, PageSize::Small4K, 2);
    EXPECT_FALSE(
        partition.lookup(3, 100, 1, 1, PageSize::Small4K).hit);
    EXPECT_TRUE(
        partition.lookup(3, 200, 1, 1, PageSize::Small4K).hit);
    EXPECT_EQ(partition.validEntryCount(), 1u);
}

// ----------------------------------------------------------------
// Boundary addresses.
// ----------------------------------------------------------------

TEST(EdgeAddress, CanonicalTopOfUserSpace)
{
    // 47-bit user VA boundary: the highest mappable 4 KB page.
    MemoryMap map(MemoryMapConfig{});
    const Addr vaddr = (Addr{1} << 47) - smallPageBytes;
    const TranslationInfo info =
        map.ensureMapped(1, 1, vaddr, PageSize::Small4K);
    EXPECT_EQ(map.hostTranslate(1, info.gpa), info.hpa);
    EXPECT_TRUE(map.guestTable(1, 1).isMapped(vaddr));
}

TEST(EdgeAddress, PageZero)
{
    MemoryMap map(MemoryMapConfig{});
    const TranslationInfo info =
        map.ensureMapped(1, 1, 0x0, PageSize::Small4K);
    EXPECT_NE(info.hpa, 0u); // frame 0 is never handed out
}

TEST(EdgeAddress, LastByteOfLargePage)
{
    MemoryMap map(MemoryMapConfig{});
    const Addr base = Addr{5} << largePageShift;
    const TranslationInfo first =
        map.ensureMapped(1, 1, base, PageSize::Large2M);
    const TranslationInfo last = map.ensureMapped(
        1, 1, base + largePageBytes - 1, PageSize::Large2M);
    EXPECT_EQ(pageBase(first.hpa, PageSize::Large2M),
              pageBase(last.hpa, PageSize::Large2M));
    EXPECT_EQ(last.hpa - first.hpa, largePageBytes - 1);
}

// ----------------------------------------------------------------
// Exhaustion and misconfiguration.
// ----------------------------------------------------------------

TEST(EdgeAllocator, ExhaustionIsFatal)
{
    FrameAllocator frames(0x1000, 0x4000); // room for 3 frames
    frames.allocate(PageSize::Small4K);
    frames.allocate(PageSize::Small4K);
    frames.allocate(PageSize::Small4K);
    EXPECT_THROW(frames.allocate(PageSize::Small4K), FatalError);
}

TEST(EdgeConfig, ZeroCoresRejected)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 0;
    EXPECT_THROW(config.validate(), FatalError);
}

TEST(EdgeConfig, UncacheableNonLineSetAccepted)
{
    // The associativity ablation's geometry: legal only with caching
    // off.
    SystemConfig config = SystemConfig::table1();
    config.pomTlb.associativity = 2;
    config.pomTlb.cacheable = false;
    EXPECT_NO_THROW(config.validate());
    config.pomTlb.cacheable = true;
    EXPECT_THROW(config.validate(), FatalError);
}

TEST(EdgeDram, SingleBankSerializes)
{
    DramConfig config = DramConfig::dieStacked();
    config.numBanks = 1;
    config.coreFreqGhz = 4.0;
    DramController dram(config);
    const DramAccessResult first = dram.access(0, 0);
    const DramAccessResult second =
        dram.access(1u << 20, 0); // other row, same (only) bank
    EXPECT_EQ(second.outcome, RowBufferOutcome::Conflict);
    EXPECT_GT(second.latency, first.latency);
}

TEST(EdgeRadix, DeepTreeIndependentSubtrees)
{
    FrameAllocator frames(0x1000, Addr{1} << 40);
    RadixPageTable table("deep", frames);
    // Two VPNs differing only in the PML4 index.
    const PageNum lo = 0x1;
    const PageNum hi = lo + (PageNum{1} << 27); // bit 39 of the VA
    table.map(lo, PageSize::Small4K, 10);
    table.map(hi, PageSize::Small4K, 20);
    EXPECT_EQ(table.walk(lo << smallPageShift).pfn, 10u);
    EXPECT_EQ(table.walk(hi << smallPageShift).pfn, 20u);
    table.unmap(lo << smallPageShift);
    EXPECT_EQ(table.walk(hi << smallPageShift).pfn, 20u);
}

// ----------------------------------------------------------------
// Tiny run lengths: the engine must behave at the extremes.
// ----------------------------------------------------------------

TEST(EdgeEngine, ZeroWarmup)
{
    ExperimentConfig config;
    config.system.numCores = 1;
    config.engine.refsPerCore = 100;
    config.engine.warmupRefsPerCore = 0;
    const SchemeRunSummary summary = runScheme(
        ProfileRegistry::byName("gups"), "POM-TLB", config);
    EXPECT_EQ(summary.run.totals().refs, 100u);
}

TEST(EdgeEngine, SingleReference)
{
    ExperimentConfig config;
    config.system.numCores = 1;
    config.engine.refsPerCore = 1;
    config.engine.warmupRefsPerCore = 0;
    const SchemeRunSummary summary = runScheme(
        ProfileRegistry::byName("mcf"), "Baseline",
        config);
    EXPECT_EQ(summary.run.totals().refs, 1u);
}

} // namespace
} // namespace pomtlb
