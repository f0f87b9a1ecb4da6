/**
 * @file
 * Page-walker tests: the Figure 1 reference counts (up to 24 in
 * virtualized mode, up to 4 native), PSC/nested-TLB acceleration,
 * and translation correctness against the memory map.
 */

#include <gtest/gtest.h>

#include "pagetable/walker.hh"

namespace pomtlb
{
namespace
{

class WalkerTest : public ::testing::Test
{
  protected:
    void
    build(ExecMode mode)
    {
        config = SystemConfig::table1();
        config.numCores = 1;
        config.mode = mode;
        memory = std::make_unique<DramController>(config.mainMemory);
        hierarchy = std::make_unique<DataHierarchy>(config, *memory);
        MemoryMapConfig map_config;
        map_config.mode = mode;
        map = std::make_unique<MemoryMap>(map_config);
        walker = std::make_unique<PageWalker>(0, *map, *hierarchy,
                                              config.psc);
    }

    SystemConfig config;
    std::unique_ptr<DramController> memory;
    std::unique_ptr<DataHierarchy> hierarchy;
    std::unique_ptr<MemoryMap> map;
    std::unique_ptr<PageWalker> walker;
};

TEST_F(WalkerTest, NativeColdWalkIsFourRefs)
{
    build(ExecMode::Native);
    const WalkResult result =
        walker->walk(0x123456789000, 1, 1, PageSize::Small4K, 0);
    EXPECT_EQ(result.memRefs, 4u);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_EQ(result.size, PageSize::Small4K);
}

TEST_F(WalkerTest, NativeLargePageWalkIsThreeRefs)
{
    build(ExecMode::Native);
    const WalkResult result =
        walker->walk(0x40000000, 1, 1, PageSize::Large2M, 0);
    EXPECT_EQ(result.memRefs, 3u);
    EXPECT_EQ(result.size, PageSize::Large2M);
}

TEST_F(WalkerTest, VirtualizedColdWalkIs24Refs)
{
    build(ExecMode::Virtualized);
    const WalkResult result =
        walker->walk(0x123456789000, 1, 1, PageSize::Small4K, 0);
    // Figure 1: 4 guest reads, each preceded by a 4-ref host walk,
    // plus the final 4-ref host walk of the data gPA = 24.
    EXPECT_EQ(result.memRefs, 24u);
}

TEST_F(WalkerTest, VirtualizedLargePageColdWalk)
{
    build(ExecMode::Virtualized);
    const WalkResult result =
        walker->walk(0x40000000, 1, 1, PageSize::Large2M, 0);
    // 3 guest reads, each preceded by a 4-ref host walk, plus the
    // final host walk of the data gPA — which is 2 MB-backed, so its
    // EPT walk is 3 reads: 3 + 12 + 3 = 18.
    EXPECT_EQ(result.memRefs, 18u);
}

TEST_F(WalkerTest, RepeatWalkUsesPscAndNestedTlb)
{
    build(ExecMode::Virtualized);
    const Addr vaddr = 0x123456789000;
    const WalkResult cold =
        walker->walk(vaddr, 1, 1, PageSize::Small4K, 0);
    const WalkResult warm =
        walker->walk(vaddr, 1, 1, PageSize::Small4K, 1000);
    // The guest PDE cache skips to the PT level and the nested TLB
    // short-circuits both host walks: one guest read remains.
    EXPECT_LT(warm.memRefs, cold.memRefs);
    EXPECT_LE(warm.memRefs, 2u);
    EXPECT_LT(warm.cycles, cold.cycles);
}

TEST_F(WalkerTest, NeighbourPageBenefitsFromPsc)
{
    build(ExecMode::Virtualized);
    walker->walk(0x123456789000, 1, 1, PageSize::Small4K, 0);
    const WalkResult neighbour =
        walker->walk(0x12345678a000, 1, 1, PageSize::Small4K, 1000);
    // Same 2 MB region: guest PDE cache hit, but a fresh data gPA
    // still needs one host walk (4 refs) plus one guest read.
    EXPECT_LE(neighbour.memRefs, 5u);
}

TEST_F(WalkerTest, TranslationMatchesMemoryMap)
{
    build(ExecMode::Virtualized);
    const Addr vaddr = 0xabcdef1234;
    const WalkResult result =
        walker->walk(vaddr, 3, 7, PageSize::Small4K, 0);
    const TranslationInfo info =
        map->ensureMapped(3, 7, vaddr, PageSize::Small4K);
    EXPECT_EQ(result.hostPfn, info.hpa >> smallPageShift);
}

TEST_F(WalkerTest, NativeTranslationMatchesMemoryMap)
{
    build(ExecMode::Native);
    const Addr vaddr = 0xabcdef1234;
    const WalkResult result =
        walker->walk(vaddr, 3, 7, PageSize::Small4K, 0);
    const TranslationInfo info =
        map->ensureMapped(3, 7, vaddr, PageSize::Small4K);
    EXPECT_EQ(result.hostPfn, info.hpa >> smallPageShift);
}

TEST_F(WalkerTest, StatsAccumulate)
{
    build(ExecMode::Virtualized);
    walker->walk(0x1000000, 1, 1, PageSize::Small4K, 0);
    walker->walk(0x2000000, 1, 1, PageSize::Small4K, 100);
    EXPECT_EQ(walker->walkCount(), 2u);
    EXPECT_GT(walker->avgRefsPerWalk(), 0.0);
    EXPECT_GT(walker->avgCyclesPerWalk(), 0.0);
    const StructureCache &pde = walker->guestPscSet().pdeCache();
    EXPECT_GT(pde.hits() + pde.misses(), 0u);
    walker->stats().reset();
    EXPECT_EQ(walker->walkCount(), 0u);
    // The PSC counters sit behind the walker's psc_* names, so the
    // walker's group resets them too.
    EXPECT_EQ(pde.hits() + pde.misses(), 0u);
}

TEST_F(WalkerTest, VmShootdownForcesFullWalk)
{
    build(ExecMode::Virtualized);
    const Addr vaddr = 0x123456789000;
    walker->walk(vaddr, 1, 1, PageSize::Small4K, 0);
    walker->invalidateVm(1);
    // PSC and nested TLB are cold again; only the data caches still
    // hold PTE lines, so the reference count is back to 24.
    const WalkResult after =
        walker->walk(vaddr, 1, 1, PageSize::Small4K, 1000);
    EXPECT_EQ(after.memRefs, 24u);
}

TEST_F(WalkerTest, VirtualizedCostExceedsNative)
{
    build(ExecMode::Virtualized);
    const WalkResult virt =
        walker->walk(0x123456789000, 1, 1, PageSize::Small4K, 0);

    build(ExecMode::Native);
    const WalkResult native =
        walker->walk(0x123456789000, 1, 1, PageSize::Small4K, 0);

    EXPECT_GT(virt.cycles, native.cycles);
    EXPECT_GT(virt.memRefs, native.memRefs);
}

} // namespace
} // namespace pomtlb
