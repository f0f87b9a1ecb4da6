/**
 * @file
 * Coalesced store tests: walk results merge into a run while their
 * frames stay contiguous and re-anchor it when contiguity breaks;
 * single-page and VM shootdowns drop exactly what they name; and the
 * merges / splits / avg_pages_per_entry statistics follow.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/json.hh"
#include "schemes/coalesced_scheme.hh"
#include "sim/machine.hh"

namespace pomtlb
{
namespace
{

constexpr PageSize small = PageSize::Small4K;

class CoalescedStore : public ::testing::Test
{
  protected:
    CoalescedStore() : machine(oneCore(), "Coalesced")
    {
        scheme = dynamic_cast<CoalescedTlbScheme *>(&machine.scheme());
    }

    static SystemConfig
    oneCore()
    {
        SystemConfig config = SystemConfig::table1();
        config.numCores = 1;
        return config;
    }

    /** Page @p index of the aligned run at 1 TB. */
    static Addr
    page(unsigned index)
    {
        return (Addr{1} << 40) + Addr{index} * 4096;
    }

    SchemeResult
    translate(unsigned index, VmId vm = 1)
    {
        return scheme->translateMiss(0, page(index), small, vm, 1, 0);
    }

    double
    stat(const char *name) const
    {
        return scheme->stats().toJson().at(name).asNumber();
    }

    /**
     * A page of the run whose successor the memory map placed on the
     * next frame, mapping all of the run's pages first.
     */
    std::optional<unsigned>
    contiguousPair()
    {
        MemoryMap &map = machine.memoryMap();
        std::vector<PageNum> frames;
        for (unsigned i = 0; i < 8; ++i)
            frames.push_back(map.ensureMapped(1, 1, page(i), small).hpa >> 12);
        for (unsigned i = 0; i + 1 < 8; ++i) {
            if (frames[i + 1] == frames[i] + 1)
                return i;
        }
        return std::nullopt;
    }

    Machine machine;
    CoalescedTlbScheme *scheme = nullptr;
};

TEST_F(CoalescedStore, ContiguousFramesMergeIntoOneEntry)
{
    ASSERT_NE(scheme, nullptr);
    const std::optional<unsigned> pair = contiguousPair();
    ASSERT_TRUE(pair.has_value());
    const unsigned first = *pair;

    EXPECT_TRUE(translate(first).walked);
    EXPECT_TRUE(translate(first + 1).walked);
    EXPECT_EQ(stat("merges"), 1.0);
    EXPECT_EQ(stat("splits"), 0.0);
    EXPECT_DOUBLE_EQ(stat("avg_pages_per_entry"), 2.0);

    // Both pages now hit the one entry, at the walk's frames.
    const SchemeResult a = translate(first);
    const SchemeResult b = translate(first + 1);
    EXPECT_EQ(a.servedBy, ServicePoint::CoalescedTlb);
    EXPECT_EQ(b.servedBy, ServicePoint::CoalescedTlb);
    EXPECT_EQ(b.pfn, a.pfn + 1);
    EXPECT_EQ(stat("hits"), 2.0);
}

TEST_F(CoalescedStore, BrokenContiguityReanchorsTheRun)
{
    ASSERT_NE(scheme, nullptr);
    const std::optional<unsigned> pair = contiguousPair();
    ASSERT_TRUE(pair.has_value());
    const unsigned first = *pair;
    translate(first);
    translate(first + 1);

    // Migrate the second page: the fresh frame sits far past the run.
    scheme->invalidatePage(page(first + 1), small, 1, 1);
    ASSERT_TRUE(machine.memoryMap().unmapPage(1, 1, page(first + 1),
                                              small));
    const SchemeResult moved = translate(first + 1);
    EXPECT_TRUE(moved.walked);
    EXPECT_EQ(stat("splits"), 1.0);
    EXPECT_DOUBLE_EQ(stat("avg_pages_per_entry"), 1.0);

    // The re-anchored run covers only the moved page.
    EXPECT_EQ(translate(first + 1).servedBy, ServicePoint::CoalescedTlb);
    EXPECT_EQ(translate(first + 1).pfn, moved.pfn);
    EXPECT_TRUE(translate(first).walked);
}

TEST_F(CoalescedStore, InvalidatePageClearsOnePageAndFreesTheLast)
{
    ASSERT_NE(scheme, nullptr);
    const std::optional<unsigned> pair = contiguousPair();
    ASSERT_TRUE(pair.has_value());
    const unsigned first = *pair;
    translate(first);
    translate(first + 1);

    scheme->invalidatePage(page(first), small, 1, 1);
    EXPECT_DOUBLE_EQ(stat("avg_pages_per_entry"), 1.0);
    EXPECT_EQ(translate(first + 1).servedBy, ServicePoint::CoalescedTlb);

    scheme->invalidatePage(page(first + 1), small, 1, 1);
    // No live entry is left to average over.
    EXPECT_DOUBLE_EQ(stat("avg_pages_per_entry"), 0.0);
    EXPECT_TRUE(translate(first + 1).walked);
    // Invalidating a page the run does not hold changes nothing.
    scheme->invalidatePage(page(first), small, 1, 1);
    EXPECT_DOUBLE_EQ(stat("avg_pages_per_entry"), 1.0);
}

TEST_F(CoalescedStore, InvalidateVmDropsOnlyThatVmsRuns)
{
    ASSERT_NE(scheme, nullptr);
    translate(0, 1);
    translate(0, 2);
    EXPECT_EQ(translate(0, 1).servedBy, ServicePoint::CoalescedTlb);
    EXPECT_EQ(translate(0, 2).servedBy, ServicePoint::CoalescedTlb);

    scheme->invalidateVm(1);
    EXPECT_EQ(translate(0, 2).servedBy, ServicePoint::CoalescedTlb);
    EXPECT_TRUE(translate(0, 1).walked);
}

} // namespace
} // namespace pomtlb
