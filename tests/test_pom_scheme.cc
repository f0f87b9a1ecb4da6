/**
 * @file
 * POM-TLB scheme tests: the Figure 7 flow — cache probes, DRAM
 * fallback, second-size lookup, walk fallback with install, and the
 * feature switches (cacheable / predictors).
 */

#include <gtest/gtest.h>

#include "pomtlb/scheme.hh"
#include "sim/machine.hh"

namespace pomtlb
{
namespace
{

class PomSchemeTest : public ::testing::Test
{
  protected:
    void
    build(bool cacheable = true, bool bypass = true)
    {
        SystemConfig config = SystemConfig::table1();
        config.numCores = 2;
        config.pomTlb.cacheable = cacheable;
        config.pomTlb.bypassPredictor = bypass;
        machine = std::make_unique<Machine>(config,
                                            "POM-TLB");
        scheme = machine->pomTlbScheme();
        ASSERT_NE(scheme, nullptr);
    }

    std::unique_ptr<Machine> machine;
    PomTlbScheme *scheme = nullptr;
};

TEST_F(PomSchemeTest, ColdMissWalksAndInstalls)
{
    build();
    const Addr vaddr = 0x123456000;
    const SchemeResult result =
        scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 0);
    EXPECT_TRUE(result.walked);
    EXPECT_GT(result.cycles, 0u);
    // The walked translation landed in the POM-TLB array.
    EXPECT_TRUE(machine->pomTlbDevice()
                    ->searchSet(vaddr, 1, 1, PageSize::Small4K)
                    .hit);
}

TEST_F(PomSchemeTest, SecondRequestServedWithoutWalk)
{
    build();
    const Addr vaddr = 0x123456000;
    scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 0);
    const SchemeResult again = scheme->translateMiss(
        0, vaddr, PageSize::Small4K, 1, 1, 10000);
    EXPECT_FALSE(again.walked);
    EXPECT_EQ(scheme->servedCount(ServicePoint::PageWalk), 1u);
}

TEST_F(PomSchemeTest, CachedLineServesFromL2D)
{
    build();
    const Addr vaddr = 0x123456000;
    scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 0);
    // The cold miss observed empty caches and trained the single-bit
    // bypass predictor toward 'bypass'; the second access therefore
    // goes straight to DRAM, observes the now-cached line, and
    // retrains. The third access probes the caches and hits the L2D$
    // (this one-step oscillation is inherent to the paper's 1-bit
    // design and part of why its bypass accuracy is only ~46%).
    scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 10000);
    const SchemeResult third = scheme->translateMiss(
        0, vaddr, PageSize::Small4K, 1, 1, 20000);
    EXPECT_FALSE(third.walked);
    EXPECT_GT(scheme->servedCount(ServicePoint::CacheL2D), 0u);
}

TEST_F(PomSchemeTest, CrossCoreServedFromL3)
{
    build();
    const Addr vaddr = 0x123456000;
    scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 0);
    const SchemeResult other = scheme->translateMiss(
        1, vaddr, PageSize::Small4K, 1, 1, 10000);
    EXPECT_FALSE(other.walked);
    EXPECT_GT(scheme->servedCount(ServicePoint::CacheL3D), 0u);
}

TEST_F(PomSchemeTest, UncacheableConfigurationGoesToDram)
{
    build(/*cacheable=*/false);
    const Addr vaddr = 0x123456000;
    scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 0);
    const SchemeResult again = scheme->translateMiss(
        0, vaddr, PageSize::Small4K, 1, 1, 10000);
    EXPECT_FALSE(again.walked);
    EXPECT_GT(scheme->servedCount(ServicePoint::PomDram), 0u);
    EXPECT_EQ(scheme->servedCount(ServicePoint::CacheL2D), 0u);
    EXPECT_EQ(scheme->servedCount(ServicePoint::CacheL3D), 0u);
}

TEST_F(PomSchemeTest, TranslationIsCorrect)
{
    build();
    const Addr vaddr = 0xdeadbee000;
    const SchemeResult first =
        scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 0);
    const SchemeResult second = scheme->translateMiss(
        0, vaddr, PageSize::Small4K, 1, 1, 5000);
    EXPECT_EQ(first.pfn, second.pfn);
    const TranslationInfo info = machine->memoryMap().ensureMapped(
        1, 1, vaddr, PageSize::Small4K);
    EXPECT_EQ(first.pfn, info.hpa >> smallPageShift);
}

TEST_F(PomSchemeTest, LargePageFlow)
{
    build();
    const Addr vaddr = 0x80000000;
    const SchemeResult first =
        scheme->translateMiss(0, vaddr, PageSize::Large2M, 1, 1, 0);
    EXPECT_TRUE(first.walked);
    const SchemeResult second = scheme->translateMiss(
        0, vaddr, PageSize::Large2M, 1, 1, 5000);
    EXPECT_FALSE(second.walked);
    EXPECT_EQ(first.pfn, second.pfn);
}

TEST_F(PomSchemeTest, SizePredictorTrainsOnActualSizes)
{
    build();
    const Addr vaddr = 0x80000000;
    scheme->translateMiss(0, vaddr, PageSize::Large2M, 1, 1, 0);
    scheme->translateMiss(0, vaddr, PageSize::Large2M, 1, 1, 1000);
    // After training, the predictor for this region predicts large.
    EXPECT_EQ(scheme->predictor(0).predictSize(vaddr),
              PageSize::Large2M);
}

TEST_F(PomSchemeTest, ServiceRatesSumSensibly)
{
    build();
    for (Addr vaddr = 0x1000000; vaddr < 0x1000000 + 50 * 4096;
         vaddr += 4096) {
        scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 0);
        scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 1);
    }
    const std::uint64_t total =
        scheme->servedCount(ServicePoint::CacheL2D) +
        scheme->servedCount(ServicePoint::CacheL3D) +
        scheme->servedCount(ServicePoint::PomDram) +
        scheme->servedCount(ServicePoint::PageWalk);
    EXPECT_EQ(total, scheme->missCount());
    EXPECT_EQ(scheme->missCount(), 100u);
    EXPECT_GT(scheme->walkEliminationRate(), 0.0);
}

TEST_F(PomSchemeTest, PrewarmEliminatesWalks)
{
    build();
    const Addr vaddr = 0x55555000;
    const TranslationInfo info = machine->memoryMap().ensureMapped(
        1, 1, vaddr, PageSize::Small4K);
    scheme->prewarm(0, vaddr, PageSize::Small4K, 1, 1,
                    info.hpa >> smallPageShift);
    const SchemeResult result =
        scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 0);
    EXPECT_FALSE(result.walked);
    EXPECT_EQ(result.pfn, info.hpa >> smallPageShift);
}

TEST_F(PomSchemeTest, VmShootdownDropsEntries)
{
    build();
    const Addr vaddr = 0x123456000;
    scheme->translateMiss(0, vaddr, PageSize::Small4K, 1, 1, 0);
    scheme->invalidateVm(1);
    const SchemeResult after = scheme->translateMiss(
        0, vaddr, PageSize::Small4K, 1, 1, 10000);
    EXPECT_TRUE(after.walked);
}

} // namespace
} // namespace pomtlb
