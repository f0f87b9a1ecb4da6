/**
 * @file
 * Size/bypass predictor tests: indexing, single-bit training (the
 * paper's default), hysteresis (footnote 2), and the outcomes the
 * POM-TLB scheme counts into Figure 10's accuracies.
 */

#include <gtest/gtest.h>

#include "pomtlb/predictor.hh"
#include "sim/machine.hh"

namespace pomtlb
{
namespace
{

/** VA whose predictor index is @p slot (512-entry table). */
Addr
vaddrForSlot(unsigned slot)
{
    return static_cast<Addr>(slot) << smallPageShift;
}

TEST(Predictor, DefaultsToSmallAndNoBypass)
{
    SizeBypassPredictor predictor;
    EXPECT_EQ(predictor.predictSize(0x1234000), PageSize::Small4K);
    EXPECT_FALSE(predictor.predictBypass(0x1234000));
}

TEST(Predictor, LearnsSizeAfterOneUpdate)
{
    SizeBypassPredictor predictor;
    const Addr vaddr = vaddrForSlot(7);
    predictor.updateSize(vaddr, PageSize::Large2M);
    EXPECT_EQ(predictor.predictSize(vaddr), PageSize::Large2M);
    predictor.updateSize(vaddr, PageSize::Small4K);
    EXPECT_EQ(predictor.predictSize(vaddr), PageSize::Small4K);
}

TEST(Predictor, SlotsAreIndependent)
{
    SizeBypassPredictor predictor;
    predictor.updateSize(vaddrForSlot(3), PageSize::Large2M);
    EXPECT_EQ(predictor.predictSize(vaddrForSlot(4)),
              PageSize::Small4K);
}

TEST(Predictor, IndexAliasesEvery512Pages)
{
    SizeBypassPredictor predictor;
    predictor.updateSize(vaddrForSlot(3), PageSize::Large2M);
    // Slot 3 + 512 aliases onto slot 3.
    EXPECT_EQ(predictor.predictSize(vaddrForSlot(3 + 512)),
              PageSize::Large2M);
}

TEST(Predictor, SizeAccuracyTracksOutcomes)
{
    SizeBypassPredictor predictor;
    const Addr vaddr = vaddrForSlot(1);
    // Initial state predicts small.
    EXPECT_TRUE(predictor.updateSize(vaddr, PageSize::Small4K));
    EXPECT_FALSE(predictor.updateSize(vaddr, PageSize::Large2M));
    EXPECT_TRUE(predictor.updateSize(vaddr, PageSize::Large2M));
}

TEST(Predictor, BypassTrainingFollowsGroundTruth)
{
    SizeBypassPredictor predictor;
    const Addr vaddr = vaddrForSlot(9);
    predictor.updateBypass(vaddr, false, true);
    EXPECT_TRUE(predictor.predictBypass(vaddr));
    predictor.updateBypass(vaddr, true, false);
    EXPECT_FALSE(predictor.predictBypass(vaddr));
}

TEST(Predictor, BypassAccuracy)
{
    SizeBypassPredictor predictor;
    const Addr vaddr = vaddrForSlot(9);
    // The outcome judges the decision taken, not the slot's state.
    EXPECT_TRUE(predictor.updateBypass(vaddr, false, false));
    EXPECT_FALSE(predictor.updateBypass(vaddr, false, true));
    EXPECT_TRUE(predictor.updateBypass(vaddr, true, true));
}

TEST(Predictor, HysteresisNeedsTwoUpdatesToFlip)
{
    SizeBypassPredictor predictor(512, /*hysteresis=*/true);
    const Addr vaddr = vaddrForSlot(5);
    predictor.updateSize(vaddr, PageSize::Large2M);
    // One update moves the counter to 1: still predicts small.
    EXPECT_EQ(predictor.predictSize(vaddr), PageSize::Small4K);
    predictor.updateSize(vaddr, PageSize::Large2M);
    EXPECT_EQ(predictor.predictSize(vaddr), PageSize::Large2M);
    // Saturate at 3, then a single small outcome does not flip it.
    predictor.updateSize(vaddr, PageSize::Large2M);
    predictor.updateSize(vaddr, PageSize::Small4K);
    EXPECT_EQ(predictor.predictSize(vaddr), PageSize::Large2M);
}

TEST(Predictor, ResetClearsAccuracyNotState)
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 1;
    Machine machine(config, "POM-TLB");
    PomTlbScheme &scheme = *machine.pomTlbScheme();
    const Addr vaddr = vaddrForSlot(2);
    // Two misses on one 2 MB page: the first mispredicts the size,
    // the second finds the trained slot.
    scheme.translateMiss(0, vaddr, PageSize::Large2M, 1, 1, 0);
    scheme.translateMiss(0, vaddr, PageSize::Large2M, 1, 1, 1000);
    EXPECT_DOUBLE_EQ(scheme.sizePredictorAccuracy(), 0.5);
    machine.resetStats();
    EXPECT_DOUBLE_EQ(scheme.sizePredictorAccuracy(), 0.0);
    EXPECT_DOUBLE_EQ(scheme.bypassPredictorAccuracy(), 0.0);
    // Learned state survives the stats reset.
    EXPECT_EQ(scheme.predictor(0).predictSize(vaddr),
              PageSize::Large2M);
}

TEST(Predictor, HighAccuracyOnStablePageSizes)
{
    // Section 4.3: with region-stable page sizes the predictor is
    // highly accurate after warmup.
    SizeBypassPredictor predictor;
    unsigned correct = 0;
    const unsigned trials = 2000;
    for (unsigned i = 0; i < trials; ++i) {
        const unsigned slot = i % 64;
        const PageSize actual = (slot % 4 == 0) ? PageSize::Large2M
                                                : PageSize::Small4K;
        const Addr vaddr = vaddrForSlot(slot);
        if (predictor.predictSize(vaddr) == actual)
            ++correct;
        predictor.updateSize(vaddr, actual);
    }
    EXPECT_GT(static_cast<double>(correct) / trials, 0.95);
}

} // namespace
} // namespace pomtlb
