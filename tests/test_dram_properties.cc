/**
 * @file
 * Parameterised DRAM timing properties: invariants that must hold
 * for any legal timing configuration (both Table 1 parameterisations
 * and synthetic extremes).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "dram/controller.hh"

namespace pomtlb
{
namespace
{

/** (tCAS, tRCD, tRP, banks, channels). */
using TimingParam =
    std::tuple<unsigned, unsigned, unsigned, unsigned, unsigned>;

class DramTimingTest : public ::testing::TestWithParam<TimingParam>
{
  protected:
    DramConfig
    makeConfig() const
    {
        DramConfig config = DramConfig::dieStacked();
        config.tCas = std::get<0>(GetParam());
        config.tRcd = std::get<1>(GetParam());
        config.tRp = std::get<2>(GetParam());
        config.numBanks = std::get<3>(GetParam());
        config.numChannels = std::get<4>(GetParam());
        config.coreFreqGhz = 4.0;
        return config;
    }
};

TEST_P(DramTimingTest, OutcomeLatencyOrdering)
{
    const DramConfig config = makeConfig();
    DramController dram(config);

    // Idle-bank accesses spaced far apart in time.
    const DramAccessResult closed = dram.access(0, 0);
    const DramAccessResult hit = dram.access(64, 1000000);
    const Addr other_row = config.rowBufferBytes * config.numBanks *
                           config.numChannels;
    const DramAccessResult conflict =
        dram.access(other_row, 2000000);

    ASSERT_EQ(closed.outcome, RowBufferOutcome::Closed);
    ASSERT_EQ(hit.outcome, RowBufferOutcome::Hit);
    ASSERT_EQ(conflict.outcome, RowBufferOutcome::Conflict);

    // hit <= closed <= conflict, strictly when the timings are
    // non-zero.
    EXPECT_LE(hit.latency, closed.latency);
    EXPECT_LE(closed.latency, conflict.latency);
    if (config.tRcd > 0) {
        EXPECT_LT(hit.latency, closed.latency);
    }
    if (config.tRp > 0) {
        EXPECT_LT(closed.latency, conflict.latency);
    }
}

TEST_P(DramTimingTest, LatencyMatchesAnalyticalFormula)
{
    const DramConfig config = makeConfig();
    DramController dram(config);

    const DramAccessResult closed = dram.access(0, 0);
    const double burst = config.burstBusCycles();
    EXPECT_EQ(closed.latency,
              config.toCoreCycles(config.tRcd + config.tCas + burst));

    const DramAccessResult hit = dram.access(64, 1000000);
    EXPECT_EQ(hit.latency,
              config.toCoreCycles(config.tCas + burst));
}

TEST_P(DramTimingTest, StatisticsAreConsistent)
{
    const DramConfig config = makeConfig();
    DramController dram(config);
    Rng rng(1234);
    for (int i = 0; i < 2000; ++i)
        dram.access(rng.below(Addr{1} << 26) & ~Addr{63}, i * 100);
    EXPECT_EQ(dram.accessCount(), 2000u);
    EXPECT_EQ(dram.rowHits() + dram.rowClosed() + dram.rowConflicts(),
              2000u);
    EXPECT_GE(dram.averageLatency(),
              static_cast<double>(
                  config.toCoreCycles(config.tCas)));
}

INSTANTIATE_TEST_SUITE_P(
    Timings, DramTimingTest,
    ::testing::Values(
        TimingParam{11, 11, 11, 8, 1},   // Table 1 die-stacked
        TimingParam{14, 14, 14, 16, 2},  // Table 1 DDR4
        TimingParam{5, 5, 5, 4, 1},      // fast small part
        TimingParam{22, 22, 22, 32, 4},  // slow wide part
        TimingParam{11, 18, 7, 8, 2}));  // asymmetric timings

/** Bus-frequency scaling: same bus cycles, more core cycles. */
TEST(DramScaling, CoreFrequencyScalesLatency)
{
    DramConfig slow_core = DramConfig::dieStacked();
    slow_core.coreFreqGhz = 2.0;
    DramConfig fast_core = DramConfig::dieStacked();
    fast_core.coreFreqGhz = 8.0;

    DramController slow(slow_core);
    DramController fast(fast_core);
    const Cycles at2 = slow.access(0, 0).latency;
    const Cycles at8 = fast.access(0, 0).latency;
    EXPECT_EQ(at8, at2 * 4);
}

} // namespace
} // namespace pomtlb
