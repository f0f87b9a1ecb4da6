/**
 * @file
 * DRAM controller tests: latency composition, row-buffer statistics,
 * channel serialization, and the bounded-queue clamp.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "dram/controller.hh"

namespace pomtlb
{
namespace
{

DramConfig
testConfig()
{
    DramConfig config = DramConfig::dieStacked();
    config.coreFreqGhz = 4.0;
    return config;
}

TEST(DramController, ColdAccessLatency)
{
    DramController dram(testConfig());
    const DramAccessResult result = dram.access(0, 0);
    EXPECT_EQ(result.outcome, RowBufferOutcome::Closed);
    // tRCD + tCAS + 2 burst bus cycles at 4x core clock.
    EXPECT_EQ(result.latency, (11 + 11 + 2) * 4u);
}

TEST(DramController, RowHitIsCheaper)
{
    DramController dram(testConfig());
    dram.access(0, 0);
    const DramAccessResult hit = dram.access(64, 10000);
    EXPECT_EQ(hit.outcome, RowBufferOutcome::Hit);
    EXPECT_EQ(hit.latency, (11 + 2) * 4u);
}

TEST(DramController, RowConflictIsMostExpensive)
{
    DramConfig config = testConfig();
    DramController dram(config);
    dram.access(0, 0);
    // Same bank, different row: one full row region ahead times the
    // number of banks and channels.
    const Addr same_bank_other_row =
        config.rowBufferBytes * config.numBanks * config.numChannels;
    const DramAccessResult conflict =
        dram.access(same_bank_other_row, 10000);
    EXPECT_EQ(conflict.outcome, RowBufferOutcome::Conflict);
    EXPECT_EQ(conflict.latency, (11 + 11 + 11 + 2) * 4u);
}

TEST(DramController, StatsAccumulate)
{
    DramController dram(testConfig());
    dram.access(0, 0);
    dram.access(64, 10000);
    dram.access(128, 20000);
    EXPECT_EQ(dram.accessCount(), 3u);
    EXPECT_EQ(dram.rowHits(), 2u);
    EXPECT_EQ(dram.rowClosed(), 1u);
    EXPECT_NEAR(dram.rowBufferHitRate(), 2.0 / 3.0, 1e-12);

    dram.resetStats();
    EXPECT_EQ(dram.accessCount(), 0u);
    EXPECT_DOUBLE_EQ(dram.rowBufferHitRate(), 0.0);
}

TEST(DramController, PrechargeAllClosesRows)
{
    DramController dram(testConfig());
    dram.access(0, 0);
    dram.prechargeAll();
    const DramAccessResult result = dram.access(64, 10000);
    EXPECT_EQ(result.outcome, RowBufferOutcome::Closed);
}

TEST(DramController, BackToBackRequestsQueue)
{
    DramController dram(testConfig());
    const DramAccessResult first = dram.access(0, 0);
    // Immediately-following access to the same bank waits for it.
    const DramAccessResult second = dram.access(64, 0);
    EXPECT_GT(second.latency, first.latency);
}

TEST(DramController, QueueDelayIsClamped)
{
    DramConfig config = testConfig();
    config.maxQueueBusCycles = 48;
    DramController dram(config);
    // Run the bank far into the future...
    for (int i = 0; i < 50; ++i)
        dram.access(0, 0);
    // ...then a fresh request must not see unbounded backlog: the
    // clamp caps the wait at maxQueueBusCycles + service time.
    const DramAccessResult late = dram.access(64, 0);
    const Cycles service = (11 + 11 + 11 + 2) * 4; // worst case
    EXPECT_LE(late.latency, service + config.maxQueueBusCycles * 4 * 2);
}

TEST(DramController, DifferentBanksOverlap)
{
    DramConfig config = testConfig();
    DramController dram(config);
    dram.access(0, 0);
    // A different bank should not pay the first bank's occupancy
    // (only the shared data bus burst serializes).
    const Addr other_bank = config.rowBufferBytes; // next bank region
    const DramAccessResult result = dram.access(other_bank, 0);
    const Cycles cold = (11 + 11 + 2) * 4;
    EXPECT_LE(result.latency, cold + 2 * 4); // at most one burst extra
}

TEST(DramRefresh, DisabledByDefault)
{
    DramController dram(testConfig());
    for (Cycles t = 0; t < 1000000; t += 10000)
        dram.access(0, t);
    EXPECT_EQ(dram.refreshCount(), 0u);
}

TEST(DramRefresh, PeriodicRefreshesHappen)
{
    DramConfig config = testConfig();
    config.refreshEnabled = true;
    config.refreshIntervalBusCycles = 1000;
    config.refreshBusCycles = 100;
    DramController dram(config);
    // Access over 10k bus cycles = 40k core cycles: ~9 refreshes due.
    for (Cycles t = 0; t < 40000; t += 400)
        dram.access(0, t);
    EXPECT_GE(dram.refreshCount(), 8u);
    EXPECT_LE(dram.refreshCount(), 10u);
}

TEST(DramRefresh, RefreshClosesOpenRows)
{
    DramConfig config = testConfig();
    config.refreshEnabled = true;
    config.refreshIntervalBusCycles = 1000;
    config.refreshBusCycles = 100;
    DramController dram(config);
    dram.access(0, 0); // opens row 0
    // Next access to the same row lands after a refresh: the row was
    // closed by it.
    const DramAccessResult after =
        dram.access(0, config.toCoreCycles(2000.0));
    EXPECT_EQ(after.outcome, RowBufferOutcome::Closed);
}

TEST(DramRefresh, AccessDuringRefreshWindowStalls)
{
    DramConfig config = testConfig();
    config.refreshEnabled = true;
    config.refreshIntervalBusCycles = 1000;
    config.refreshBusCycles = 200;
    DramController dram(config);
    // Arrive exactly at the refresh start (bus time 1000).
    const Cycles now = config.toCoreCycles(1000.0);
    const DramAccessResult stalled = dram.access(0, now);
    // Must pay at least the tRFC window on top of a cold access.
    const Cycles cold = (11 + 11 + 2) * 4;
    EXPECT_GE(stalled.latency, cold + 200 * 4 - 8);
}

TEST(DramTfaw, DisabledByDefault)
{
    DramConfig config = testConfig();
    EXPECT_EQ(config.tFaw, 0u);
}

TEST(DramTfaw, FifthActivationWaits)
{
    DramConfig config = testConfig();
    config.tFaw = 1000; // enormous, to make the effect unmistakable
    DramController dram(config);
    // Five activations to five different banks, back to back; bank
    // regions are rowBufferBytes apart.
    Cycles last = 0;
    for (unsigned i = 0; i < 5; ++i) {
        const DramAccessResult result =
            dram.access(Addr{i} * config.rowBufferBytes, 0);
        last = result.latency;
    }
    // The fifth activation had to wait out the tFAW window: its
    // latency includes most of the 1000-bus-cycle window (x4 core).
    EXPECT_GT(last, 1000u * 4 / 2);
}

TEST(DramTfaw, RowHitsAreExempt)
{
    DramConfig config = testConfig();
    config.tFaw = 1000;
    DramController dram(config);
    dram.access(0, 0); // one activation
    // Row hits do not activate: many in a row stay fast.
    for (int i = 0; i < 10; ++i) {
        const DramAccessResult hit = dram.access(64, 100000 + i * 400);
        EXPECT_EQ(hit.outcome, RowBufferOutcome::Hit);
        EXPECT_LE(hit.latency, (11 + 2) * 4u + 8);
    }
}

TEST(DramRefresh, InvalidWindowRejected)
{
    DramConfig config = testConfig();
    config.refreshEnabled = true;
    config.refreshIntervalBusCycles = 100;
    config.refreshBusCycles = 100;
    EXPECT_THROW(config.validate(), FatalError);
}

} // namespace
} // namespace pomtlb
