/**
 * @file
 * A Ramulator-style (cycle-approximate) open-page DRAM controller.
 *
 * Models per-bank row-buffer state and occupancy, per-channel data-bus
 * serialisation, and the tCAS/tRCD/tRP timing triplet from Table 1.
 * One instance models the die-stacked channel that houses the POM-TLB;
 * another models off-chip DDR4 main memory.
 */

#ifndef POMTLB_DRAM_CONTROLLER_HH
#define POMTLB_DRAM_CONTROLLER_HH

#include <array>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/bank.hh"
#include "dram/mapper.hh"

namespace pomtlb
{

/** Result of one DRAM access as seen by the requester. */
struct DramAccessResult
{
    /** Total core cycles from issue to data return. */
    Cycles latency;
    /** Row-buffer outcome at the target bank. */
    RowBufferOutcome outcome;
};

/** Open-page DRAM controller with per-bank state. */
class DramController
{
  public:
    explicit DramController(const DramConfig &config);

    /**
     * Perform a burst access to @p addr issued at core-cycle @p now.
     * Advances the internal bank/bus timeline.
     */
    DramAccessResult access(Addr addr, Cycles now);

    /** Refreshes since the stats reset (0 unless refresh is enabled). */
    std::uint64_t refreshCount() const { return refreshes.value(); }

    /** Row-buffer hit fraction over the accesses since the reset. */
    double rowBufferHitRate() const;

    std::uint64_t accessCount() const { return accesses.value(); }
    std::uint64_t rowHits() const { return rbHits.value(); }
    std::uint64_t rowClosed() const { return rbClosed.value(); }
    std::uint64_t rowConflicts() const { return rbConflicts.value(); }
    double averageLatency() const { return avgLatency.mean(); }

    StatGroup &stats() { return statGroup; }

  private:
    DramConfig dramConfig;
    DramAddressMapper addressMapper;
    /** banks[channel * numBanks + bank]. */
    std::vector<Bank> banks;
    /** Per-channel time the data bus frees up (bus cycles). */
    std::vector<double> channelBusyUntil;
    /** Per-channel next scheduled refresh (bus cycles). */
    std::vector<double> nextRefreshAt;
    /** Per-channel ring of the last four activation times. */
    std::vector<std::array<double, 4>> activationWindow;
    std::vector<unsigned> activationCursor;

    /**
     * Enforce tFAW for an activation at @p start on @p channel;
     * returns the (possibly delayed) activation time and records it.
     */
    double constrainActivation(unsigned channel, double start);

    /**
     * Apply any refreshes due at @p now_bus on @p channel; returns
     * the earliest time the access may begin (>= now_bus).
     */
    double applyRefresh(unsigned channel, double now_bus);

    Counter accesses;
    Counter refreshes;
    Counter rbHits;
    Counter rbClosed;
    Counter rbConflicts;
    Average avgLatency;
    Average avgQueueDelay;
    StatGroup statGroup;
};

} // namespace pomtlb

#endif // POMTLB_DRAM_CONTROLLER_HH
