#include "dram/controller.hh"

#include <algorithm>
#include <cmath>

#include "common/log.hh"

namespace pomtlb
{

DramController::DramController(const DramConfig &config)
    : dramConfig(config),
      addressMapper(config),
      banks(static_cast<std::size_t>(config.numChannels) * config.numBanks),
      channelBusyUntil(config.numChannels, 0.0),
      nextRefreshAt(config.numChannels,
                    static_cast<double>(config.refreshIntervalBusCycles)),
      activationWindow(config.numChannels,
                       {-1e18, -1e18, -1e18, -1e18}),
      activationCursor(config.numChannels, 0),
      statGroup(config.name)
{
    dramConfig.validate();
    statGroup.addCounter("accesses", accesses);
    statGroup.addCounter("refreshes", refreshes);
    statGroup.addCounter("row_hits", rbHits);
    statGroup.addCounter("row_closed", rbClosed);
    statGroup.addCounter("row_conflicts", rbConflicts);
    statGroup.addAverage("avg_latency_core_cycles", avgLatency);
    statGroup.addAverage("avg_queue_delay_bus_cycles", avgQueueDelay);
    statGroup.addDerived("row_buffer_hit_rate",
                         [this] { return rowBufferHitRate(); });
}

DramAccessResult
DramController::access(Addr addr, Cycles now)
{
    const DramCoord coord = addressMapper.decode(addr);
    simAssert(coord.channel < dramConfig.numChannels,
              "dram channel out of range");

    const double bus_per_core = dramConfig.busFreqGhz /
                                dramConfig.coreFreqGhz;
    double now_bus = static_cast<double>(now) * bus_per_core;

    // Refresh stalls are real service time, not queueing: they apply
    // before the bounded-queue clamp.
    const double original_now = now_bus;
    now_bus = applyRefresh(coord.channel, now_bus);

    Bank &bank = banks[static_cast<std::size_t>(coord.channel) *
                           dramConfig.numBanks +
                       coord.bank];

    // Bank preparation (precharge/activate/CAS) proceeds in parallel
    // across banks; only the data burst serializes on the channel's
    // shared data bus. The wait on prior bank state is clamped to the
    // bounded controller queue depth.
    // Row activations (anything but a row-buffer hit) are subject
    // to the four-activation window when tFAW is configured.
    double bank_now = now_bus;
    if (dramConfig.tFaw > 0 && bank.openRow() != coord.row)
        bank_now = constrainActivation(coord.channel, bank_now);

    Bank::AccessTiming timing = bank.access(
        bank_now, coord.row, dramConfig.tCas, dramConfig.tRcd,
        dramConfig.tRp);
    const double max_wait = dramConfig.maxQueueBusCycles;
    if (timing.queueDelay > max_wait) {
        timing.dataReady -= timing.queueDelay - max_wait;
        timing.queueDelay = max_wait;
        bank.setReadyAt(timing.dataReady);
    }

    double transfer_start = std::max(
        timing.dataReady, channelBusyUntil[coord.channel]);
    if (transfer_start - timing.dataReady > max_wait)
        transfer_start = timing.dataReady + max_wait;
    const double finish = transfer_start + dramConfig.burstBusCycles();
    channelBusyUntil[coord.channel] = finish;
    bank.occupyUntil(finish);

    const double bus_latency = finish - original_now;
    DramAccessResult result;
    result.latency = dramConfig.toCoreCycles(bus_latency);
    result.outcome = timing.outcome;

    ++accesses;
    switch (timing.outcome) {
      case RowBufferOutcome::Hit:
        ++rbHits;
        break;
      case RowBufferOutcome::Closed:
        ++rbClosed;
        break;
      case RowBufferOutcome::Conflict:
        ++rbConflicts;
        break;
    }
    avgLatency.sample(static_cast<double>(result.latency));
    avgQueueDelay.sample(timing.queueDelay +
                         (transfer_start - timing.dataReady));

    return result;
}

double
DramController::constrainActivation(unsigned channel, double start)
{
    // The new activation must be at least tFAW after the
    // fourth-most-recent one; the ring buffer holds exactly four.
    auto &window = activationWindow[channel];
    unsigned &cursor = activationCursor[channel];
    const double oldest = window[cursor];
    double when = start;
    if (when < oldest + dramConfig.tFaw)
        when = oldest + dramConfig.tFaw;
    window[cursor] = when;
    cursor = (cursor + 1) % window.size();
    return when;
}

double
DramController::applyRefresh(unsigned channel, double now_bus)
{
    if (!dramConfig.refreshEnabled)
        return now_bus;

    const double interval = dramConfig.refreshIntervalBusCycles;
    const double t_rfc = dramConfig.refreshBusCycles;
    double earliest = now_bus;
    // Catch up on every refresh due before this access; each closes
    // all of the channel's rows and blocks it for tRFC.
    while (nextRefreshAt[channel] <= now_bus) {
        const double start = nextRefreshAt[channel];
        for (unsigned b = 0; b < dramConfig.numBanks; ++b) {
            Bank &bank = banks[static_cast<std::size_t>(channel) *
                                   dramConfig.numBanks +
                               b];
            bank.precharge();
            bank.occupyUntil(start + t_rfc);
        }
        if (now_bus < start + t_rfc)
            earliest = start + t_rfc;
        nextRefreshAt[channel] += interval;
        ++refreshes;
    }
    return earliest;
}

double
DramController::rowBufferHitRate() const
{
    const std::uint64_t total = accesses.value();
    if (total == 0)
        return 0.0;
    return static_cast<double>(rbHits.value()) /
           static_cast<double>(total);
}

} // namespace pomtlb
