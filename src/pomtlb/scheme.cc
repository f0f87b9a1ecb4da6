#include "pomtlb/scheme.hh"

#include "common/log.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"

namespace pomtlb
{

PomTlbScheme::PomTlbScheme(
    const PomTlbConfig &config, PomTlb &pom, DataHierarchy &hierarchy,
    std::vector<std::unique_ptr<PageWalker>> &walkers)
    : tlbConfig(config),
      pomTlb(pom),
      dataHierarchy(hierarchy),
      pageWalkers(walkers),
      statGroup("scheme")
{
    predictors.reserve(hierarchy.numCores());
    for (unsigned core = 0; core < hierarchy.numCores(); ++core) {
        predictors.push_back(std::make_unique<SizeBypassPredictor>(
            config.predictorEntries));
    }

    statGroup.addCounter("requests", requests);
    statGroup.addCounter("served_l2d_cache", served[0]);
    statGroup.addCounter("served_l3d_cache", served[1]);
    statGroup.addCounter("served_pom_dram", served[2]);
    statGroup.addCounter("served_page_walk", served[3]);
    statGroup.addCounter("l2d_cache_cycles", servedCycles[0]);
    statGroup.addCounter("l3d_cache_cycles", servedCycles[1]);
    statGroup.addCounter("pom_dram_cycles", servedCycles[2]);
    statGroup.addCounter("walk_path_cycles", servedCycles[3]);
    statGroup.addCounter("second_size_lookups", secondSizeLookups);
    statGroup.addCounter("bypasses", bypasses);
    statGroup.addCounter("prefetches", prefetches);
    statGroup.addAverage("avg_miss_cycles", missCycles);
    statGroup.addDerived("l2d_service_rate",
                         [this] { return l2CacheServiceRate(); });
    statGroup.addDerived("l3d_service_rate",
                         [this] { return l3CacheServiceRate(); });
    statGroup.addDerived("pom_dram_service_rate",
                         [this] { return pomDramServiceRate(); });
    statGroup.addDerived("walk_elimination_rate",
                         [this] { return walkEliminationRate(); });
    statGroup.addDerived("size_predictor_accuracy",
                         [this] { return sizePredictorAccuracy(); });
    statGroup.addDerived("bypass_predictor_accuracy",
                         [this] { return bypassPredictorAccuracy(); });
    statGroup.addHistogram("miss_cycle_hist", missCycleHist);
    statGroup.addChild(pomTlb.stats());
}

bool
PomTlbScheme::trySize(CoreId core, Addr vaddr, PageSize size, VmId vm,
                      ProcessId pid, bool bypass, Cycles now,
                      Cycles &cycles, PageNum &pfn,
                      PomServiceLevel &level, std::uint8_t &probes)
{
    const Addr set_addr = pomTlb.setAddress(vaddr, vm, size);

    if (!bypass && tlbConfig.cacheable) {
        const CacheProbeResult probe =
            dataHierarchy.probeTlbLine(core, set_addr, now + cycles);
        cycles += probe.latency;
        ++probes;
        if (probe.hit) {
            // The cached line is coherent with the array: search it.
            const PomTlbArrayResult search =
                pomTlb.searchSet(vaddr, vm, pid, size);
            if (search.hit) {
                pfn = search.pfn;
                level = probe.level == MemLevel::L2D
                            ? PomServiceLevel::L2Cache
                            : PomServiceLevel::L3Cache;
                return true;
            }
            // Line cached but no matching entry: this partition
            // definitively misses — DRAM holds the same set content.
            return false;
        }
    }

    const PomTlbDeviceResult dram =
        pomTlb.lookupDram(vaddr, vm, pid, size, now + cycles);
    cycles += dram.cycles;
    ++probes;
    if (tlbConfig.cacheable)
        dataHierarchy.fillTlbLine(core, set_addr);
    if (dram.hit) {
        pfn = dram.pfn;
        level = PomServiceLevel::PomDram;
        return true;
    }
    return false;
}

SchemeResult
PomTlbScheme::translateMiss(CoreId core, Addr vaddr, PageSize size,
                            VmId vm, ProcessId pid, Cycles now)
{
    simAssert(core < predictors.size(), "core id out of range");
    SizeBypassPredictor &predictor = *predictors[core];
    ++requests;

    const PageSize predicted_size = tlbConfig.sizePredictor
                                        ? predictor.predictSize(vaddr)
                                        : PageSize::Small4K;
    const PageSize other_size = predicted_size == PageSize::Small4K
                                    ? PageSize::Large2M
                                    : PageSize::Small4K;

    const bool bypass = tlbConfig.cacheable &&
                        tlbConfig.bypassPredictor &&
                        predictor.predictBypass(vaddr);
    if (bypass)
        ++bypasses;

    // Ground truth for bypass training/accuracy: would the cache
    // probes (for the predicted size) have hit? Observed without
    // perturbing cache state.
    const Addr predicted_addr =
        pomTlb.setAddress(vaddr, vm, predicted_size);
    const bool caches_held_line =
        dataHierarchy.l2d(core).contains(predicted_addr) ||
        dataHierarchy.l3d().contains(predicted_addr);

    SchemeResult result;
    PomServiceLevel level = PomServiceLevel::PageWalk;

    bool found = trySize(core, vaddr, predicted_size, vm, pid, bypass,
                         now, result.cycles, result.pfn, level,
                         result.probes);
    if (!found) {
        ++secondSizeLookups;
        result.firstTryServed = false;
        found = trySize(core, vaddr, other_size, vm, pid, bypass, now,
                        result.cycles, result.pfn, level,
                        result.probes);
    }

    if (!found) {
        PageWalker &walker = *pageWalkers[core];
        const WalkResult walk =
            walker.walk(vaddr, vm, pid, size, now + result.cycles);
        result.cycles += walk.cycles;
        result.pfn = walk.hostPfn;
        result.walked = true;
        result.firstTryServed = false;
        ++result.probes;
        level = PomServiceLevel::PageWalk;

        pomTlb.install(vaddr, vm, pid, size, walk.hostPfn,
                       now + result.cycles);
        if (tlbConfig.cacheable) {
            dataHierarchy.fillTlbLine(
                core, pomTlb.setAddress(vaddr, vm, size));
        }
    }

    // Train the predictors with this translation's actual outcome.
    if (tlbConfig.sizePredictor)
        predictor.updateSize(vaddr, size);
    if (tlbConfig.cacheable && tlbConfig.bypassPredictor)
        predictor.updateBypass(vaddr, bypass, !caches_held_line);

    // Section 6 extension: warm the adjacent page's set line into
    // the caches off the critical path (sequential miss streams then
    // find their next translation already cache-resident).
    if (tlbConfig.prefetchNextSet && tlbConfig.cacheable) {
        const Addr next_page = vaddr + pageBytes(size);
        dataHierarchy.fillTlbLine(
            core, pomTlb.setAddress(next_page, vm, size));
        ++prefetches;
    }

    ++served[static_cast<unsigned>(level)];
    servedCycles[static_cast<unsigned>(level)] += result.cycles;
    switch (level) {
      case PomServiceLevel::L2Cache:
        result.servedBy = ServicePoint::CacheL2D;
        break;
      case PomServiceLevel::L3Cache:
        result.servedBy = ServicePoint::CacheL3D;
        break;
      case PomServiceLevel::PomDram:
        result.servedBy = ServicePoint::PomDram;
        break;
      case PomServiceLevel::PageWalk:
        result.servedBy = ServicePoint::PageWalk;
        break;
    }
    missCycles.sample(static_cast<double>(result.cycles));
    missCycleHist.sample(result.cycles);
    return result;
}

std::vector<std::pair<ServicePoint, std::uint64_t>>
PomTlbScheme::cycleBreakdown() const
{
    return {{ServicePoint::CacheL2D, servedCycles[0].value()},
            {ServicePoint::CacheL3D, servedCycles[1].value()},
            {ServicePoint::PomDram, servedCycles[2].value()},
            {ServicePoint::PageWalk, servedCycles[3].value()}};
}

void
PomTlbScheme::prewarm(CoreId, Addr vaddr, PageSize size, VmId vm,
                      ProcessId pid, PageNum pfn)
{
    pomTlb.installUntimed(vaddr, vm, pid, size, pfn);
}

void
PomTlbScheme::invalidatePage(Addr vaddr, PageSize size, VmId vm,
                             ProcessId pid)
{
    pomTlb.invalidatePage(vaddr, vm, pid, size);
    // The set line cached in the data hierarchy now holds a stale
    // entry; a shootdown invalidates it everywhere (Section 2.2).
    dataHierarchy.invalidateTlbLine(
        pomTlb.setAddress(vaddr, vm, size));
}

void
PomTlbScheme::invalidateVm(VmId vm)
{
    pomTlb.invalidateVm(vm);
    for (auto &walker : pageWalkers)
        walker->invalidateVm(vm);
}

void
PomTlbScheme::resetStats()
{
    requests.reset();
    for (auto &counter : served)
        counter.reset();
    for (auto &counter : servedCycles)
        counter.reset();
    secondSizeLookups.reset();
    bypasses.reset();
    prefetches.reset();
    missCycles.reset();
    missCycleHist.reset();
    for (auto &predictor : predictors)
        predictor->resetStats();
    pomTlb.resetStats();
}

double
PomTlbScheme::l2CacheServiceRate() const
{
    const std::uint64_t total = requests.value();
    if (total == 0)
        return 0.0;
    return static_cast<double>(
               served[static_cast<unsigned>(PomServiceLevel::L2Cache)]
                   .value()) /
           static_cast<double>(total);
}

double
PomTlbScheme::l3CacheServiceRate() const
{
    const std::uint64_t past_l2 =
        requests.value() -
        served[static_cast<unsigned>(PomServiceLevel::L2Cache)].value();
    if (past_l2 == 0)
        return 0.0;
    return static_cast<double>(
               served[static_cast<unsigned>(PomServiceLevel::L3Cache)]
                   .value()) /
           static_cast<double>(past_l2);
}

double
PomTlbScheme::pomDramServiceRate() const
{
    const std::uint64_t past_caches =
        requests.value() -
        served[static_cast<unsigned>(PomServiceLevel::L2Cache)].value() -
        served[static_cast<unsigned>(PomServiceLevel::L3Cache)].value();
    if (past_caches == 0)
        return 0.0;
    return static_cast<double>(
               served[static_cast<unsigned>(PomServiceLevel::PomDram)]
                   .value()) /
           static_cast<double>(past_caches);
}

double
PomTlbScheme::walkEliminationRate() const
{
    const std::uint64_t total = requests.value();
    if (total == 0)
        return 0.0;
    const std::uint64_t walks =
        served[static_cast<unsigned>(PomServiceLevel::PageWalk)].value();
    return 1.0 - static_cast<double>(walks) /
                     static_cast<double>(total);
}

double
PomTlbScheme::sizePredictorAccuracy() const
{
    std::uint64_t correct = 0;
    std::uint64_t total = 0;
    for (const auto &predictor : predictors) {
        const std::uint64_t n = predictor->sizePredictions();
        correct += static_cast<std::uint64_t>(
            predictor->sizeAccuracy() * static_cast<double>(n) + 0.5);
        total += n;
    }
    return total ? static_cast<double>(correct) / total : 0.0;
}

double
PomTlbScheme::bypassPredictorAccuracy() const
{
    std::uint64_t correct = 0;
    std::uint64_t total = 0;
    for (const auto &predictor : predictors) {
        const std::uint64_t n = predictor->bypassPredictions();
        correct += static_cast<std::uint64_t>(
            predictor->bypassAccuracy() * static_cast<double>(n) + 0.5);
        total += n;
    }
    return total ? static_cast<double>(correct) / total : 0.0;
}

POMTLB_REGISTER_SCHEME(registerPomTlb, {
    .name = "POM-TLB",
    .description = "the paper's very large part-of-memory L3 TLB in "
                   "die-stacked DRAM, cached by the data caches",
    .aliases = {"pom", "pom-tlb"},
    .rank = 1,
    .factory = [](const SystemConfig &config, Machine &machine)
        -> std::unique_ptr<TranslationScheme> {
        return std::make_unique<PomTlbScheme>(
            config.pomTlb, machine.ensurePomTlbDevice(),
            machine.hierarchy(), machine.walkerPool());
    },
});

} // namespace pomtlb
