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
      pageWalkers(walkers)
{
    predictors.reserve(hierarchy.numCores());
    for (unsigned core = 0; core < hierarchy.numCores(); ++core) {
        predictors.push_back(std::make_unique<SizeBypassPredictor>(
            config.predictorEntries));
    }

    exportMissCount("requests");
    exportServedCount("served_l2d_cache", ServicePoint::CacheL2D);
    exportServedCount("served_l3d_cache", ServicePoint::CacheL3D);
    exportServedCount("served_pom_dram", ServicePoint::PomDram);
    exportServedCount("served_page_walk", ServicePoint::PageWalk);
    exportServedCycles("l2d_cache_cycles", ServicePoint::CacheL2D);
    exportServedCycles("l3d_cache_cycles", ServicePoint::CacheL3D);
    exportServedCycles("pom_dram_cycles", ServicePoint::PomDram);
    exportServedCycles("walk_path_cycles", ServicePoint::PageWalk);
    statGroup.addCounter("second_size_lookups", secondSizeLookups);
    statGroup.addCounter("bypasses", bypasses);
    statGroup.addCounter("prefetches", prefetches);
    exportMissCycles("avg_miss_cycles", "miss_cycle_hist");
    statGroup.addDerived("l2d_service_rate",
                         [this] { return l2CacheServiceRate(); });
    statGroup.addDerived("l3d_service_rate",
                         [this] { return l3CacheServiceRate(); });
    statGroup.addDerived("pom_dram_service_rate",
                         [this] { return pomDramServiceRate(); });
    statGroup.addDerived("walk_elimination_rate",
                         [this] { return walkEliminationRate(); });
    statGroup.addDerived("size_predictor_accuracy",
                         [this] { return sizePredictorAccuracy(); },
                         {&sizeCorrect, &sizePredictions});
    statGroup.addDerived("bypass_predictor_accuracy",
                         [this] { return bypassPredictorAccuracy(); },
                         {&bypassCorrect, &bypassPredictions});
    statGroup.addChild(pomTlb.stats());
}

bool
PomTlbScheme::trySize(CoreId core, Addr vaddr, PageSize size, VmId vm,
                      ProcessId pid, bool bypass, Cycles now,
                      SchemeResult &result)
{
    const Addr set_addr = pomTlb.setAddress(vaddr, vm, size);

    if (!bypass && tlbConfig.cacheable) {
        const CacheProbeResult probe = dataHierarchy.probeTlbLine(
            core, set_addr, now + result.cycles);
        result.cycles += probe.latency;
        ++result.probes;
        if (probe.hit) {
            // The cached line is coherent with the array: search it.
            const PomTlbArrayResult search =
                pomTlb.searchSet(vaddr, vm, pid, size);
            if (search.hit) {
                result.pfn = search.pfn;
                result.servedBy = probe.level == MemLevel::L2D
                                      ? ServicePoint::CacheL2D
                                      : ServicePoint::CacheL3D;
                return true;
            }
            // Line cached but no matching entry: this partition
            // definitively misses — DRAM holds the same set content.
            return false;
        }
    }

    const PomTlbDeviceResult dram = pomTlb.lookupDram(
        vaddr, vm, pid, size, now + result.cycles);
    result.cycles += dram.cycles;
    ++result.probes;
    if (tlbConfig.cacheable)
        dataHierarchy.fillTlbLine(core, set_addr);
    if (dram.hit) {
        result.pfn = dram.pfn;
        result.servedBy = ServicePoint::PomDram;
        return true;
    }
    return false;
}

SchemeResult
PomTlbScheme::resolve(CoreId core, Addr vaddr, PageSize size, VmId vm,
                      ProcessId pid, Cycles now)
{
    simAssert(core < predictors.size(), "core id out of range");
    SizeBypassPredictor &predictor = *predictors[core];

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
    bool found = trySize(core, vaddr, predicted_size, vm, pid, bypass,
                         now, result);
    if (!found) {
        ++secondSizeLookups;
        result.firstTryServed = false;
        found = trySize(core, vaddr, other_size, vm, pid, bypass, now,
                        result);
    }

    if (!found) {
        PageWalker &walker = *pageWalkers[core];
        const WalkResult walk =
            walker.walk(vaddr, vm, pid, size, now + result.cycles);
        result.cycles += walk.cycles;
        result.pfn = walk.hostPfn;
        result.walked = true;
        result.servedBy = ServicePoint::PageWalk;
        result.firstTryServed = false;
        ++result.probes;

        pomTlb.install(vaddr, vm, pid, size, walk.hostPfn,
                       now + result.cycles);
        if (tlbConfig.cacheable) {
            dataHierarchy.fillTlbLine(
                core, pomTlb.setAddress(vaddr, vm, size));
        }
    }

    // Train the predictors with this translation's actual outcome.
    if (tlbConfig.sizePredictor) {
        ++sizePredictions;
        if (predictor.updateSize(vaddr, size))
            ++sizeCorrect;
    }
    if (tlbConfig.cacheable && tlbConfig.bypassPredictor) {
        ++bypassPredictions;
        if (predictor.updateBypass(vaddr, bypass, !caches_held_line))
            ++bypassCorrect;
    }

    // Section 6 extension: warm the adjacent page's set line into
    // the caches off the critical path (sequential miss streams then
    // find their next translation already cache-resident).
    if (tlbConfig.prefetchNextSet && tlbConfig.cacheable) {
        const Addr next_page = vaddr + pageBytes(size);
        dataHierarchy.fillTlbLine(
            core, pomTlb.setAddress(next_page, vm, size));
        ++prefetches;
    }
    return result;
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
}

double
PomTlbScheme::l2CacheServiceRate() const
{
    const std::uint64_t total = missCount();
    if (total == 0)
        return 0.0;
    return static_cast<double>(servedCount(ServicePoint::CacheL2D)) /
           static_cast<double>(total);
}

double
PomTlbScheme::l3CacheServiceRate() const
{
    const std::uint64_t past_l2 =
        missCount() - servedCount(ServicePoint::CacheL2D);
    if (past_l2 == 0)
        return 0.0;
    return static_cast<double>(servedCount(ServicePoint::CacheL3D)) /
           static_cast<double>(past_l2);
}

double
PomTlbScheme::pomDramServiceRate() const
{
    const std::uint64_t past_caches =
        missCount() - servedCount(ServicePoint::CacheL2D) -
        servedCount(ServicePoint::CacheL3D);
    if (past_caches == 0)
        return 0.0;
    return static_cast<double>(servedCount(ServicePoint::PomDram)) /
           static_cast<double>(past_caches);
}

double
PomTlbScheme::walkEliminationRate() const
{
    const std::uint64_t total = missCount();
    if (total == 0)
        return 0.0;
    const std::uint64_t walks = servedCount(ServicePoint::PageWalk);
    return 1.0 - static_cast<double>(walks) /
                     static_cast<double>(total);
}

double
PomTlbScheme::sizePredictorAccuracy() const
{
    const std::uint64_t total = sizePredictions.value();
    return total ? static_cast<double>(sizeCorrect.value()) / total
                 : 0.0;
}

double
PomTlbScheme::bypassPredictorAccuracy() const
{
    const std::uint64_t total = bypassPredictions.value();
    return total ? static_cast<double>(bypassCorrect.value()) / total
                 : 0.0;
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
