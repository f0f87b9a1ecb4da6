#include "baseline/shared_l2_scheme.hh"

#include "common/log.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"

namespace pomtlb
{

SharedL2Scheme::SharedL2Scheme(
    const TlbConfig &config,
    std::vector<std::unique_ptr<PageWalker>> &walkers)
    : sharedTlb(std::make_unique<SetAssocTlb>(config)),
      sharedLatency(config.accessLatency),
      pageWalkers(walkers)
{
    statGroup.addCounter("walks", walks);
    statGroup.addCounter("shared_hit_cycles", sharedHitCycles);
    statGroup.addCounter("walk_path_cycles", walkPathCycles);
    statGroup.addAverage("avg_miss_cycles", missCycles);
    statGroup.addDerived("shared_hit_rate",
                         [this] { return sharedHitRate(); });
    statGroup.addHistogram("miss_cycle_hist", missCycleHist);
    statGroup.addChild(sharedTlb->stats());
}

SchemeResult
SharedL2Scheme::translateMiss(CoreId core, Addr vaddr, PageSize size,
                              VmId vm, ProcessId pid, Cycles now)
{
    simAssert(core < pageWalkers.size(), "core id out of range");
    SchemeResult result;

    const PageNum vpn = pageNumber(vaddr, size);
    result.cycles += sharedLatency;
    const TlbLookupResult hit = sharedTlb->lookup(vpn, size, vm, pid);
    if (hit.hit) {
        result.pfn = hit.pfn;
        result.servedBy = ServicePoint::SharedTlb;
        result.probes = 1;
        sharedHitCycles += result.cycles;
        missCycles.sample(static_cast<double>(result.cycles));
        missCycleHist.sample(result.cycles);
        return result;
    }

    const WalkResult walk = pageWalkers[core]->walk(
        vaddr, vm, pid, size, now + result.cycles);
    result.cycles += walk.cycles;
    result.pfn = walk.hostPfn;
    result.walked = true;
    result.servedBy = ServicePoint::PageWalk;
    result.probes = 2;
    result.firstTryServed = false;
    ++walks;
    walkPathCycles += result.cycles;

    sharedTlb->insert(vpn, size, vm, pid, walk.hostPfn);
    missCycles.sample(static_cast<double>(result.cycles));
    missCycleHist.sample(result.cycles);
    return result;
}

std::vector<std::pair<ServicePoint, std::uint64_t>>
SharedL2Scheme::cycleBreakdown() const
{
    return {{ServicePoint::SharedTlb, sharedHitCycles.value()},
            {ServicePoint::PageWalk, walkPathCycles.value()}};
}

void
SharedL2Scheme::invalidatePage(Addr vaddr, PageSize size, VmId vm,
                               ProcessId pid)
{
    sharedTlb->invalidatePage(pageNumber(vaddr, size), size, vm, pid);
}

void
SharedL2Scheme::invalidateVm(VmId vm)
{
    sharedTlb->invalidateVm(vm);
    for (auto &walker : pageWalkers)
        walker->invalidateVm(vm);
}

POMTLB_REGISTER_SCHEME(registerSharedL2, {
    .name = "Shared_L2",
    .description = "one shared SRAM L2 TLB pooling the private L2 "
                   "capacities (Bhattacharjee et al.)",
    .aliases = {"shared", "shared-l2"},
    .rank = 2,
    .factory = [](const SystemConfig &config, Machine &machine)
        -> std::unique_ptr<TranslationScheme> {
        // Combine the private L2 TLB capacities into one shared
        // structure; its latency reflects the larger SRAM array plus
        // the interconnect hop (see analysis/cacti.hh for the trend).
        TlbConfig shared = config.l2Tlb;
        shared.name = "shared_l2tlb";
        shared.entries *= config.numCores;
        shared.accessLatency = 24;
        return std::make_unique<SharedL2Scheme>(shared,
                                                machine.walkerPool());
    },
});

} // namespace pomtlb
