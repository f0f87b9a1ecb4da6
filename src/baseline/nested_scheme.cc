#include "baseline/nested_scheme.hh"

#include "common/log.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"

namespace pomtlb
{

NestedWalkScheme::NestedWalkScheme(
    std::vector<std::unique_ptr<PageWalker>> &walkers)
    : pageWalkers(walkers)
{
    statGroup.addCounter("walks", walks);
    statGroup.addCounter("walk_cycles", walkCyclesTotal);
    statGroup.addAverage("avg_walk_cycles", walkCycles);
    statGroup.addAverage("avg_walk_refs", walkRefs);
    statGroup.addHistogram("walk_cycle_hist", walkCycleHist);
}

SchemeResult
NestedWalkScheme::translateMiss(CoreId core, Addr vaddr, PageSize size,
                                VmId vm, ProcessId pid, Cycles now)
{
    simAssert(core < pageWalkers.size(), "core id out of range");
    const WalkResult walk =
        pageWalkers[core]->walk(vaddr, vm, pid, size, now);

    ++walks;
    walkCyclesTotal += walk.cycles;
    walkCycles.sample(static_cast<double>(walk.cycles));
    walkRefs.sample(static_cast<double>(walk.memRefs));
    walkCycleHist.sample(walk.cycles);

    SchemeResult result;
    result.cycles = walk.cycles;
    result.pfn = walk.hostPfn;
    result.walked = true;
    result.servedBy = ServicePoint::PageWalk;
    result.probes = 1;
    return result;
}

std::vector<std::pair<ServicePoint, std::uint64_t>>
NestedWalkScheme::cycleBreakdown() const
{
    return {{ServicePoint::PageWalk, walkCyclesTotal.value()}};
}

void
NestedWalkScheme::invalidateVm(VmId vm)
{
    for (auto &walker : pageWalkers)
        walker->invalidateVm(vm);
}

POMTLB_REGISTER_SCHEME(registerNestedWalk, {
    .name = "Baseline",
    .description = "conventional 2D nested page walk with page-table "
                   "structure caches",
    .aliases = {"baseline", "nested"},
    .rank = 0,
    .factory = [](const SystemConfig &, Machine &machine)
        -> std::unique_ptr<TranslationScheme> {
        return std::make_unique<NestedWalkScheme>(machine.walkerPool());
    },
});

} // namespace pomtlb
