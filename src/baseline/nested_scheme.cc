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
    exportMissCount("walks");
    exportServedCycles("walk_cycles", ServicePoint::PageWalk);
    exportMissCycles("avg_walk_cycles", "walk_cycle_hist");
    statGroup.addAverage("avg_walk_refs", walkRefs);
}

SchemeResult
NestedWalkScheme::resolve(CoreId core, Addr vaddr, PageSize size,
                          VmId vm, ProcessId pid, Cycles now)
{
    simAssert(core < pageWalkers.size(), "core id out of range");
    const WalkResult walk =
        pageWalkers[core]->walk(vaddr, vm, pid, size, now);
    walkRefs.sample(static_cast<double>(walk.memRefs));

    SchemeResult result;
    result.cycles = walk.cycles;
    result.pfn = walk.hostPfn;
    result.walked = true;
    result.servedBy = ServicePoint::PageWalk;
    result.probes = 1;
    return result;
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
