#include "baseline/tsb_scheme.hh"

#include "common/bitutil.hh"
#include "common/log.hh"
#include "pagetable/memory_map.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"

namespace pomtlb
{

TsbScheme::TsbScheme(const TsbConfig &config, Addr base_addr,
                     DataHierarchy &hierarchy,
                     std::vector<std::unique_ptr<PageWalker>> &walkers)
    : tsbConfig(config),
      baseAddr(base_addr),
      dataHierarchy(hierarchy),
      pageWalkers(walkers),
      vmRows([this](std::uint64_t index, VmId vm) {
          return rowHoldsVm(index, vm);
      })
{
    exportServedCount("hits", ServicePoint::TsbBuffer);
    exportServedCount("misses", ServicePoint::PageWalk);
    exportServedCount("walks", ServicePoint::PageWalk);
    exportServedCycles("tsb_hit_cycles", ServicePoint::TsbBuffer);
    exportServedCycles("walk_path_cycles", ServicePoint::PageWalk);
    exportMissCycles("avg_miss_cycles", "miss_cycle_hist");
    statGroup.addDerived("tsb_hit_rate", [this] { return tsbHitRate(); });

    tsbConfig.validate();
    const std::uint64_t total_entries =
        config.capacityBytes / config.entryBytes;
    stageEntries = total_entries / config.accessesPerTranslation;
    simAssert(isPowerOfTwo(stageEntries),
              "TSB stage entry count must be a power of two");
    stageCount = config.accessesPerTranslation;
    buffer = ZeroedArray<TlbEntry>(stageEntries * stageCount);
}

std::uint64_t
TsbScheme::indexOf(PageNum vpn, VmId vm, ProcessId pid) const
{
    // SPARC TSB hashing includes the context number: the OS spreads
    // address spaces across the buffer, so rate-mode copies with
    // identical VA layouts do not collide.
    return (vpn ^ vm ^ (static_cast<std::uint64_t>(pid) * 0x9e3779b9)) &
           (stageEntries - 1);
}

Addr
TsbScheme::slotAddr(unsigned stage, std::uint64_t index) const
{
    return baseAddr +
           (static_cast<Addr>(stage) * stageEntries + index) *
               tsbConfig.entryBytes;
}

bool
TsbScheme::rowHoldsVm(std::uint64_t index, VmId vm) const
{
    const TlbEntry &entry = buffer[index * stageCount];
    return entry.valid && entry.vmId == vm;
}

void
TsbScheme::fillRow(std::uint64_t index, PageNum vpn, PageSize size,
                   VmId vm, ProcessId pid, PageNum pfn)
{
    TlbEntry *entries = row(index);
    const bool replaced = entries[0].valid;
    const VmId replaced_vm = entries[0].vmId;
    for (unsigned stage = 0; stage < stageCount; ++stage) {
        TlbEntry &entry = entries[stage];
        entry.valid = true;
        entry.vmId = vm;
        entry.pid = pid;
        entry.vpn = vpn;
        entry.pfn = pfn;
        entry.pageSize = size;
    }
    vmRows.installed(vm, index, replaced, replaced_vm);
}

SchemeResult
TsbScheme::resolve(CoreId core, Addr vaddr, PageSize size, VmId vm,
                   ProcessId pid, Cycles now)
{
    simAssert(core < pageWalkers.size(), "core id out of range");
    SchemeResult result;

    // Trap into the software handler.
    result.cycles += tsbConfig.trapCycles;

    const PageNum vpn = pageNumber(vaddr, size);
    const std::uint64_t index = indexOf(vpn, vm, pid);

    // The handler performs one dependent load per stage; every stage
    // must match for the translation to complete.
    bool all_match = true;
    PageNum pfn = 0;
    const TlbEntry *entries = row(index);
    for (unsigned stage = 0; stage < stageCount; ++stage) {
        const HierarchyAccessResult load = dataHierarchy.accessData(
            core, slotAddr(stage, index), AccessType::Read,
            now + result.cycles);
        result.cycles += load.latency;
        ++result.probes;

        const TlbEntry &entry = entries[stage];
        if (!entry.matches(vpn, vm, pid, size)) {
            all_match = false;
            // The handler knows after this load that the walk is
            // needed; remaining stage loads are skipped.
            break;
        }
        pfn = entry.pfn;
    }

    if (all_match) {
        result.pfn = pfn;
        result.servedBy = ServicePoint::TsbBuffer;
        return result;
    }

    const WalkResult walk = pageWalkers[core]->walk(
        vaddr, vm, pid, size, now + result.cycles);
    result.cycles += walk.cycles;
    result.pfn = walk.hostPfn;
    result.walked = true;
    result.servedBy = ServicePoint::PageWalk;
    ++result.probes;
    result.firstTryServed = false;

    // The handler refills the buffer (direct-mapped overwrite); the
    // stores are off the translation's critical path.
    fillRow(index, vpn, size, vm, pid, walk.hostPfn);
    for (unsigned stage = 0; stage < stageCount; ++stage) {
        dataHierarchy.accessData(core, slotAddr(stage, index),
                                 AccessType::Write,
                                 now + result.cycles);
    }
    return result;
}

void
TsbScheme::prewarm(CoreId, Addr vaddr, PageSize size, VmId vm,
                   ProcessId pid, PageNum pfn)
{
    const PageNum vpn = pageNumber(vaddr, size);
    fillRow(indexOf(vpn, vm, pid), vpn, size, vm, pid, pfn);
}

void
TsbScheme::invalidatePage(Addr vaddr, PageSize size, VmId vm,
                          ProcessId pid)
{
    const PageNum vpn = pageNumber(vaddr, size);
    const std::uint64_t index = indexOf(vpn, vm, pid);
    TlbEntry *entries = row(index);
    if (!entries[0].matches(vpn, vm, pid, size))
        return;
    for (unsigned stage = 0; stage < stageCount; ++stage)
        entries[stage].valid = false;
    vmRows.removed(vm);
}

void
TsbScheme::invalidateVm(VmId vm)
{
    for (const std::uint64_t index : vmRows.release(vm)) {
        TlbEntry *entries = row(index);
        if (entries[0].valid && entries[0].vmId == vm) {
            for (unsigned stage = 0; stage < stageCount; ++stage)
                entries[stage].valid = false;
        }
    }
}

double
TsbScheme::tsbHitRate() const
{
    const std::uint64_t total = missCount();
    const std::uint64_t hits = servedCount(ServicePoint::TsbBuffer);
    return total ? static_cast<double>(hits) / total : 0.0;
}

POMTLB_REGISTER_SCHEME(registerTsb, {
    .name = "TSB",
    .description = "SPARC-style software-managed translation storage "
                   "buffer in main memory",
    .aliases = {"tsb"},
    .rank = 3,
    .factory = [](const SystemConfig &config, Machine &machine)
        -> std::unique_ptr<TranslationScheme> {
        // The software buffer lives at the top of host-physical
        // memory, far above anything the frame allocator hands out.
        MemoryMapConfig defaults;
        const Addr tsb_base =
            defaults.hostPhysBytes - config.tsb.capacityBytes;
        return std::make_unique<TsbScheme>(config.tsb, tsb_base,
                                           machine.hierarchy(),
                                           machine.walkerPool());
    },
});

} // namespace pomtlb
