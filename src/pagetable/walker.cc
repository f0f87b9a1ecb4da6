#include "pagetable/walker.hh"

#include "common/log.hh"

namespace pomtlb
{

namespace
{

/** First table level to read after a PSC probe: 4 with no hit, one
 *  below the deepest cached entry otherwise. */
unsigned
firstReadLevel(const PscProbeResult &probe)
{
    return probe.deepestHitLevel == 0 ? 4 : probe.deepestHitLevel - 1;
}

} // namespace

namespace
{

TlbConfig
nestedTlbConfig(const PscConfig &psc_config, CoreId core)
{
    // No core suffix: the nested TLB's group nests under the owning
    // walker's "walker.<core>" group, which carries the core id.
    (void)core;
    TlbConfig config;
    config.name = "nested_tlb";
    config.entries = psc_config.nestedTlbEntries;
    config.associativity = psc_config.nestedTlbAssociativity;
    config.missPenalty = 0;
    config.accessLatency = psc_config.nestedTlbLatency;
    return config;
}

} // namespace

PageWalker::PageWalker(CoreId core, MemoryMap &memory_map,
                       DataHierarchy &hierarchy,
                       const PscConfig &psc_config)
    : coreId(core),
      memoryMap(memory_map),
      dataHierarchy(hierarchy),
      guestPsc(psc_config),
      nestedTlb(nestedTlbConfig(psc_config, core)),
      nestedTlbLatency(psc_config.nestedTlbLatency),
      statGroup("walker." + std::to_string(core))
{
    statGroup.addCounter("walks", walks);
    statGroup.addAverage("avg_refs_per_walk", refsPerWalk);
    statGroup.addAverage("avg_cycles_per_walk", cyclesPerWalk);
    guestPsc.registerStats(statGroup);
    statGroup.addHistogram("walk_cycle_hist", walkCycleHist);
    statGroup.addHistogram("walk_ref_hist", walkRefHist);
    statGroup.addChild(nestedTlb.stats());
}

WalkResult
PageWalker::walk(Addr vaddr, VmId vm, ProcessId pid, PageSize size,
                 Cycles now)
{
    // Idealised OS: the page exists by the time the walker runs.
    memoryMap.ensureMapped(vm, pid, vaddr, size);

    WalkResult result = memoryMap.mode() == ExecMode::Native
                            ? walkNative(vaddr, vm, pid, now)
                            : walkVirtualized(vaddr, vm, pid, now);

    ++walks;
    refsPerWalk.sample(static_cast<double>(result.memRefs));
    cyclesPerWalk.sample(static_cast<double>(result.cycles));
    walkCycleHist.sample(result.cycles);
    walkRefHist.sample(result.memRefs);
    return result;
}

PageWalker::HostWalkResult
PageWalker::hostWalk(GuestPhysAddr gpa, VmId vm, Cycles now)
{
    HostWalkResult result;

    // Guest page-table node frames are backed lazily by the
    // hypervisor model; make sure this gPA has a host mapping before
    // the timed walk (costless OS work, identical for all schemes).
    memoryMap.ensureHostBacked(vm, gpa);

    // The nested TLB caches complete gPA -> hPA translations; a hit
    // short-circuits this host walk entirely (the EPT is per-VM, so
    // pid 0 tags its entries).
    result.cycles += nestedTlbLatency;
    const PageNum gpa_vpn = pageNumber(gpa, PageSize::Small4K);
    const TlbLookupResult nested =
        nestedTlb.lookup(gpa_vpn, PageSize::Small4K, vm, 0);
    if (nested.hit) {
        result.hpa = (nested.pfn << smallPageShift) |
                     pageOffset(gpa, PageSize::Small4K);
        return result;
    }

    RadixPageTable &ept = memoryMap.hostTable(vm);
    RadixWalkPath path = ept.walk(gpa);
    simAssert(path.present, "host walk of an unbacked guest frame");

    for (unsigned i = 0; i < path.reads; ++i) {
        const HierarchyAccessResult access = dataHierarchy.accessPte(
            coreId, path.pteAddr[i], now + result.cycles);
        result.cycles += access.latency;
        ++result.refs;
    }

    result.hpa = (path.pfn << pageShift(path.size)) |
                 pageOffset(gpa, path.size);
    nestedTlb.insert(gpa_vpn, PageSize::Small4K, vm, 0,
                     result.hpa >> smallPageShift);
    return result;
}

WalkResult
PageWalker::walkNative(Addr vaddr, VmId vm, ProcessId pid, Cycles now)
{
    WalkResult result;

    const PscProbeResult probe = guestPsc.probe(vaddr, vm, pid);
    result.cycles += probe.cycles;

    RadixPageTable &table = memoryMap.guestTable(vm, pid);
    RadixWalkPath path = table.walk(vaddr, firstReadLevel(probe));
    simAssert(path.present, "native walk of an unmapped page");

    for (unsigned i = 0; i < path.reads; ++i) {
        const HierarchyAccessResult access = dataHierarchy.accessPte(
            coreId, path.pteAddr[i], now + result.cycles);
        result.cycles += access.latency;
        ++result.memRefs;
        const bool is_leaf = (i + 1 == path.reads);
        if (!is_leaf)
            guestPsc.fill(vaddr, vm, pid, path.pteLevel[i]);
    }

    result.hostPfn = path.pfn;
    result.size = path.size;
    return result;
}

WalkResult
PageWalker::walkVirtualized(Addr vaddr, VmId vm, ProcessId pid,
                            Cycles now)
{
    WalkResult result;

    const PscProbeResult probe = guestPsc.probe(vaddr, vm, pid);
    result.cycles += probe.cycles;

    RadixPageTable &guest = memoryMap.guestTable(vm, pid);
    RadixWalkPath path = guest.walk(vaddr, firstReadLevel(probe));
    simAssert(path.present, "virtualized walk of an unmapped page");

    // Each guest PTE read needs its own host walk of the PTE's gPA
    // (Figure 1: hL4..hL1 then gLi, repeated per guest level).
    for (unsigned i = 0; i < path.reads; ++i) {
        const GuestPhysAddr gpte_gpa = path.pteAddr[i];
        const HostWalkResult host = hostWalk(
            gpte_gpa, vm, now + result.cycles);
        result.cycles += host.cycles;
        result.memRefs += host.refs;

        const HierarchyAccessResult access = dataHierarchy.accessPte(
            coreId, host.hpa, now + result.cycles);
        result.cycles += access.latency;
        ++result.memRefs;

        const bool is_leaf = (i + 1 == path.reads);
        if (!is_leaf)
            guestPsc.fill(vaddr, vm, pid, path.pteLevel[i]);
    }

    // Final host walk: translate the data page's guest-physical
    // address to host-physical (Figure 1 steps 21-24).
    const GuestPhysAddr data_gpa =
        (path.pfn << pageShift(path.size)) |
        pageOffset(vaddr, path.size);
    const HostWalkResult host = hostWalk(
        data_gpa, vm, now + result.cycles);
    result.cycles += host.cycles;
    result.memRefs += host.refs;

    result.hostPfn = host.hpa >> pageShift(path.size);
    result.size = path.size;
    return result;
}

void
PageWalker::invalidateVm(VmId vm)
{
    guestPsc.invalidateVm(vm);
    nestedTlb.invalidateVm(vm);
}

} // namespace pomtlb
