#include "pagetable/psc.hh"

#include "common/log.hh"

namespace pomtlb
{

namespace
{

/**
 * An entry cached for level L covers the VA region that one entry of
 * that level maps: PDE -> 2 MB (bit 21), PDPE -> 1 GB (bit 30),
 * PML4E -> 512 GB (bit 39).
 */
unsigned
coverageShift(WalkLevel level)
{
    switch (level) {
      case WalkLevel::Pd:
        return 21;
      case WalkLevel::Pdpt:
        return 30;
      case WalkLevel::Pml4:
        return 39;
      case WalkLevel::Pt:
        break;
    }
    panic("PT-level entries are TLB entries, not PSC entries");
}

} // namespace

StructureCache::StructureCache(unsigned capacity, WalkLevel cached_level)
    : cachedLevel(cached_level), entries(1, capacity)
{
}

std::uint64_t
StructureCache::tagOf(Addr addr) const
{
    return addr >> coverageShift(cachedLevel);
}

StructureCache::Entries::Slot
StructureCache::find(std::uint64_t tag, VmId vm, ProcessId pid) const
{
    return entries.find(0, keyOf(tag, vm, pid), [&](const Entry &entry) {
        return entry.tag == tag && entry.vm == vm && entry.pid == pid;
    });
}

bool
StructureCache::lookup(Addr addr, VmId vm, ProcessId pid)
{
    const Entries::Slot slot = find(tagOf(addr), vm, pid);
    if (slot == Entries::none) {
        ++missCount;
        return false;
    }
    entries.touch(slot);
    ++hitCount;
    return true;
}

void
StructureCache::insert(Addr addr, VmId vm, ProcessId pid)
{
    const std::uint64_t tag = tagOf(addr);
    const Entries::Slot slot = find(tag, vm, pid);
    if (slot != Entries::none) {
        entries.touch(slot);
        return;
    }
    entries.install(entries.victim(0), keyOf(tag, vm, pid)) =
        Entry{vm, pid, tag};
}

void
StructureCache::invalidateVm(VmId vm)
{
    entries.eraseIf([vm](const Entry &entry) { return entry.vm == vm; });
}

void
StructureCache::flush()
{
    entries.clear();
}

PscSet::PscSet(const PscConfig &config)
    : pml4(config.pml4Entries, WalkLevel::Pml4),
      pdp(config.pdpEntries, WalkLevel::Pdpt),
      pde(config.pdeEntries, WalkLevel::Pd),
      latency(config.accessLatency)
{
}

PscProbeResult
PscSet::probe(Addr addr, VmId vm, ProcessId pid)
{
    PscProbeResult result;
    result.cycles = latency; // all three are probed in parallel

    if (pde.lookup(addr, vm, pid)) {
        result.deepestHitLevel = 2;
        return result;
    }
    if (pdp.lookup(addr, vm, pid)) {
        result.deepestHitLevel = 3;
        return result;
    }
    if (pml4.lookup(addr, vm, pid)) {
        result.deepestHitLevel = 4;
        return result;
    }
    result.deepestHitLevel = 0;
    return result;
}

void
PscSet::fill(Addr addr, VmId vm, ProcessId pid, unsigned level)
{
    switch (level) {
      case 4:
        pml4.insert(addr, vm, pid);
        break;
      case 3:
        pdp.insert(addr, vm, pid);
        break;
      case 2:
        pde.insert(addr, vm, pid);
        break;
      default:
        // Level-1 (PT) entries are full translations; those belong in
        // the TLBs, not the structure caches.
        break;
    }
}

void
PscSet::invalidateVm(VmId vm)
{
    pml4.invalidateVm(vm);
    pdp.invalidateVm(vm);
    pde.invalidateVm(vm);
}

void
PscSet::flush()
{
    pml4.flush();
    pdp.flush();
    pde.flush();
}

} // namespace pomtlb
