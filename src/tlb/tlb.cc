#include "tlb/tlb.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace pomtlb
{

SetAssocTlb::SetAssocTlb(const TlbConfig &config)
    : tlbConfig(config),
      sets(config.numSets()),
      entries(config.numSets(), config.associativity),
      statGroup(config.name)
{
    tlbConfig.validate();
    statGroup.addCounter("hits", hitCount);
    statGroup.addCounter("misses", missCount);
    statGroup.addCounter("insertions", insertions);
    statGroup.addCounter("evictions", evictions);
    statGroup.addCounter("shootdowns", shootdowns);
    statGroup.addDerived("hit_rate", [this] { return hitRate(); });
}

std::uint64_t
SetAssocTlb::setIndex(PageNum vpn, VmId vm) const
{
    // XOR the VM ID in so multiple VMs spread across sets, mirroring
    // the POM-TLB's set hash (Equation 1).
    return (vpn ^ vm) & (sets - 1);
}

TlbLookupResult
SetAssocTlb::lookup(PageNum vpn, PageSize size, VmId vm, ProcessId pid)
{
    const Entries::Slot slot = find(vpn, size, vm, pid);
    if (slot != Entries::none) {
        entries.touch(slot);
        ++hitCount;
        return {true, entries.payload(slot).pfn};
    }
    ++missCount;
    return {};
}

bool
SetAssocTlb::contains(PageNum vpn, PageSize size, VmId vm,
                      ProcessId pid) const
{
    return find(vpn, size, vm, pid) != Entries::none;
}

void
SetAssocTlb::insert(PageNum vpn, PageSize size, VmId vm, ProcessId pid,
                    PageNum pfn)
{
    ++insertions;
    // A matching entry refreshes in place (a duplicate fill).
    const Entries::Slot match = find(vpn, size, vm, pid);
    if (match != Entries::none) {
        entries.payload(match).pfn = pfn;
        entries.touch(match);
        return;
    }

    const Entries::Slot slot = entries.victim(setIndex(vpn, vm));
    if (entries.occupied(slot))
        ++evictions;
    TlbEntry &entry =
        entries.install(slot, entryKey(vpn, vm, pid, size));
    entry.valid = true;
    entry.vmId = vm;
    entry.pid = pid;
    entry.vpn = vpn;
    entry.pfn = pfn;
    entry.pageSize = size;
}

bool
SetAssocTlb::invalidatePage(PageNum vpn, PageSize size, VmId vm,
                            ProcessId pid)
{
    const Entries::Slot slot = find(vpn, size, vm, pid);
    if (slot == Entries::none)
        return false;
    entries.erase(slot);
    ++shootdowns;
    return true;
}

std::uint64_t
SetAssocTlb::invalidateVm(VmId vm)
{
    const std::uint64_t dropped = entries.eraseIf(
        [vm](const TlbEntry &entry) { return entry.vmId == vm; });
    shootdowns.increment(dropped);
    return dropped;
}

double
SetAssocTlb::hitRate() const
{
    const std::uint64_t total = hitCount.value() + missCount.value();
    return total ? static_cast<double>(hitCount.value()) / total : 0.0;
}

} // namespace pomtlb
