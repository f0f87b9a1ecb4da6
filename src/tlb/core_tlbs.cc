#include "tlb/core_tlbs.hh"

#include <string>

namespace pomtlb
{

CoreTlbs::CoreTlbs(const SystemConfig &config, CoreId core,
                   bool private_l2)
    : l1MissPenalty(config.l1TlbSmall.missPenalty),
      l2MissPenalty(config.l2Tlb.missPenalty)
{
    // Group names carry no core suffix: each stack's groups are
    // attached as children of the owning MMU's "mmu.<core>" group,
    // which provides the per-core path segment.
    (void)core;
    TlbConfig small = config.l1TlbSmall;
    small.name = "l1tlb4k";
    TlbConfig large = config.l1TlbLarge;
    large.name = "l1tlb2m";
    l1Small = std::make_unique<SetAssocTlb>(small);
    l1Large = std::make_unique<SetAssocTlb>(large);
    if (private_l2) {
        TlbConfig unified = config.l2Tlb;
        unified.name = "l2tlb";
        l2 = std::make_unique<SetAssocTlb>(unified);
    }
}

CoreTlbResult
CoreTlbs::lookup(PageNum vpn, PageSize size, VmId vm, ProcessId pid)
{
    CoreTlbResult result;

    SetAssocTlb &l1 = l1For(size);
    const TlbLookupResult l1_hit = l1.lookup(vpn, size, vm, pid);
    if (l1_hit.hit) {
        result.level = TlbLevel::L1;
        result.pfn = l1_hit.pfn;
        return result;
    }

    // L1 miss penalty: the cost of consulting the next level.
    result.cycles += l1MissPenalty;

    if (!l2) {
        result.level = TlbLevel::Miss;
        return result;
    }

    const TlbLookupResult l2_hit = l2->lookup(vpn, size, vm, pid);
    if (l2_hit.hit) {
        result.level = TlbLevel::L2;
        result.pfn = l2_hit.pfn;
        // Refill L1 so the next access to this page hits there.
        l1.insert(vpn, size, vm, pid, l2_hit.pfn);
        return result;
    }

    result.cycles += l2MissPenalty;
    result.level = TlbLevel::Miss;
    return result;
}

void
CoreTlbs::insert(PageNum vpn, PageSize size, VmId vm, ProcessId pid,
                 PageNum pfn)
{
    l1For(size).insert(vpn, size, vm, pid, pfn);
    if (l2)
        l2->insert(vpn, size, vm, pid, pfn);
}

void
CoreTlbs::invalidatePage(PageNum vpn, PageSize size, VmId vm,
                         ProcessId pid)
{
    l1For(size).invalidatePage(vpn, size, vm, pid);
    if (l2)
        l2->invalidatePage(vpn, size, vm, pid);
}

void
CoreTlbs::invalidateVm(VmId vm)
{
    l1Small->invalidateVm(vm);
    l1Large->invalidateVm(vm);
    if (l2)
        l2->invalidateVm(vm);
}

} // namespace pomtlb
