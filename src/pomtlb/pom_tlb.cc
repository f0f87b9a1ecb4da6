#include "pomtlb/pom_tlb.hh"

namespace pomtlb
{

PomTlb::PomTlb(const PomTlbConfig &config, DramController &die_stacked)
    : addressMap(config),
      smallPartition(config.unifiedOrganization ? "unified_partition"
                                                : "small_partition",
                     addressMap.numSets(PageSize::Small4K),
                     config.associativity),
      // In the unified organisation the "large" member is a 1-set
      // stub; both sizes route to the shared array.
      largePartition("large_partition",
                     config.unifiedOrganization
                         ? 1
                         : addressMap.numSets(PageSize::Large2M),
                     config.associativity),
      dram(die_stacked),
      statGroup("pom_tlb")
{
    statGroup.addDerived("hit_rate", [this] { return hitRate(); });
    statGroup.addDerived("row_buffer_hit_rate",
                         [this] { return rowBufferHitRate(); });
    statGroup.addChild(smallPartition.stats());
    if (!addressMap.isUnified())
        statGroup.addChild(largePartition.stats());
}

PomTlbDeviceResult
PomTlb::lookupDram(Addr vaddr, VmId vm, ProcessId pid, PageSize size,
                   Cycles now)
{
    const PageNum vpn = pageNumber(vaddr, size);
    const Addr set_addr = addressMap.setAddress(vpn, vm, size);

    const DramAccessResult dram_result = dram.access(set_addr, now);

    const std::uint64_t set = addressMap.setIndex(vpn, vm, size);
    const PomTlbArrayResult search =
        partitionFor(size).lookup(set, vpn, vm, pid, size);

    PomTlbDeviceResult result;
    result.hit = search.hit;
    result.pfn = search.pfn;
    result.cycles = dram_result.latency;
    result.rowBuffer = dram_result.outcome;
    return result;
}

PomTlbArrayResult
PomTlb::searchSet(Addr vaddr, VmId vm, ProcessId pid, PageSize size)
{
    const PageNum vpn = pageNumber(vaddr, size);
    const std::uint64_t set = addressMap.setIndex(vpn, vm, size);
    return partitionFor(size).lookup(set, vpn, vm, pid, size);
}

void
PomTlb::install(Addr vaddr, VmId vm, ProcessId pid, PageSize size,
                PageNum pfn, Cycles now)
{
    const PageNum vpn = pageNumber(vaddr, size);
    const Addr set_addr = addressMap.setAddress(vpn, vm, size);

    // The fill write occupies the bank but is off the critical path;
    // read-modify-write of the 64 B set is one burst here.
    dram.access(set_addr, now);

    const std::uint64_t set = addressMap.setIndex(vpn, vm, size);
    partitionFor(size).insert(set, vpn, vm, pid, size, pfn);
}

void
PomTlb::installUntimed(Addr vaddr, VmId vm, ProcessId pid,
                       PageSize size, PageNum pfn)
{
    const PageNum vpn = pageNumber(vaddr, size);
    const std::uint64_t set = addressMap.setIndex(vpn, vm, size);
    partitionFor(size).insert(set, vpn, vm, pid, size, pfn);
}

bool
PomTlb::invalidatePage(Addr vaddr, VmId vm, ProcessId pid,
                       PageSize size)
{
    const PageNum vpn = pageNumber(vaddr, size);
    const std::uint64_t set = addressMap.setIndex(vpn, vm, size);
    return partitionFor(size).invalidatePage(set, vpn, vm, pid, size);
}

std::uint64_t
PomTlb::invalidateVm(VmId vm)
{
    return smallPartition.invalidateVm(vm) +
           largePartition.invalidateVm(vm);
}

double
PomTlb::hitRate() const
{
    const std::uint64_t hits =
        smallPartition.hits() + largePartition.hits();
    const std::uint64_t total = hits + smallPartition.misses() +
                                largePartition.misses();
    return total ? static_cast<double>(hits) / total : 0.0;
}

} // namespace pomtlb
