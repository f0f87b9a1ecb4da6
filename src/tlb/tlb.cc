#include "tlb/tlb.hh"

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/setscan.hh"

namespace pomtlb
{

SetAssocTlb::SetAssocTlb(const TlbConfig &config)
    : tlbConfig(config),
      sets(config.numSets()),
      ways(config.associativity),
      entries(config.entries),
      keys(config.entries, 0),
      stamps(config.entries, 0),
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

unsigned
SetAssocTlb::matchWay(std::uint64_t set, PageNum vpn, PageSize size,
                      VmId vm, ProcessId pid) const
{
    // SIMD-friendly probe: one compare pass over the set's packed
    // key lane, then full-field verification of each candidate in
    // way order (a digest collision must not manufacture a hit, and
    // the lowest truly-matching way must win).
    std::uint64_t mask = findKeyMask(keys.data() + set * ways, ways,
                                     entryKey(vpn, vm, pid, size));
    const TlbEntry *base = &entries[set * ways];
    while (mask != 0) {
        const unsigned way =
            static_cast<unsigned>(std::countr_zero(mask));
        if (base[way].matches(vpn, vm, pid, size))
            return way;
        mask &= mask - 1;
    }
    return ways;
}

TlbLookupResult
SetAssocTlb::lookup(PageNum vpn, PageSize size, VmId vm, ProcessId pid)
{
    const std::uint64_t set = setIndex(vpn, vm);
    const unsigned way = matchWay(set, vpn, size, vm, pid);
    if (way != ways) {
        touchWay(set, way);
        ++hitCount;
        return {true, entries[set * ways + way].pfn};
    }
    ++missCount;
    return {};
}

bool
SetAssocTlb::contains(PageNum vpn, PageSize size, VmId vm,
                      ProcessId pid) const
{
    const std::uint64_t set = setIndex(vpn, vm);
    return matchWay(set, vpn, size, vm, pid) != ways;
}

void
SetAssocTlb::insert(PageNum vpn, PageSize size, VmId vm, ProcessId pid,
                    PageNum pfn)
{
    const std::uint64_t set = setIndex(vpn, vm);
    const std::uint64_t base_index = set * ways;
    TlbEntry *base = &entries[base_index];
    ++insertions;

    // Vector-friendly fixed-trip scans over the set's packed key
    // lane (common/setscan.hh) replace the old merged early-exit
    // loop: a matching entry refreshes in place (a duplicate fill),
    // else the first free way (key 0) wins, else the LRU oldest
    // stamp. Each result is consumed exactly when the scalar
    // loop consumed it and every tie goes to the lowest way, so the
    // victims — and therefore all downstream state — match
    // bit-for-bit.
    const unsigned match = matchWay(set, vpn, size, vm, pid);
    if (match != ways) {
        base[match].pfn = pfn;
        touchWay(set, match);
        return;
    }

    unsigned target = findKeyWay(keys.data() + base_index, ways, 0);
    if (target == ways) {
        target = minStampWay(stamps.data() + base_index, ways);
        ++evictions;
        --validEntries;
    }

    TlbEntry &entry = base[target];
    entry.valid = true;
    entry.vmId = vm;
    entry.pid = pid;
    entry.vpn = vpn;
    entry.pfn = pfn;
    entry.pageSize = size;
    keys[base_index + target] = entryKey(vpn, vm, pid, size);
    ++validEntries;
    touchWay(set, target);
}

bool
SetAssocTlb::invalidatePage(PageNum vpn, PageSize size, VmId vm,
                            ProcessId pid)
{
    const std::uint64_t set = setIndex(vpn, vm);
    const unsigned way = matchWay(set, vpn, size, vm, pid);
    if (way == ways)
        return false;
    entries[set * ways + way].valid = false;
    keys[set * ways + way] = 0;
    forgetWay(set, way);
    --validEntries;
    ++shootdowns;
    return true;
}

std::uint64_t
SetAssocTlb::invalidateVm(VmId vm)
{
    std::uint64_t dropped = 0;
    for (std::uint64_t set = 0; set < sets; ++set) {
        TlbEntry *base = &entries[set * ways];
        for (unsigned way = 0; way < ways; ++way) {
            if (base[way].valid && base[way].vmId == vm) {
                base[way].valid = false;
                keys[set * ways + way] = 0;
                forgetWay(set, way);
                --validEntries;
                ++dropped;
            }
        }
    }
    shootdowns.increment(dropped);
    return dropped;
}

std::uint64_t
SetAssocTlb::flush()
{
    std::uint64_t dropped = 0;
    for (std::uint64_t set = 0; set < sets; ++set) {
        TlbEntry *base = &entries[set * ways];
        for (unsigned way = 0; way < ways; ++way) {
            if (base[way].valid) {
                base[way].valid = false;
                keys[set * ways + way] = 0;
                forgetWay(set, way);
                ++dropped;
            }
        }
    }
    validEntries = 0;
    return dropped;
}

double
SetAssocTlb::hitRate() const
{
    const std::uint64_t total = hitCount.value() + missCount.value();
    return total ? static_cast<double>(hitCount.value()) / total : 0.0;
}

void
SetAssocTlb::resetStats()
{
    hitCount.reset();
    missCount.reset();
    insertions.reset();
    evictions.reset();
    shootdowns.reset();
}

} // namespace pomtlb
