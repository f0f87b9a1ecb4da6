#include "pomtlb/array.hh"

#include "common/log.hh"

namespace pomtlb
{

namespace
{
/** The attribute byte's low two bits hold the entry's LRU age. */
constexpr std::uint8_t lruMask = 0x3;
constexpr std::uint8_t lruMax = 0x3;
} // namespace

PomTlbPartition::PomTlbPartition(std::string name, std::uint64_t set_count,
                                 unsigned way_count)
    : partitionName(std::move(name)),
      sets(set_count),
      ways(way_count),
      entries(set_count * way_count),
      vmSets([this](std::uint64_t set, VmId vm) {
          return holdsVm(set, vm);
      }),
      statGroup(partitionName)
{
    simAssert(set_count > 0 && way_count > 0,
              "POM-TLB partition needs sets and ways");
    statGroup.addCounter("hits", hitCount);
    statGroup.addCounter("misses", missCount);
    statGroup.addCounter("insertions", insertions);
    statGroup.addCounter("evictions", evictions);
    statGroup.addDerived("hit_rate", [this] { return hitRate(); });
    statGroup.addDerived("valid_entries", [this] {
        return static_cast<double>(validEntries);
    });
}

void
PomTlbPartition::makeYoungest(TlbEntry *base, unsigned way)
{
    for (unsigned w = 0; w < ways; ++w) {
        if (w == way) {
            base[w].attr &= ~lruMask;
            continue;
        }
        const std::uint8_t age = base[w].attr & lruMask;
        if (age < lruMax)
            base[w].attr = (base[w].attr & ~lruMask) |
                           static_cast<std::uint8_t>(age + 1);
    }
}

bool
PomTlbPartition::holdsVm(std::uint64_t set, VmId vm) const
{
    const TlbEntry *base = &entries[set * ways];
    for (unsigned way = 0; way < ways; ++way) {
        if (base[way].valid && base[way].vmId == vm)
            return true;
    }
    return false;
}

PomTlbArrayResult
PomTlbPartition::lookup(std::uint64_t set, PageNum vpn, VmId vm,
                        ProcessId pid, PageSize size)
{
    simAssert(set < sets, "POM-TLB set index out of range");
    TlbEntry *base = &entries[set * ways];
    for (unsigned way = 0; way < ways; ++way) {
        if (base[way].matches(vpn, vm, pid, size)) {
            makeYoungest(base, way);
            ++hitCount;
            return {true, base[way].pfn};
        }
    }
    ++missCount;
    return {};
}

void
PomTlbPartition::insert(std::uint64_t set, PageNum vpn, VmId vm,
                        ProcessId pid, PageSize size, PageNum pfn)
{
    simAssert(set < sets, "POM-TLB set index out of range");
    TlbEntry *base = &entries[set * ways];
    ++insertions;

    // Refresh in place when present.
    for (unsigned way = 0; way < ways; ++way) {
        if (base[way].matches(vpn, vm, pid, size)) {
            base[way].pfn = pfn;
            makeYoungest(base, way);
            return;
        }
    }

    unsigned target = ways;
    for (unsigned way = 0; way < ways; ++way) {
        if (!base[way].valid) {
            target = way;
            break;
        }
    }
    if (target == ways) {
        // Evict the oldest entry per the in-attr LRU bits.
        std::uint8_t oldest_age = 0;
        target = 0;
        for (unsigned way = 0; way < ways; ++way) {
            const std::uint8_t age = base[way].attr & lruMask;
            if (age >= oldest_age) {
                oldest_age = age;
                target = way;
            }
        }
        ++evictions;
        --validEntries;
    }

    TlbEntry &entry = base[target];
    const bool evicted = entry.valid;
    const VmId evicted_vm = entry.vmId;
    entry.valid = true;
    entry.vmId = vm;
    entry.pid = pid;
    entry.vpn = vpn;
    entry.pfn = pfn;
    entry.pageSize = size;
    ++validEntries;
    makeYoungest(base, target);
    vmSets.installed(vm, set, evicted, evicted_vm);
}

bool
PomTlbPartition::invalidatePage(std::uint64_t set, PageNum vpn, VmId vm,
                                ProcessId pid, PageSize size)
{
    simAssert(set < sets, "POM-TLB set index out of range");
    TlbEntry *base = &entries[set * ways];
    for (unsigned way = 0; way < ways; ++way) {
        if (base[way].matches(vpn, vm, pid, size)) {
            base[way].valid = false;
            --validEntries;
            vmSets.removed(vm);
            return true;
        }
    }
    return false;
}

std::uint64_t
PomTlbPartition::invalidateVm(VmId vm)
{
    std::uint64_t dropped = 0;
    for (const std::uint64_t set : vmSets.release(vm)) {
        TlbEntry *base = &entries[set * ways];
        for (unsigned way = 0; way < ways; ++way) {
            if (base[way].valid && base[way].vmId == vm) {
                base[way].valid = false;
                ++dropped;
            }
        }
    }
    validEntries -= dropped;
    return dropped;
}

double
PomTlbPartition::hitRate() const
{
    const std::uint64_t total = hitCount.value() + missCount.value();
    return total ? static_cast<double>(hitCount.value()) / total : 0.0;
}

} // namespace pomtlb
