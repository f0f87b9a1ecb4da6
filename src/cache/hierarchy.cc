#include "cache/hierarchy.hh"

#include "common/log.hh"

namespace pomtlb
{

const char *
memLevelName(MemLevel level)
{
    switch (level) {
      case MemLevel::L1D:
        return "L1D";
      case MemLevel::L2D:
        return "L2D";
      case MemLevel::L3D:
        return "L3D";
      case MemLevel::Memory:
        return "memory";
    }
    return "?";
}

DataHierarchy::DataHierarchy(const SystemConfig &config,
                             DramController &memory,
                             DramController *l4_channel)
    : mainMemory(memory),
      writebackTraffic(config.modelWritebackTraffic)
{
    if (config.dieStackedL4Cache) {
        simAssert(l4_channel != nullptr,
                  "the L4 DRAM cache needs a die-stacked channel");
        l4 = std::make_unique<DramCache>(
            config.l4CacheBytes, config.l3.lineBytes, *l4_channel);
    }
    l1Caches.reserve(config.numCores);
    l2Caches.reserve(config.numCores);
    for (unsigned core = 0; core < config.numCores; ++core) {
        CacheConfig l1 = config.l1d;
        l1.name = "l1d." + std::to_string(core);
        CacheConfig l2 = config.l2;
        l2.name = "l2d." + std::to_string(core);
        l1Caches.push_back(std::make_unique<SetAssocCache>(l1));
        l2Caches.push_back(std::make_unique<SetAssocCache>(l2));
        if (config.tlbAwareCaching) {
            l2Caches.back()->setTlbLinePolicy(
                TlbLinePolicy::RetainTlb);
        }
    }
    l3Cache = std::make_unique<SetAssocCache>(config.l3);
    if (config.tlbAwareCaching)
        l3Cache->setTlbLinePolicy(TlbLinePolicy::RetainTlb);

    statGroup.addCounter("dram_writebacks", dramWritebacks);
    statGroup.addDerived("l2_tlb_probe_hit_rate",
                         [this] { return l2TlbProbeHitRate(); });
    statGroup.addDerived("l3_tlb_probe_hit_rate",
                         [this] { return l3TlbProbeHitRate(); });
}

template <MemLevel First>
HierarchyAccessResult
DataHierarchy::access(CoreId core, Addr addr, AccessType type,
                      Cycles now)
{
    simAssert(core < l1Caches.size(), "core id out of range");
    // Indexed by MemLevel: 0 is the L1D, 2 the L3D.
    SetAssocCache *const levels[] = {l1Caches[core].get(),
                                     l2Caches[core].get(),
                                     l3Cache.get()};
    constexpr unsigned first = static_cast<unsigned>(First);
    constexpr unsigned memory = static_cast<unsigned>(MemLevel::Memory);

    HierarchyAccessResult result;
    unsigned served = first;
    for (; served < memory; ++served) {
        SetAssocCache &cache = *levels[served];
        result.latency += cache.latency();
        if (cache.lookup(addr, type, LineKind::Data).hit)
            break;
    }
    result.servedBy = static_cast<MemLevel>(served);
    if (served == memory)
        result.latency += missToMemory(addr, type, now + result.latency);

    // Fill every level that missed, outermost first; a write dirties
    // only the L1D copy.
    for (unsigned level = served; level-- > first;) {
        const CacheFillResult fill = levels[level]->fill(
            addr, LineKind::Data,
            level == 0 && type == AccessType::Write);
        if (level == 2 && writebackTraffic && fill.victimDirty) {
            // A dirty L3 victim is a background write: it occupies the
            // bank/bus timeline but no requester's critical path.
            mainMemory.access(fill.victimAddr, now + result.latency);
            ++dramWritebacks;
        }
    }
    return result;
}

HierarchyAccessResult
DataHierarchy::accessData(CoreId core, Addr addr, AccessType type,
                          Cycles now)
{
    return access<MemLevel::L1D>(core, addr, type, now);
}

HierarchyAccessResult
DataHierarchy::accessPte(CoreId core, Addr addr, Cycles now)
{
    return access<MemLevel::L2D>(core, addr, AccessType::Read, now);
}

Cycles
DataHierarchy::missToMemory(Addr addr, AccessType type, Cycles now)
{
    Cycles latency = 0;
    if (l4) {
        const DramCacheResult l4_result = l4->access(addr, type, now);
        latency += l4_result.latency;
        if (l4_result.hit)
            return latency; // served by the die-stacked L4
    }
    return latency + mainMemory.access(addr, now + latency).latency;
}

CacheProbeResult
DataHierarchy::probeTlbLine(CoreId core, Addr addr, Cycles)
{
    simAssert(core < l2Caches.size(), "core id out of range");
    CacheProbeResult result;
    SetAssocCache &l2 = *l2Caches[core];
    SetAssocCache &l3 = *l3Cache;

    result.latency += l2.latency();
    if (l2.lookup(addr, AccessType::Read, LineKind::TlbEntry).hit) {
        result.hit = true;
        result.level = MemLevel::L2D;
        return result;
    }

    result.latency += l3.latency();
    if (l3.lookup(addr, AccessType::Read, LineKind::TlbEntry).hit) {
        // Promote toward the requesting core, as a data miss would.
        l2.fill(addr, LineKind::TlbEntry);
        result.hit = true;
        result.level = MemLevel::L3D;
        return result;
    }

    result.hit = false;
    result.level = MemLevel::Memory;
    return result;
}

void
DataHierarchy::fillTlbLine(CoreId core, Addr addr)
{
    simAssert(core < l2Caches.size(), "core id out of range");
    l3Cache->fill(addr, LineKind::TlbEntry);
    l2Caches[core]->fill(addr, LineKind::TlbEntry);
}

void
DataHierarchy::invalidateTlbLine(Addr addr)
{
    for (auto &l2 : l2Caches)
        l2->invalidate(addr);
    for (auto &l1 : l1Caches)
        l1->invalidate(addr);
    l3Cache->invalidate(addr);
}

double
DataHierarchy::l2TlbProbeHitRate() const
{
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    for (const auto &l2 : l2Caches) {
        hits += l2->hitCount(LineKind::TlbEntry);
        total += l2->hitCount(LineKind::TlbEntry) +
                 l2->missCount(LineKind::TlbEntry);
    }
    return total ? static_cast<double>(hits) / total : 0.0;
}

double
DataHierarchy::l3TlbProbeHitRate() const
{
    const std::uint64_t hits = l3Cache->hitCount(LineKind::TlbEntry);
    const std::uint64_t total =
        hits + l3Cache->missCount(LineKind::TlbEntry);
    return total ? static_cast<double>(hits) / total : 0.0;
}

} // namespace pomtlb
