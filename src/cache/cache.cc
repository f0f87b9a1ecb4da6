#include "cache/cache.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace pomtlb
{

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : cacheConfig(config),
      sets(config.numSets()),
      lineShift(floorLog2(config.lineBytes)),
      setBits(floorLog2(config.numSets())),
      lines(config.numSets(), config.associativity),
      statGroup(config.name)
{
    cacheConfig.validate();
    simAssert(lineShift >= 1,
              "line size must leave headroom for key = tag + 1");
    statGroup.addCounter("data_hits", dataHits);
    statGroup.addCounter("data_misses", dataMisses);
    statGroup.addCounter("tlb_hits", tlbHits);
    statGroup.addCounter("tlb_misses", tlbMisses);
    statGroup.addCounter("fills", fills);
    statGroup.addCounter("evictions", evictions);
    statGroup.addCounter("writebacks", writebacks);
    statGroup.addCounter("invalidations", invalidations);
    statGroup.addDerived("hit_rate", [this] { return hitRate(); });
    statGroup.addDerived("tlb_line_occupancy", [this] {
        return static_cast<double>(tlbLineCount()) /
               static_cast<double>(lines.capacity());
    });
}

std::uint64_t
SetAssocCache::setIndex(Addr addr) const
{
    return (addr >> lineShift) & (sets - 1);
}

std::uint64_t
SetAssocCache::keyOf(Addr addr) const
{
    return (addr >> (lineShift + setBits)) + 1;
}

CacheLookupResult
SetAssocCache::lookup(Addr addr, AccessType type, LineKind probe_kind)
{
    CacheLookupResult result;
    const Lines::Slot slot = lines.find(setIndex(addr), keyOf(addr));
    if (slot != Lines::none) {
        std::uint8_t &meta = lines.payload(slot);
        result.hit = true;
        result.kind = kindOf(meta);
        if (type == AccessType::Write)
            meta |= metaDirty;
        lines.touch(slot);
        if (probe_kind == LineKind::Data)
            ++dataHits;
        else
            ++tlbHits;
    } else {
        if (probe_kind == LineKind::Data)
            ++dataMisses;
        else
            ++tlbMisses;
    }
    return result;
}

bool
SetAssocCache::contains(Addr addr) const
{
    return lines.find(setIndex(addr), keyOf(addr)) != Lines::none;
}

CacheFillResult
SetAssocCache::fill(Addr addr, LineKind kind, bool dirty)
{
    CacheFillResult result;
    ++fills;

    const std::uint64_t set = setIndex(addr);
    const std::uint64_t key = keyOf(addr);

    // Refresh in place when the line is already resident (e.g. two
    // outstanding misses to the same line resolved back to back).
    const Lines::Slot resident = lines.find(set, key);
    if (resident != Lines::none) {
        std::uint8_t &meta = lines.payload(resident);
        if (dirty)
            meta |= metaDirty;
        if (kindOf(meta) != kind)
            meta ^= metaTlb;
        lines.touch(resident);
        return result;
    }

    // Section 5.1's TLB-aware policy evicts the least recently used
    // *data* line when the set holds one; plain LRU otherwise.
    Lines::Slot slot = lines.victim(set);
    if (tlbPolicy == TlbLinePolicy::RetainTlb && lines.occupied(slot)) {
        const Lines::Slot data = lines.lruWhere(
            set, [](std::uint8_t meta) { return !(meta & metaTlb); });
        if (data != Lines::none)
            slot = data;
    }
    if (lines.occupied(slot)) {
        const std::uint8_t meta = lines.payload(slot);
        result.evicted = true;
        result.victimAddr =
            (((lines.key(slot) - 1) << setBits) | set) << lineShift;
        result.victimDirty = (meta & metaDirty) != 0;
        result.victimKind = kindOf(meta);
        ++evictions;
        if (result.victimDirty)
            ++writebacks;
    }

    lines.install(slot, key) =
        (dirty ? metaDirty : 0) |
        (kind == LineKind::TlbEntry ? metaTlb : 0);
    return result;
}

std::uint64_t
SetAssocCache::tlbLineCount() const
{
    std::uint64_t count = 0;
    lines.forEach([&](std::uint8_t meta) { count += (meta & metaTlb) != 0; });
    return count;
}

bool
SetAssocCache::invalidate(Addr addr)
{
    const Lines::Slot slot = lines.find(setIndex(addr), keyOf(addr));
    if (slot == Lines::none)
        return false;
    lines.erase(slot);
    ++invalidations;
    return true;
}

double
SetAssocCache::hitRate() const
{
    const std::uint64_t hits = dataHits.value() + tlbHits.value();
    const std::uint64_t total =
        hits + dataMisses.value() + tlbMisses.value();
    return total ? static_cast<double>(hits) / total : 0.0;
}

double
SetAssocCache::hitRate(LineKind kind) const
{
    const std::uint64_t hits = hitCount(kind);
    const std::uint64_t total = hits + missCount(kind);
    return total ? static_cast<double>(hits) / total : 0.0;
}

} // namespace pomtlb
