#include "cache/cache.hh"

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/setscan.hh"

namespace pomtlb
{

SetAssocCache::SetAssocCache(const CacheConfig &config)
    : cacheConfig(config),
      sets(config.numSets()),
      ways(config.associativity),
      lineShift(floorLog2(config.lineBytes)),
      setBits(floorLog2(config.numSets())),
      tags(config.numSets() * config.associativity, invalidTag),
      stamps(config.numSets() * config.associativity, 0),
      meta(config.numSets() * config.associativity, 0),
      statGroup(config.name)
{
    cacheConfig.validate();
    simAssert(lineShift >= 1,
              "line size must leave headroom for the invalid-tag "
              "sentinel");
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
        return static_cast<double>(tlbLines) /
               static_cast<double>(tags.size());
    });
}

std::uint64_t
SetAssocCache::setIndex(Addr addr) const
{
    return (addr >> lineShift) & (sets - 1);
}

std::uint64_t
SetAssocCache::tagOf(Addr addr) const
{
    return addr >> (lineShift + setBits);
}

Addr
SetAssocCache::lineAddr(std::uint64_t set, std::uint64_t tag) const
{
    return ((tag << setBits) | set) << lineShift;
}

std::int64_t
SetAssocCache::findLine(Addr addr) const
{
    const std::uint64_t tag = tagOf(addr);
    const std::uint64_t base = setIndex(addr) * ways;
    // One vector-friendly compare pass over a contiguous 64-bit
    // array: invalid ways hold the sentinel, which never equals a
    // real tag.
    const unsigned way = findKeyWay(tags.data() + base, ways, tag);
    if (way == ways)
        return -1;
    return static_cast<std::int64_t>(base + way);
}

CacheLookupResult
SetAssocCache::lookup(Addr addr, AccessType type, LineKind probe_kind)
{
    CacheLookupResult result;
    const std::int64_t index = findLine(addr);
    if (index >= 0) {
        result.hit = true;
        result.kind = kindOf(meta[index]);
        if (type == AccessType::Write)
            meta[index] |= metaDirty;
        stamps[index] = ++recencyClock;
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
    return findLine(addr) >= 0;
}

CacheFillResult
SetAssocCache::fill(Addr addr, LineKind kind, bool dirty)
{
    CacheFillResult result;
    ++fills;

    const std::uint64_t set = setIndex(addr);
    const std::uint64_t base = set * ways;

    // Fixed-trip scans over the set's contiguous tag lane find the
    // resident line (at most one way can match) and the first free
    // way; only when both miss does the inline-LRU min scan run
    // (common/setscan.hh). Each pass vectorizes — the old merged
    // early-exit loop could not — and the free/victim results are
    // consumed exactly when the scalar loop consumed them, so the
    // victims match bit-for-bit (the lowest way wins every tie).
    const std::uint64_t tag = tagOf(addr);
    const std::uint64_t *set_tags = tags.data() + base;
    const unsigned match = findKeyWay(set_tags, ways, tag);
    const std::int64_t resident =
        match == ways ? -1 : static_cast<std::int64_t>(base + match);

    // Refresh in place when the line is already resident (e.g. two
    // outstanding misses to the same line resolved back to back).
    if (resident >= 0) {
        if (dirty)
            meta[resident] |= metaDirty;
        if (kindOf(meta[resident]) != kind) {
            tlbLines += (kind == LineKind::TlbEntry) ? 1 : -1;
            meta[resident] ^= metaTlb;
        }
        stamps[resident] = ++recencyClock;
        return result;
    }

    unsigned target = findKeyWay(set_tags, ways, invalidTag);
    if (target == ways) {
        target = victimWay(set);
        const std::uint64_t victim = base + target;
        result.evicted = true;
        result.victimAddr = lineAddr(set, tags[victim]);
        result.victimDirty = (meta[victim] & metaDirty) != 0;
        result.victimKind = kindOf(meta[victim]);
        ++evictions;
        if (result.victimDirty)
            ++writebacks;
        if (result.victimKind == LineKind::TlbEntry)
            --tlbLines;
        --validLines;
    }

    const std::uint64_t index = base + target;
    tags[index] = tag;
    meta[index] = (dirty ? metaDirty : 0) |
                  (kind == LineKind::TlbEntry ? metaTlb : 0);
    stamps[index] = ++recencyClock;
    ++validLines;
    if (kind == LineKind::TlbEntry)
        ++tlbLines;
    return result;
}

unsigned
SetAssocCache::victimWay(std::uint64_t set) const
{
    const std::uint64_t base = set * ways;
    if (tlbPolicy == TlbLinePolicy::RetainTlb) {
        // Section 5.1: retain TLB lines — evict the least-recently-
        // used *data* line when one exists; fall back to overall LRU
        // when the set holds nothing but TLB lines.
        const unsigned best = minStampWayMasked(
            stamps.data() + base, meta.data() + base, metaTlb, ways);
        if (best != ways)
            return best;
    }
    // LRU: oldest stamp wins, lowest way on ties.
    return minStampWay(stamps.data() + base, ways);
}

bool
SetAssocCache::invalidate(Addr addr)
{
    const std::int64_t index = findLine(addr);
    if (index < 0)
        return false;
    if (meta[index] & metaTlb)
        --tlbLines;
    --validLines;
    tags[index] = invalidTag;
    meta[index] = 0;
    ++invalidations;
    return true;
}

std::uint64_t
SetAssocCache::flush()
{
    std::uint64_t dropped = 0;
    for (std::uint64_t index = 0; index < tags.size(); ++index) {
        if (tags[index] != invalidTag) {
            ++dropped;
            tags[index] = invalidTag;
            meta[index] = 0;
        }
    }
    tlbLines = 0;
    validLines = 0;
    return dropped;
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

void
SetAssocCache::resetStats()
{
    dataHits.reset();
    dataMisses.reset();
    tlbHits.reset();
    tlbMisses.reset();
    fills.reset();
    evictions.reset();
    writebacks.reset();
    invalidations.reset();
}

} // namespace pomtlb
