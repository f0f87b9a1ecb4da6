#include "cache/dram_cache.hh"

namespace pomtlb
{

DramCache::DramCache(std::uint64_t capacity_bytes, unsigned line_bytes,
                     DramController &channel, Cycles tag_latency)
    : dram(channel), tagCheckLatency(tag_latency),
      statGroup("l4_dram_cache")
{
    CacheConfig config;
    config.name = "tags";
    config.sizeBytes = capacity_bytes;
    // A wide, DRAM-friendly associativity; 16 ways keeps the sets a
    // power of two at the capacities of interest.
    config.associativity = 16;
    config.lineBytes = line_bytes;
    config.accessLatency = tag_latency;
    tags = std::make_unique<SetAssocCache>(config);

    statGroup.addCounter("hits", hitCount);
    statGroup.addCounter("misses", missCount);
    statGroup.addDerived("hit_rate", [this] { return hitRate(); });
    statGroup.addChild(tags->stats());
}

DramCacheResult
DramCache::access(Addr addr, AccessType type, Cycles now)
{
    DramCacheResult result;
    result.latency += tagCheckLatency;

    if (tags->lookup(addr, type, LineKind::Data).hit) {
        // Data lives in the stacked DRAM: one timed burst.
        const DramAccessResult data =
            dram.access(addr, now + result.latency);
        result.latency += data.latency;
        result.hit = true;
        ++hitCount;
        return result;
    }

    ++missCount;
    // Fill after the main-memory access resolves; the write occupies
    // the stacked channel but is not on the requester's path.
    tags->fill(addr, LineKind::Data, type == AccessType::Write);
    dram.access(addr, now + result.latency);
    return result;
}

double
DramCache::hitRate() const
{
    const std::uint64_t total = hitCount.value() + missCount.value();
    return total ? static_cast<double>(hitCount.value()) / total : 0.0;
}

} // namespace pomtlb
