/**
 * @file
 * A generic set-associative, write-back, write-allocate cache model.
 *
 * The model tracks tags only (no data payloads — this is a timing and
 * hit/miss simulator). Each line remembers whether it holds a cached
 * POM-TLB entry, so the experiments can report how translation lines
 * and ordinary data compete for capacity (Sections 4.2 and 5.1).
 *
 * Line state lives in an LruSets array (common/lru_sets.hh): the tag
 * probe every access performs is one compare pass over a contiguous
 * key lane, and replacement is LRU over its recency stamps (the same
 * stamps the Section 5.1 TLB-aware victim choice reads).
 */

#ifndef POMTLB_CACHE_CACHE_HH
#define POMTLB_CACHE_CACHE_HH

#include <cstdint>
#include <string>

#include "common/config.hh"
#include "common/lru_sets.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pomtlb
{

/** What a cache line holds, for occupancy accounting. */
enum class LineKind : std::uint8_t
{
    Data = 0,
    TlbEntry = 1,
};

/** Result of a cache lookup. */
struct CacheLookupResult
{
    bool hit = false;
    /** Valid only on hit: what kind of line hit. */
    LineKind kind = LineKind::Data;
};

/** Result of a fill: whether/what got evicted. */
struct CacheFillResult
{
    bool evicted = false;
    Addr victimAddr = 0;
    bool victimDirty = false;
    LineKind victimKind = LineKind::Data;
};

/**
 * How a cache arbitrates between data lines and cached POM-TLB lines
 * when choosing an eviction victim (Section 5.1, "TLB-Aware Caching").
 */
enum class TlbLinePolicy : std::uint8_t
{
    /** Plain LRU: TLB lines compete with data on equal terms. */
    None = 0,
    /**
     * Retain TLB lines: when a fill must evict and the set holds any
     * data line, the least-recently-used *data* line is evicted in
     * preference to any TLB line. Useful when translation misses are
     * costlier than the data misses the displaced lines would cause.
     */
    RetainTlb = 1,
};

/** One level of set-associative cache. */
class SetAssocCache
{
  public:
    /** @param config Geometry, latency and stat-group name. */
    explicit SetAssocCache(const CacheConfig &config);

    /** Select the Section 5.1 TLB-aware victim policy. */
    void setTlbLinePolicy(TlbLinePolicy policy)
    {
        tlbPolicy = policy;
    }
    TlbLinePolicy tlbLinePolicy() const { return tlbPolicy; }

    /**
     * Look up the line containing @p addr. On a hit the replacement
     * state is updated and, for writes, the line is marked dirty.
     */
    CacheLookupResult lookup(Addr addr, AccessType type,
                             LineKind probe_kind);

    /** State-preserving lookup (no replacement update, no stats). */
    bool contains(Addr addr) const;

    /**
     * Install the line containing @p addr (after a miss was resolved
     * by an outer level), evicting a victim if the set is full.
     */
    CacheFillResult fill(Addr addr, LineKind kind, bool dirty = false);

    /** Drop the line containing @p addr if present. */
    bool invalidate(Addr addr);

    /** Number of currently valid lines holding TLB entries. */
    std::uint64_t tlbLineCount() const;

    /** Number of currently valid lines. */
    std::uint64_t validLineCount() const { return lines.size(); }

    double hitRate() const;
    /** Hit rate counting only probes of the given kind. */
    double hitRate(LineKind kind) const;

    Cycles latency() const { return cacheConfig.accessLatency; }
    StatGroup &stats() { return statGroup; }

    std::uint64_t hitCount(LineKind kind) const
    {
        return kind == LineKind::Data ? dataHits.value()
                                      : tlbHits.value();
    }
    std::uint64_t missCount(LineKind kind) const
    {
        return kind == LineKind::Data ? dataMisses.value()
                                      : tlbMisses.value();
    }
    std::uint64_t writebackCount() const { return writebacks.value(); }

  private:
    /** Payload bit 0: line dirty. */
    static constexpr std::uint8_t metaDirty = 1u << 0;
    /** Payload bit 1: line caches a POM-TLB entry. */
    static constexpr std::uint8_t metaTlb = 1u << 1;

    using Lines = LruSets<std::uint8_t>;

    std::uint64_t setIndex(Addr addr) const;
    /** A line's key: its tag + 1, so 0 stays the empty key. */
    std::uint64_t keyOf(Addr addr) const;

    static LineKind
    kindOf(std::uint8_t meta_bits)
    {
        return (meta_bits & metaTlb) ? LineKind::TlbEntry
                                     : LineKind::Data;
    }

    CacheConfig cacheConfig;
    std::uint64_t sets;
    unsigned lineShift;
    unsigned setBits;
    /** Tags (keyOf()), recency stamps and dirty/kind bits. */
    Lines lines;

    TlbLinePolicy tlbPolicy = TlbLinePolicy::None;

    Counter dataHits;
    Counter dataMisses;
    Counter tlbHits;
    Counter tlbMisses;
    Counter fills;
    Counter evictions;
    Counter writebacks;
    Counter invalidations;
    StatGroup statGroup;
};

} // namespace pomtlb

#endif // POMTLB_CACHE_CACHE_HH
