/**
 * @file
 * A die-stacked DRAM L4 data cache — the alternative use of the
 * stacked capacity the paper argues against (Section 2.2, "Other
 * Die-Stacked DRAM Use"): "using the same capacity as a large TLB is
 * likely to save more cycles than using it as L4 data cache".
 *
 * The model follows the Alloy/ATCache-style organisation the paper
 * cites: tags are checked quickly (a small SRAM tag cache), data
 * resides in stacked DRAM, so a hit costs one die-stacked access and
 * a miss adds only the tag-check latency before falling through to
 * main memory. Implemented as a tag-only set-associative array (like
 * every cache here) whose hit timing is charged against a dedicated
 * die-stacked DramController channel.
 */

#ifndef POMTLB_CACHE_DRAM_CACHE_HH
#define POMTLB_CACHE_DRAM_CACHE_HH

#include <memory>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/controller.hh"

namespace pomtlb
{

/** Result of an L4 DRAM-cache access. */
struct DramCacheResult
{
    bool hit = false;
    /** Core cycles consumed (tag check, plus DRAM on a hit). */
    Cycles latency = 0;
};

/** A die-stacked L4 data cache in front of main memory. */
class DramCache
{
  public:
    /**
     * @param capacity_bytes Cache capacity (the paper discusses the
     *                       same 16 MB the POM-TLB would use).
     * @param line_bytes     Line size (64 B, one stacked burst).
     * @param channel        The dedicated die-stacked channel.
     * @param tag_latency    SRAM tag-cache check cost (core cycles).
     */
    DramCache(std::uint64_t capacity_bytes, unsigned line_bytes,
              DramController &channel, Cycles tag_latency = 4);

    /**
     * Access the line containing @p addr at time @p now; fills on
     * miss (the fill's DRAM write advances the channel timeline but
     * is off the critical path).
     */
    DramCacheResult access(Addr addr, AccessType type, Cycles now);

    /** Fraction of accesses that hit (0 when no accesses happened). */
    double hitRate() const;
    /** Accesses that hit since the stats reset. */
    std::uint64_t hits() const { return hitCount.value(); }
    /** SRAM tag-cache check cost (core cycles). */
    Cycles tagLatency() const { return tagCheckLatency; }

    /** This cache's statistics group ("l4_dram_cache"). */
    StatGroup &stats() { return statGroup; }

  private:
    std::unique_ptr<SetAssocCache> tags;
    DramController &dram;
    Cycles tagCheckLatency;
    Counter hitCount;
    Counter missCount;
    StatGroup statGroup;
};

} // namespace pomtlb

#endif // POMTLB_CACHE_DRAM_CACHE_HH
