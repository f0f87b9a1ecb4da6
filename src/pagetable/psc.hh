/**
 * @file
 * MMU page-structure caches (PSCs), Table 1: PML4E (2 entries),
 * PDPE (4 entries), PDE (32 entries), each a 2-cycle fully-associative
 * LRU structure.
 *
 * A PSC entry caches one non-leaf page-table entry, keyed by the
 * address bits that index the levels *above* it. A PDE-cache hit lets
 * the walker skip straight to the last-level table read. Each core has
 * two PSC sets: one indexed by guest-virtual addresses accelerating
 * the guest dimension of the walk, and one indexed by guest-physical
 * addresses accelerating every host (EPT) walk — which together model
 * the combined paging-structure/nested-TLB support the paper's
 * baseline Skylake machine has.
 */

#ifndef POMTLB_PAGETABLE_PSC_HH
#define POMTLB_PAGETABLE_PSC_HH

#include <cstdint>
#include <string>

#include "common/bitutil.hh"
#include "common/config.hh"
#include "common/lru_sets.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pomtlb
{

/**
 * Page-table levels, numbered as x86 does: 4 = PML4 (root),
 * 3 = PDPT, 2 = PD, 1 = PT (last level for 4 KB pages).
 */
enum class WalkLevel : std::uint8_t
{
    Pml4 = 4,
    Pdpt = 3,
    Pd = 2,
    Pt = 1,
};

/** One fully-associative structure cache for a single level. */
class StructureCache
{
  public:
    StructureCache(unsigned capacity, WalkLevel cached_level);

    /**
     * Look up the cached entry covering @p addr for (vm, pid).
     * Returns true on hit (and refreshes LRU).
     */
    bool lookup(Addr addr, VmId vm, ProcessId pid);

    /** Insert/refresh the entry covering @p addr. */
    void insert(Addr addr, VmId vm, ProcessId pid);

    /** Drop all entries of @p vm (shootdown). */
    void invalidateVm(VmId vm);

    /** Probe hits since the stats reset. */
    std::uint64_t hits() const { return hitCount.value(); }
    /** Probe misses since the stats reset. */
    std::uint64_t misses() const { return missCount.value(); }

    /** Register the counters as `<prefix>_hits` and `<prefix>_misses`. */
    void
    registerStats(StatGroup &group, const std::string &prefix)
    {
        group.addCounter(prefix + "_hits", hitCount);
        group.addCounter(prefix + "_misses", missCount);
    }

  private:
    /** What a way holds: the tag and the (vm, pid) it belongs to. */
    struct Entry
    {
        VmId vm = 0;
        ProcessId pid = 0;
        std::uint64_t tag = 0;
    };
    using Entries = LruSets<Entry>;

    /** Tag: the VA bits indexing this level and everything above. */
    std::uint64_t tagOf(Addr addr) const;

    /**
     * Non-zero digest of (tag, vm, pid), which need more than 64 bits
     * (tags keep the VA bits above 47); find() confirms the entry.
     */
    static std::uint64_t
    keyOf(std::uint64_t tag, VmId vm, ProcessId pid)
    {
        return mix64(tag ^ mix64((std::uint64_t{vm} << 16) | pid)) | 1;
    }

    /** The slot holding (tag, vm, pid), or none. */
    Entries::Slot find(std::uint64_t tag, VmId vm, ProcessId pid) const;

    WalkLevel cachedLevel;
    /** One fully-associative set: capacity ways. */
    Entries entries;
    Counter hitCount;
    Counter missCount;
};

/**
 * The result of consulting a PSC set before a radix walk: how many
 * upper levels can be skipped.
 */
struct PscProbeResult
{
    /**
     * Deepest level whose entry was found, 0 when nothing hit.
     * A value of 2 (PDE hit) means reads start at the PT level.
     */
    unsigned deepestHitLevel = 0;
    /** Cycles spent probing (every probe costs the PSC latency). */
    Cycles cycles = 0;
};

/** The per-core trio of structure caches (PML4E/PDPE/PDE). */
class PscSet
{
  public:
    explicit PscSet(const PscConfig &config);

    /**
     * Probe caches from the deepest (PDE) upward for @p addr; the
     * first hit wins. Misses still cost the probe latency, modelling
     * the serial check before the walk engages.
     */
    PscProbeResult probe(Addr addr, VmId vm, ProcessId pid);

    /**
     * After a walk read the entry at @p level for @p addr, cache it
     * (only non-leaf levels 2..4 are cacheable).
     */
    void fill(Addr addr, VmId vm, ProcessId pid, unsigned level);

    /** Drop all of @p vm's entries from every level cache. */
    void invalidateVm(VmId vm);

    /** Register every level cache's counters as `psc_<level>_*`. */
    void
    registerStats(StatGroup &group)
    {
        pml4.registerStats(group, "psc_pml4");
        pdp.registerStats(group, "psc_pdp");
        pde.registerStats(group, "psc_pde");
    }

    /** The PML4E-level cache. */
    const StructureCache &pml4Cache() const { return pml4; }
    /** The PDE-level cache. */
    const StructureCache &pdeCache() const { return pde; }

  private:
    StructureCache pml4;
    StructureCache pdp;
    StructureCache pde;
    Cycles latency;
};

} // namespace pomtlb

#endif // POMTLB_PAGETABLE_PSC_HH
