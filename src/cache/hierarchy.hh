/**
 * @file
 * The three-level data-cache hierarchy plus its DRAM backing store.
 *
 * Three access paths exist, matching how the paper's MMU uses the
 * caches (Figure 7):
 *
 *  - accessData(): ordinary loads/stores, L1D -> L2D -> L3D -> DDR4;
 *  - accessPte(): page-walker reads of page-table entries, which are
 *    cached in the data caches starting at the (private) L2D;
 *  - probeTlbLine()/fillTlbLine(): POM-TLB set probes, also starting
 *    at the L2D, but *not* automatically resolved to memory — the
 *    translation scheme owns the POM-TLB DRAM access.
 *
 * The hierarchy is mostly-inclusive: fills propagate toward the core,
 * evictions at an outer level do not back-invalidate inner levels
 * (Section 2.2, "Consistency").
 */

#ifndef POMTLB_CACHE_HIERARCHY_HH
#define POMTLB_CACHE_HIERARCHY_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cache/dram_cache.hh"
#include "dram/controller.hh"

namespace pomtlb
{

/** Which level serviced an access. */
enum class MemLevel : std::uint8_t
{
    L1D = 0,
    L2D = 1,
    L3D = 2,
    Memory = 3,
};

/** Result of a full data-path access. */
struct HierarchyAccessResult
{
    Cycles latency = 0;
    MemLevel servedBy = MemLevel::L1D;
};

/** Result of a cache-only probe (TLB-line lookups). */
struct CacheProbeResult
{
    bool hit = false;
    MemLevel level = MemLevel::L2D;
    Cycles latency = 0;
};

/** Per-core L1D/L2D, shared L3D, backed by a DRAM controller. */
class DataHierarchy
{
  public:
    /**
     * @param config Geometry and feature flags.
     * @param memory Main-memory (DDR4) controller.
     * @param l4_channel Dedicated die-stacked channel for the
     *                   optional L4 data cache; required when
     *                   config.dieStackedL4Cache is set.
     */
    DataHierarchy(const SystemConfig &config, DramController &memory,
                  DramController *l4_channel = nullptr);

    /** Ordinary load/store down the full hierarchy. */
    HierarchyAccessResult accessData(CoreId core, Addr addr,
                                     AccessType type, Cycles now);

    /** Page-walker PTE read: L2D -> L3D -> DDR4, cached as data. */
    HierarchyAccessResult accessPte(CoreId core, Addr addr, Cycles now);

    /**
     * Probe L2D then L3D of @p core for the cache line at @p addr
     * holding a POM-TLB set. Never accesses memory.
     */
    CacheProbeResult probeTlbLine(CoreId core, Addr addr, Cycles now);

    /** Install a POM-TLB set line into L3D and the core's L2D. */
    void fillTlbLine(CoreId core, Addr addr);

    /** Invalidate a POM-TLB set line everywhere (shootdown support). */
    void invalidateTlbLine(Addr addr);

    SetAssocCache &l1d(CoreId core) { return *l1Caches[core]; }
    SetAssocCache &l2d(CoreId core) { return *l2Caches[core]; }
    SetAssocCache &l3d() { return *l3Cache; }

    unsigned numCores() const
    {
        return static_cast<unsigned>(l1Caches.size());
    }

    /** The optional L4 die-stacked data cache (null when absent). */
    DramCache *l4Cache() { return l4.get(); }

    /** Dirty L3 victims written to DRAM (writeback modelling on). */
    std::uint64_t dramWritebackCount() const
    {
        return dramWritebacks.value();
    }

    /** Aggregate L2D TLB-probe hit rate across all cores (Fig. 9). */
    double l2TlbProbeHitRate() const;
    /** L3D TLB-probe hit rate (of probes that missed in L2D). */
    double l3TlbProbeHitRate() const;

    /** Hierarchy-level statistics (writebacks, probe hit rates). */
    StatGroup &stats() { return statGroup; }

  private:
    /**
     * The one level walk: look up @p First, then each outer level,
     * down to memory; then fill every level that missed. accessData
     * starts at the L1D, accessPte at the L2D.
     */
    template <MemLevel First>
    HierarchyAccessResult access(CoreId core, Addr addr,
                                 AccessType type, Cycles now);

    /**
     * L3-miss backend: L4 DRAM cache (if any) then main memory,
     * issued at @p now; returns the cycles it adds.
     */
    Cycles missToMemory(Addr addr, AccessType type, Cycles now);

    DramController &mainMemory;
    std::unique_ptr<DramCache> l4;
    bool writebackTraffic;
    Counter dramWritebacks;
    StatGroup statGroup{"hierarchy"};
    std::vector<std::unique_ptr<SetAssocCache>> l1Caches;
    std::vector<std::unique_ptr<SetAssocCache>> l2Caches;
    std::unique_ptr<SetAssocCache> l3Cache;
};

} // namespace pomtlb

#endif // POMTLB_CACHE_HIERARCHY_HH
