/**
 * @file
 * The POM-TLB device: both in-DRAM partitions behind the dedicated
 * die-stacked channel, plus the set-address map. The translation
 * scheme (pomtlb/scheme.hh) drives the Figure 7 access flow; this
 * class owns storage and DRAM timing.
 */

#ifndef POMTLB_POMTLB_POM_TLB_HH
#define POMTLB_POMTLB_POM_TLB_HH

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "dram/controller.hh"
#include "pomtlb/addr_map.hh"
#include "pomtlb/array.hh"

namespace pomtlb
{

/** Result of a timed POM-TLB DRAM lookup. */
struct PomTlbDeviceResult
{
    bool hit = false;
    PageNum pfn = 0;
    Cycles cycles = 0;
    RowBufferOutcome rowBuffer = RowBufferOutcome::Closed;
};

/** The shared, addressable, in-DRAM L3 TLB. */
class PomTlb
{
  public:
    /**
     * @param config      Geometry (capacity, partitions, base PA).
     * @param die_stacked The dedicated die-stacked DRAM channel.
     */
    PomTlb(const PomTlbConfig &config, DramController &die_stacked);

    /** Host-physical address of the set @p vaddr maps to at @p size. */
    Addr
    setAddress(Addr vaddr, VmId vm, PageSize size) const
    {
        return addressMap.setAddress(pageNumber(vaddr, size), vm, size);
    }

    /**
     * Timed lookup: one die-stacked DRAM burst fetches the set, then
     * the four entries are searched associatively.
     */
    PomTlbDeviceResult lookupDram(Addr vaddr, VmId vm, ProcessId pid,
                                  PageSize size, Cycles now);

    /**
     * Untimed associative search of the set — used when the set's
     * line was found in a data cache (the cached line is coherent
     * with the array; see DESIGN.md on write-update semantics).
     */
    PomTlbArrayResult searchSet(Addr vaddr, VmId vm, ProcessId pid,
                                PageSize size);

    /**
     * Install a walked translation. The DRAM write advances the bank
     * timeline but its latency is not returned: fills happen off the
     * translation's critical path.
     */
    void install(Addr vaddr, VmId vm, ProcessId pid, PageSize size,
                 PageNum pfn, Cycles now);

    /** Untimed install (steady-state pre-population). */
    void installUntimed(Addr vaddr, VmId vm, ProcessId pid,
                        PageSize size, PageNum pfn);

    /** Single-page shootdown. */
    bool invalidatePage(Addr vaddr, VmId vm, ProcessId pid,
                        PageSize size);

    /** VM-wide shootdown; returns entries dropped. */
    std::uint64_t invalidateVm(VmId vm);

    /** Hit rate across both partitions (lookups only). */
    double hitRate() const;

    /** Row-buffer hit rate of the die-stacked channel (Figure 11). */
    double rowBufferHitRate() const
    {
        return dram.rowBufferHitRate();
    }

    /** The set-address map (Section 2.1 addressing). */
    const PomTlbAddressMap &addrMap() const { return addressMap; }
    /** The partition serving @p size pages. */
    const PomTlbPartition &
    partition(PageSize size) const
    {
        if (addressMap.isUnified())
            return smallPartition;
        return size == PageSize::Small4K ? smallPartition
                                         : largePartition;
    }

    /** Device-level statistics, with both partitions as children. */
    StatGroup &stats() { return statGroup; }

  private:
    PomTlbPartition &
    partitionFor(PageSize size)
    {
        if (addressMap.isUnified())
            return smallPartition;
        return size == PageSize::Small4K ? smallPartition
                                         : largePartition;
    }

    PomTlbAddressMap addressMap;
    PomTlbPartition smallPartition;
    PomTlbPartition largePartition;
    DramController &dram;
    StatGroup statGroup;
};

} // namespace pomtlb

#endif // POMTLB_POMTLB_POM_TLB_HH
