/**
 * @file
 * The SPARC-style Translation Storage Buffer baseline (Section 3.3).
 *
 * On an L2 TLB miss the hardware traps to software; the handler
 * probes a large software-allocated buffer in main memory. Compared
 * to the POM-TLB the TSB pays: (a) the trap entry/exit cost on every
 * miss, (b) a direct-mapped organisation (more conflict misses), and
 * (c) entries that are not direct guest-VA-to-host-PA translations,
 * so completing one translation takes multiple buffer accesses.
 * The handler's loads are ordinary software loads and therefore do
 * travel through the data caches.
 *
 * The buffer lives in lazily backed zeroed storage and a per-VM index
 * lists the rows each VM has a translation in, so host memory and VM
 * shootdowns cost what is resident, not the buffer's capacity.
 */

#ifndef POMTLB_BASELINE_TSB_SCHEME_HH
#define POMTLB_BASELINE_TSB_SCHEME_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/config.hh"
#include "common/vm_index.hh"
#include "common/zeroed_array.hh"
#include "pagetable/walker.hh"
#include "sim/scheme.hh"
#include "tlb/entry.hh"

namespace pomtlb
{

/** Software-managed TSB baseline. */
class TsbScheme : public TranslationScheme
{
  public:
    /**
     * @param config    TSB capacity, trap cost, accesses per
     *                  translation.
     * @param base_addr Host-physical base the buffer is allocated at.
     * @param hierarchy Data caches the handler's loads go through.
     * @param walkers   Per-core walkers for TSB misses.
     */
    TsbScheme(const TsbConfig &config, Addr base_addr,
              DataHierarchy &hierarchy,
              std::vector<std::unique_ptr<PageWalker>> &walkers);

    // The per-VM index and the stats hold callbacks into the object.
    TsbScheme(const TsbScheme &) = delete;
    TsbScheme &operator=(const TsbScheme &) = delete;

    std::string name() const override { return "TSB"; }

    void prewarm(CoreId core, Addr vaddr, PageSize size, VmId vm,
                 ProcessId pid, PageNum pfn) override;

    void invalidatePage(Addr vaddr, PageSize size, VmId vm,
                        ProcessId pid) override;
    void invalidateVm(VmId vm) override;

    /** Fraction of requests the buffer completed without a walk. */
    double tsbHitRate() const;
    /** Walks performed (buffer misses) since the stats reset. */
    std::uint64_t walkCount() const
    {
        return servedCount(ServicePoint::PageWalk);
    }

    /** Rows (direct-mapped indices) per stage. */
    std::uint64_t rowCount() const { return stageEntries; }
    /** Entry of @p stage in row @p index (for inspection). */
    const TlbEntry &
    bufferEntry(unsigned stage, std::uint64_t index) const
    {
        return buffer[index * stageCount + stage];
    }
    /** Rows listed per VM, with each VM's resident translations. */
    const VmSlotIndex &vmIndex() const { return vmRows; }

  private:
    SchemeResult resolve(CoreId core, Addr vaddr, PageSize size,
                         VmId vm, ProcessId pid, Cycles now) override;
    /** Index into one of the buffer's stages for @p vpn. */
    std::uint64_t indexOf(PageNum vpn, VmId vm, ProcessId pid) const;
    /** Host-physical address of a stage slot (for cache timing). */
    Addr slotAddr(unsigned stage, std::uint64_t index) const;
    /** The stage entries of row @p index, stage 0 first. */
    TlbEntry *row(std::uint64_t index)
    {
        return &buffer[index * stageCount];
    }
    /** Overwrite every stage of row @p index with one translation. */
    void fillRow(std::uint64_t index, PageNum vpn, PageSize size,
                 VmId vm, ProcessId pid, PageNum pfn);
    /** Does row @p index hold a translation of @p vm? */
    bool rowHoldsVm(std::uint64_t index, VmId vm) const;

    TsbConfig tsbConfig;
    Addr baseAddr;
    DataHierarchy &dataHierarchy;
    std::vector<std::unique_ptr<PageWalker>> &pageWalkers;

    /** Entries per stage (direct-mapped). */
    std::uint64_t stageEntries;
    /** Stages per translation (accessesPerTranslation). */
    unsigned stageCount;
    /**
     * The buffer content: one entry per stage in each direct-mapped
     * row, a row's stages contiguous. A translation completes only
     * when every stage matches, modelling the multi-access indirect
     * format of real TSB entries. Every write covers a whole row, so
     * a row's stages always agree and the per-VM index counts rows.
     */
    ZeroedArray<TlbEntry> buffer;
    VmSlotIndex vmRows;
};

} // namespace pomtlb

#endif // POMTLB_BASELINE_TSB_SCHEME_HH
