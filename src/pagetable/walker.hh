/**
 * @file
 * The hardware page-table walker: 1D (native) and 2D (virtualized)
 * walks, accelerated by per-core page-structure caches, with every
 * PTE read going through the data-cache hierarchy (PTEs are cached in
 * L2D$/L3D$ like any other data, as on real x86).
 *
 * The 2D walk follows Figure 1: each of the four guest-table reads
 * requires a host (EPT) walk of the guest PTE's guest-physical
 * address, and the final data gPA requires one more host walk —
 * up to 24 memory references when every structure cache misses.
 */

#ifndef POMTLB_PAGETABLE_WALKER_HH
#define POMTLB_PAGETABLE_WALKER_HH

#include "cache/hierarchy.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "pagetable/memory_map.hh"
#include "pagetable/psc.hh"
#include "tlb/tlb.hh"

namespace pomtlb
{

/** Result of one full translation walk. */
struct WalkResult
{
    /** Core cycles from walk start to final translation. */
    Cycles cycles = 0;
    /** PTE memory references performed (<= 24 virtualized, <= 4 native). */
    unsigned memRefs = 0;
    /** The final host-physical frame number. */
    PageNum hostPfn = 0;
    /** Page size of the translated page. */
    PageSize size = PageSize::Small4K;
};

/** A per-core page-table walker with PSC acceleration. */
class PageWalker
{
  public:
    /**
     * @param core      Owning core (cache routing).
     * @param memory_map OS substrate providing the page tables.
     * @param hierarchy Data caches PTE reads travel through.
     * @param psc_config Structure-cache geometry (Table 1).
     */
    PageWalker(CoreId core, MemoryMap &memory_map,
               DataHierarchy &hierarchy, const PscConfig &psc_config);

    /**
     * Translate @p vaddr for (vm, pid) at @p size, performing a
     * native 1D or virtualized 2D walk depending on the memory map's
     * mode. The page is demand-mapped if absent (costless OS model).
     */
    WalkResult walk(Addr vaddr, VmId vm, ProcessId pid, PageSize size,
                    Cycles now);

    /** Shootdown support: drop a VM's structure-cache entries. */
    void invalidateVm(VmId vm);

    /** Walks performed since the stats reset. */
    std::uint64_t walkCount() const { return walks.value(); }
    /** Mean PTE memory references per walk. */
    double avgRefsPerWalk() const { return refsPerWalk.mean(); }
    /** Mean cycles per walk. */
    double avgCyclesPerWalk() const { return cyclesPerWalk.mean(); }
    /** The guest-VA-indexed structure caches. */
    const PscSet &guestPscSet() const { return guestPsc; }

    /** This walker's statistics group ("walker.<core>"). */
    StatGroup &stats() { return statGroup; }

  private:
    /** Outcome of one host (EPT) walk. */
    struct HostWalkResult
    {
        HostPhysAddr hpa = 0;
        Cycles cycles = 0;
        unsigned refs = 0;
    };

    /** One host (EPT) walk of @p gpa starting at absolute time @p now. */
    HostWalkResult hostWalk(GuestPhysAddr gpa, VmId vm, Cycles now);

    WalkResult walkNative(Addr vaddr, VmId vm, ProcessId pid,
                          Cycles now);
    WalkResult walkVirtualized(Addr vaddr, VmId vm, ProcessId pid,
                               Cycles now);

    CoreId coreId;
    MemoryMap &memoryMap;
    DataHierarchy &dataHierarchy;
    /** Guest-VA-indexed PSC (guest dimension of the walk). */
    PscSet guestPsc;
    /** Small nested TLB caching gPA -> hPA translations (EPT side). */
    SetAssocTlb nestedTlb;
    Cycles nestedTlbLatency;

    Counter walks;
    Average refsPerWalk;
    Average cyclesPerWalk;
    /** Distribution of walk latencies (log2 buckets). */
    Log2Histogram walkCycleHist;
    /** Distribution of PTE references per walk (log2 buckets). */
    Log2Histogram walkRefHist;
    StatGroup statGroup;
};

} // namespace pomtlb

#endif // POMTLB_PAGETABLE_WALKER_HH
