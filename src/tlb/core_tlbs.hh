/**
 * @file
 * The per-core SRAM TLB stack: split L1 TLBs (4 KB / 2 MB) and an
 * optional unified private L2 TLB, as in the Skylake-like Table 1
 * organisation. The Shared_L2 baseline constructs cores without the
 * private L2 and routes L1 misses to one shared structure instead.
 */

#ifndef POMTLB_TLB_CORE_TLBS_HH
#define POMTLB_TLB_CORE_TLBS_HH

#include <memory>

#include "common/config.hh"
#include "common/types.hh"
#include "tlb/tlb.hh"

namespace pomtlb
{

/** Which TLB level (if any) satisfied a translation. */
enum class TlbLevel : std::uint8_t
{
    L1 = 0,
    L2 = 1,
    Miss = 2,
};

/** Result of running a translation through the per-core TLB stack. */
struct CoreTlbResult
{
    TlbLevel level = TlbLevel::Miss;
    PageNum pfn = 0;
    /** Cycles spent in the SRAM TLB levels before any scheme work. */
    Cycles cycles = 0;
};

/** One core's private TLB hierarchy. */
class CoreTlbs
{
  public:
    /**
     * @param config     System configuration (TLB geometries).
     * @param core       Owning core, for stat naming.
     * @param private_l2 Whether this core has a private L2 TLB.
     */
    CoreTlbs(const SystemConfig &config, CoreId core, bool private_l2);

    /**
     * Look up @p vpn through L1 then (if present) L2.
     * Cycles charged: 0 on an L1 hit, the L1 miss penalty on an L2
     * hit, and L1+L2 miss penalties on a full miss — matching the
     * Table 1 penalty accounting.
     */
    CoreTlbResult lookup(PageNum vpn, PageSize size, VmId vm,
                         ProcessId pid);

    /** Install a resolved translation into L1 (and L2 when present). */
    void insert(PageNum vpn, PageSize size, VmId vm, ProcessId pid,
                PageNum pfn);

    /** Single-page shootdown across all levels. */
    void invalidatePage(PageNum vpn, PageSize size, VmId vm,
                        ProcessId pid);

    /** VM-wide shootdown across all levels. */
    void invalidateVm(VmId vm);

    bool hasPrivateL2() const { return l2 != nullptr; }

    SetAssocTlb &l1For(PageSize size)
    {
        return size == PageSize::Small4K ? *l1Small : *l1Large;
    }
    SetAssocTlb &l2Tlb() { return *l2; }
    const SetAssocTlb &l1SmallTlb() const { return *l1Small; }
    const SetAssocTlb &l1LargeTlb() const { return *l1Large; }

  private:
    std::unique_ptr<SetAssocTlb> l1Small;
    std::unique_ptr<SetAssocTlb> l1Large;
    std::unique_ptr<SetAssocTlb> l2;
    Cycles l1MissPenalty;
    Cycles l2MissPenalty;
};

} // namespace pomtlb

#endif // POMTLB_TLB_CORE_TLBS_HH
