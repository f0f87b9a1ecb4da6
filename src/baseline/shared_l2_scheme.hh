/**
 * @file
 * The Shared_L2 baseline (Bhattacharjee, Lustig, Martonosi, HPCA'11):
 * the private per-core L2 TLBs are combined into one large shared
 * SRAM TLB. An L1 TLB miss looks up the shared structure; a miss
 * there starts an ordinary page walk (Section 3.3).
 *
 * The shared structure's access latency is higher than a private L2
 * TLB's because of its capacity and the interconnect hop — the
 * default is derived from the Figure 4 CACTI-style scaling.
 */

#ifndef POMTLB_BASELINE_SHARED_L2_SCHEME_HH
#define POMTLB_BASELINE_SHARED_L2_SCHEME_HH

#include <memory>
#include <vector>

#include "common/config.hh"
#include "pagetable/walker.hh"
#include "sim/scheme.hh"
#include "tlb/tlb.hh"

namespace pomtlb
{

/** One shared SRAM L2 TLB replacing the private L2 TLBs. */
class SharedL2Scheme : public TranslationScheme
{
  public:
    /**
     * @param config    Shared-TLB geometry; entries should already be
     *                  scaled to the combined capacity of the private
     *                  L2 TLBs it replaces.
     * @param walkers   Per-core walkers for shared-TLB misses.
     */
    SharedL2Scheme(const TlbConfig &config,
                   std::vector<std::unique_ptr<PageWalker>> &walkers);

    std::string name() const override { return "Shared_L2"; }

    /** This scheme *is* the second level: cores keep no private L2. */
    bool providesSecondLevel() const override { return true; }

    void invalidatePage(Addr vaddr, PageSize size, VmId vm,
                        ProcessId pid) override;
    void invalidateVm(VmId vm) override;

    /** Hit rate of the shared SRAM structure. */
    double sharedHitRate() const { return sharedTlb->hitRate(); }
    /** Walks performed (shared-TLB misses) since the stats reset. */
    std::uint64_t walkCount() const
    {
        return servedCount(ServicePoint::PageWalk);
    }
    /** The shared SRAM structure itself. */
    const SetAssocTlb &tlb() const { return *sharedTlb; }

  private:
    SchemeResult resolve(CoreId core, Addr vaddr, PageSize size,
                         VmId vm, ProcessId pid, Cycles now) override;

    std::unique_ptr<SetAssocTlb> sharedTlb;
    Cycles sharedLatency;
    std::vector<std::unique_ptr<PageWalker>> &pageWalkers;
};

} // namespace pomtlb

#endif // POMTLB_BASELINE_SHARED_L2_SCHEME_HH
