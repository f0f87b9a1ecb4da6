/**
 * @file
 * The baseline translation scheme: an L2 TLB miss starts a page walk
 * (2D nested in virtualized mode), accelerated by the per-core
 * page-structure caches and by PTE caching in the data caches —
 * i.e., what a Skylake-class MMU does (Section 3's baseline).
 */

#ifndef POMTLB_BASELINE_NESTED_SCHEME_HH
#define POMTLB_BASELINE_NESTED_SCHEME_HH

#include <memory>
#include <vector>

#include "common/stats.hh"
#include "pagetable/walker.hh"
#include "sim/scheme.hh"

namespace pomtlb
{

/** Conventional nested-page-walk MMU. */
class NestedWalkScheme : public TranslationScheme
{
  public:
    explicit NestedWalkScheme(
        std::vector<std::unique_ptr<PageWalker>> &walkers);

    std::string name() const override { return "Baseline"; }

    SchemeResult translateMiss(CoreId core, Addr vaddr, PageSize size,
                               VmId vm, ProcessId pid,
                               Cycles now) override;

    void invalidateVm(VmId vm) override;
    std::vector<std::pair<ServicePoint, std::uint64_t>>
    cycleBreakdown() const override;

    /** Walks performed since the last stats reset. */
    std::uint64_t walkCount() const { return walks.value(); }
    /** Mean cycles per walk. */
    double avgWalkCycles() const { return walkCycles.mean(); }
    /** Mean PTE memory references per walk. */
    double avgWalkRefs() const { return walkRefs.mean(); }

  private:
    std::vector<std::unique_ptr<PageWalker>> &pageWalkers;
    Counter walks;
    Counter walkCyclesTotal;
    Average walkCycles;
    Average walkRefs;
    Log2Histogram walkCycleHist;
};

} // namespace pomtlb

#endif // POMTLB_BASELINE_NESTED_SCHEME_HH
