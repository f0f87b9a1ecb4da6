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

    /** Walks performed since the last stats reset. */
    std::uint64_t walkCount() const { return missCount(); }
    /** Mean cycles per walk. */
    double avgWalkCycles() const { return avgMissCycles(); }
    /** Mean PTE memory references per walk. */
    double avgWalkRefs() const { return walkRefs.mean(); }

  private:
    SchemeResult resolve(CoreId core, Addr vaddr, PageSize size,
                         VmId vm, ProcessId pid, Cycles now) override;

    std::vector<std::unique_ptr<PageWalker>> &pageWalkers;
    Average walkRefs;
};

} // namespace pomtlb

#endif // POMTLB_BASELINE_NESTED_SCHEME_HH
