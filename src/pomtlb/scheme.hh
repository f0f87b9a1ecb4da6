/**
 * @file
 * The POM-TLB translation scheme: the Figure 7 access flow.
 *
 * On an L2 TLB miss:
 *  1. consult the per-core size/bypass predictor;
 *  2. compute the POM-TLB set address for the predicted size;
 *  3. unless bypassing, probe L2D$ then L3D$ for that line;
 *  4. on cache miss (or bypass), fetch the set from the die-stacked
 *     DRAM partition;
 *  5. if no entry matched, repeat for the other page size;
 *  6. if both sizes miss, fall back to a full page walk and install
 *     the walked translation into the POM-TLB (and the data caches).
 */

#ifndef POMTLB_POMTLB_SCHEME_HH
#define POMTLB_POMTLB_SCHEME_HH

#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "pagetable/walker.hh"
#include "pomtlb/pom_tlb.hh"
#include "pomtlb/predictor.hh"
#include "sim/scheme.hh"

namespace pomtlb
{

/** The paper's scheme (Section 2). */
class PomTlbScheme : public TranslationScheme
{
  public:
    /**
     * @param config    POM-TLB geometry and feature switches.
     * @param pom       The shared in-DRAM TLB device.
     * @param hierarchy Data caches for entry caching.
     * @param walkers   Per-core page walkers (fallback path).
     */
    PomTlbScheme(const PomTlbConfig &config, PomTlb &pom,
                 DataHierarchy &hierarchy,
                 std::vector<std::unique_ptr<PageWalker>> &walkers);

    std::string name() const override { return "POM-TLB"; }

    void prewarm(CoreId core, Addr vaddr, PageSize size, VmId vm,
                 ProcessId pid, PageNum pfn) override;

    void invalidatePage(Addr vaddr, PageSize size, VmId vm,
                        ProcessId pid) override;
    void invalidateVm(VmId vm) override;

    /** Figure 9: fraction of requests served by the L2D$. */
    double l2CacheServiceRate() const;
    /** Figure 9: of requests past the L2D$, fraction the L3D$ served. */
    double l3CacheServiceRate() const;
    /** Figure 9: of requests past both caches, fraction POM-DRAM served. */
    double pomDramServiceRate() const;
    /** Fraction of L2 TLB misses that avoided a page walk. */
    double walkEliminationRate() const;

    /** Figure 10 inputs, aggregated over cores. */
    double sizePredictorAccuracy() const;
    double bypassPredictorAccuracy() const;

    /** The per-core size/bypass predictor (Figure 10 inputs). */
    const SizeBypassPredictor &predictor(CoreId core) const
    {
        return *predictors[core];
    }

  private:
    SchemeResult resolve(CoreId core, Addr vaddr, PageSize size,
                         VmId vm, ProcessId pid, Cycles now) override;
    /**
     * Try one page size end to end; returns true when translated,
     * with the point that served it in @p result.
     */
    bool trySize(CoreId core, Addr vaddr, PageSize size, VmId vm,
                 ProcessId pid, bool bypass, Cycles now,
                 SchemeResult &result);

    PomTlbConfig tlbConfig;
    PomTlb &pomTlb;
    DataHierarchy &dataHierarchy;
    std::vector<std::unique_ptr<PageWalker>> &pageWalkers;
    std::vector<std::unique_ptr<SizeBypassPredictor>> predictors;

    Counter secondSizeLookups;
    Counter bypasses;
    Counter prefetches;
    /** Predictor outcomes over all cores (Figure 10's accuracies). */
    Counter sizeCorrect;
    Counter sizePredictions;
    Counter bypassCorrect;
    Counter bypassPredictions;
};

} // namespace pomtlb

#endif // POMTLB_POMTLB_SCHEME_HH
