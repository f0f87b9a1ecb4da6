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

/** Where a POM-TLB translation request was finally served from. */
enum class PomServiceLevel : std::uint8_t
{
    L2Cache = 0,
    L3Cache = 1,
    PomDram = 2,
    PageWalk = 3,
};

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

    SchemeResult translateMiss(CoreId core, Addr vaddr, PageSize size,
                               VmId vm, ProcessId pid,
                               Cycles now) override;

    void prewarm(CoreId core, Addr vaddr, PageSize size, VmId vm,
                 ProcessId pid, PageNum pfn) override;

    void invalidatePage(Addr vaddr, PageSize size, VmId vm,
                        ProcessId pid) override;
    void invalidateVm(VmId vm) override;
    std::vector<std::pair<ServicePoint, std::uint64_t>>
    cycleBreakdown() const override;

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

    /** Requests finally served at @p level since the stats reset. */
    std::uint64_t servedCount(PomServiceLevel level) const
    {
        return served[static_cast<unsigned>(level)].value();
    }
    /** Total L2 TLB misses the scheme handled since the stats reset. */
    std::uint64_t requestCount() const { return requests.value(); }
    /** Mean scheme cycles per request. */
    double avgMissCycles() const { return missCycles.mean(); }

    /** The per-core size/bypass predictor (Figure 10 inputs). */
    const SizeBypassPredictor &predictor(CoreId core) const
    {
        return *predictors[core];
    }

  private:
    /** Try one page size end to end; returns true when translated. */
    bool trySize(CoreId core, Addr vaddr, PageSize size, VmId vm,
                 ProcessId pid, bool bypass, Cycles now,
                 Cycles &cycles, PageNum &pfn,
                 PomServiceLevel &level, std::uint8_t &probes);

    PomTlbConfig tlbConfig;
    PomTlb &pomTlb;
    DataHierarchy &dataHierarchy;
    std::vector<std::unique_ptr<PageWalker>> &pageWalkers;
    std::vector<std::unique_ptr<SizeBypassPredictor>> predictors;

    Counter requests;
    Counter served[4];
    /** Cycles of requests finally served at each PomServiceLevel. */
    Counter servedCycles[4];
    Counter secondSizeLookups;
    Counter bypasses;
    Counter prefetches;
    /** Predictor outcomes over all cores (Figure 10's accuracies). */
    Counter sizeCorrect;
    Counter sizePredictions;
    Counter bypassCorrect;
    Counter bypassPredictions;
    Average missCycles;
    Log2Histogram missCycleHist;
};

} // namespace pomtlb

#endif // POMTLB_POMTLB_SCHEME_HH
