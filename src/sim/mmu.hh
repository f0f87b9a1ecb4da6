/**
 * @file
 * The per-core MMU front end: private SRAM TLBs plus the pluggable
 * translation scheme behind them. This is the component every traced
 * memory reference enters first.
 */

#ifndef POMTLB_SIM_MMU_HH
#define POMTLB_SIM_MMU_HH

#include <memory>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "sim/scheme.hh"
#include "tlb/core_tlbs.hh"

namespace pomtlb
{

class TranslationTracer;

/** Result of translating one reference. */
struct MmuResult
{
    /** Total translation cycles beyond an L1 TLB hit (0 on L1 hit). */
    Cycles cycles = 0;
    /** The host-physical address. */
    HostPhysAddr hpa = 0;
    /** Which private TLB level hit (Miss = scheme resolved it). */
    TlbLevel level = TlbLevel::Miss;
    /** The structure that finally produced the translation. */
    ServicePoint servedBy = ServicePoint::SramL1;
    /** Whether a full page walk happened. */
    bool walked = false;
};

/** One core's MMU. */
class Mmu
{
  public:
    /**
     * @param config System configuration (TLB geometry).
     * @param core   Owning core id.
     * @param scheme Post-TLB translation scheme (shared object).
     */
    Mmu(const SystemConfig &config, CoreId core,
        TranslationScheme &scheme);

    /** Translate @p vaddr; updates TLBs and charges scheme costs. */
    MmuResult translate(Addr vaddr, PageSize size, VmId vm,
                        ProcessId pid, Cycles now);

    /** VM-wide shootdown of this core's private TLBs. */
    void invalidateVm(VmId vm);

    /**
     * Attach (or detach with nullptr) a translation tracer; every
     * translation then consults its 1-in-N sampler. The tracer must
     * outlive the MMU or be detached first.
     */
    void setTracer(TranslationTracer *t) { tracer = t; }

    /** This core's private SRAM TLB stack. */
    CoreTlbs &tlbs() { return *coreTlbs; }

    /** References translated since the stats reset. */
    std::uint64_t translationCount() const
    {
        return translations.value();
    }
    /** Translations the L1 TLBs served. */
    std::uint64_t l1HitCount() const { return l1Hits.value(); }
    /** Translations the private L2 TLB served. */
    std::uint64_t l2HitCount() const { return l2Hits.value(); }
    /** Translations that missed every private SRAM level. */
    std::uint64_t lastLevelMissCount() const { return l2Misses.value(); }
    /** Sum of post-L1 translation cycles (the T_post of DESIGN.md). */
    std::uint64_t totalTranslationCycles() const
    {
        return translationCycles.value();
    }
    /**
     * Cycles charged by the SRAM TLB levels alone. The invariant
     * totalTranslationCycles() == totalSramCycles() +
     * totalSchemeCycles() holds exactly and is asserted in tests.
     */
    std::uint64_t totalSramCycles() const
    {
        return sramCycles.value();
    }
    /** Cycles charged by the translation scheme alone. */
    std::uint64_t totalSchemeCycles() const
    {
        return schemeCycles.value();
    }
    /** Average scheme cycles per last-level TLB miss (the paper's P). */
    double avgPenaltyPerMiss() const { return missPenalty.mean(); }

    /** Distribution of per-miss penalties (32-cycle buckets). */
    const Histogram &penaltyHistogram() const { return penaltyHist; }

    /** This core's MMU statistics group, private TLBs as children. */
    StatGroup &stats() { return statGroup; }

  private:
    CoreId coreId;
    TranslationScheme &translationScheme;
    std::unique_ptr<CoreTlbs> coreTlbs;
    /** Optional sampled event trace sink (not owned). */
    TranslationTracer *tracer = nullptr;

    Counter translations;
    Counter l1Hits;
    Counter l2Hits;
    Counter l2Misses;
    Counter translationCycles;
    /** SRAM-TLB share of translationCycles (exact split). */
    Counter sramCycles;
    /** Scheme share of translationCycles (exact split). */
    Counter schemeCycles;
    Average missPenalty;
    Histogram penaltyHist{32, 32};
    Log2Histogram penaltyCycleHist;
    StatGroup statGroup;
};

} // namespace pomtlb

#endif // POMTLB_SIM_MMU_HH
