/**
 * @file
 * The translation-scheme plug-in interface.
 *
 * The per-core MMU front end (L1 TLBs, optional private L2 TLB) is
 * common to every design the paper evaluates; what differs is what
 * happens after the last private SRAM TLB misses. Each scheme —
 * baseline nested walk, POM-TLB, Shared_L2, TSB, plus the contender
 * zoo in src/schemes/ — implements that step, so experiments swap a
 * single object. Schemes are constructed by name through the
 * string-keyed factory in sim/scheme_registry.hh. The base class
 * counts every miss a scheme resolves, by the point that served it
 * (the miss ledger), and a scheme exports ledger entries under its
 * own stat names. Both register in the `scheme` group the base class
 * owns; the machine attaches that group to its stats tree and resets
 * it at the warmup boundary.
 */

#ifndef POMTLB_SIM_SCHEME_HH
#define POMTLB_SIM_SCHEME_HH

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace pomtlb
{

/**
 * Where one translation was finally served from, across every scheme
 * and TLB level — the serving-level axis of the observability layer
 * (trace events and the `cycle_breakdown` of `pomtlb-stats-v1`).
 */
enum class ServicePoint : std::uint8_t
{
    /** Private L1 SRAM TLB hit (never reaches a scheme). */
    SramL1 = 0,
    /** Private L2 SRAM TLB hit (never reaches a scheme). */
    SramL2 = 1,
    /** POM-TLB set line found in the core's L2 data cache. */
    CacheL2D = 2,
    /** POM-TLB set line found in the shared L3 data cache. */
    CacheL3D = 3,
    /** POM-TLB entry fetched from the die-stacked DRAM partition. */
    PomDram = 4,
    /** Shared SRAM L2 TLB hit (the Shared_L2 baseline). */
    SharedTlb = 5,
    /** TSB software-buffer hit (the TSB baseline). */
    TsbBuffer = 6,
    /** Full page walk (any scheme's fallback, and the baseline). */
    PageWalk = 7,
    /** Coalesced-entry shared TLB hit (the Coalesced contender). */
    CoalescedTlb = 8,
    /** Victima translation found in a core's L2 data cache. */
    VictimaL2D = 9,
    /**
     * Victima translation found in the shared L3 data cache. The
     * last point: TranslationScheme sizes its miss ledger by it.
     */
    VictimaL3D = 10,
};

/** Stable snake_case name of @p point, as emitted in JSON. */
const char *servicePointName(ServicePoint point);

/** Every ServicePoint, in enum order. */
const std::vector<ServicePoint> &allServicePoints();

/**
 * Parse a servicePointName() string back to its ServicePoint (used
 * when reading `cycle_breakdown` objects). Empty optional on anything
 * else.
 */
std::optional<ServicePoint>
servicePointFromName(const std::string &name);

/** What a scheme reports back for one post-L2-TLB-miss translation. */
struct SchemeResult
{
    /** Cycles from the L2 TLB miss to translation availability. */
    Cycles cycles = 0;
    /** The resolved host-physical frame number. */
    PageNum pfn = 0;
    /** Whether a full page walk ended up being required. */
    bool walked = false;
    /** Which structure finally produced the translation. */
    ServicePoint servedBy = ServicePoint::PageWalk;
    /** Structure probes performed before the translation resolved. */
    std::uint8_t probes = 0;
    /**
     * Whether the scheme's first-guess path (e.g. the POM-TLB size
     * predictor) was the one that resolved the translation. Always
     * true for schemes without a prediction step.
     */
    bool firstTryServed = true;
};

/**
 * Interface every translation scheme implements, and the one miss
 * ledger: translateMiss() charges what resolve() returns to the
 * ServicePoint that served it.
 */
class TranslationScheme
{
  public:
    virtual ~TranslationScheme() = default;

    /**
     * Resolve the translation of @p vaddr for (vm, pid) after the
     * core's private TLBs missed, and charge the miss to the ledger:
     * its count, the count and cycles of the point that served it,
     * and the miss-cycle mean and histogram. @p size is the actual
     * page size of the referenced page (schemes with size predictors
     * must not use it for lookup ordering decisions — only for
     * correctness checks and predictor training).
     */
    SchemeResult
    translateMiss(CoreId core, Addr vaddr, PageSize size, VmId vm,
                  ProcessId pid, Cycles now)
    {
        const SchemeResult result =
            resolve(core, vaddr, size, vm, pid, now);
        const auto point = static_cast<std::size_t>(result.servedBy);
        ++misses;
        ++served[point];
        cycles[point] += result.cycles;
        missCycles.sample(static_cast<double>(result.cycles));
        missCycleHist.sample(result.cycles);
        return result;
    }

    /**
     * True when the scheme replaces the private L2 TLBs with its own
     * second-level structure (the Shared_L2 baseline).
     */
    virtual bool providesSecondLevel() const { return false; }

    /**
     * Steady-state pre-population hook: the engine calls this for
     * every page the trace will touch before timed simulation starts,
     * modelling a workload that has been running far longer than the
     * simulated window (the paper's 20-billion-instruction traces).
     * Schemes with large persistent translation stores (POM-TLB, TSB)
     * install the entry untimed; SRAM-only schemes ignore it.
     */
    virtual void
    prewarm(CoreId core, Addr vaddr, PageSize size, VmId vm,
            ProcessId pid, PageNum pfn)
    {
        (void)core;
        (void)vaddr;
        (void)size;
        (void)vm;
        (void)pid;
        (void)pfn;
    }

    /**
     * Single-page shootdown of scheme-held translation state
     * (Section 2.2: the POM-TLB participates in TLB shootdowns).
     */
    virtual void
    invalidatePage(Addr vaddr, PageSize size, VmId vm, ProcessId pid)
    {
        (void)vaddr;
        (void)size;
        (void)vm;
        (void)pid;
    }

    /**
     * VM-wide shootdown of scheme-held translation state. The page
     * walkers are the machine's: Machine::shootdownVm flushes them.
     */
    virtual void invalidateVm(VmId vm) { (void)vm; }

    /** The scheme's statistics group, named `scheme`. */
    StatGroup &stats() { return statGroup; }

    /** Misses charged since the last stats reset. */
    std::uint64_t missCount() const { return misses.value(); }
    /** Misses @p point served since the last stats reset. */
    std::uint64_t
    servedCount(ServicePoint point) const
    {
        return served[static_cast<std::size_t>(point)].value();
    }
    /** Mean scheme cycles per miss. */
    double avgMissCycles() const { return missCycles.mean(); }

    /**
     * (ServicePoint, cycles) of each point whose cycles the scheme
     * exported, in export order. They sum exactly to every cycle
     * charged since the last stats reset — the `cycle_breakdown`
     * invariant of `pomtlb-stats-v1` (tests/test_stats_export.cc).
     */
    std::vector<std::pair<ServicePoint, std::uint64_t>>
    cycleBreakdown() const;

  protected:
    /** Registers the whole ledger for the warmup reset. */
    TranslationScheme();

    /** The scheme's miss path; translateMiss() counts the miss. */
    virtual SchemeResult resolve(CoreId core, Addr vaddr,
                                 PageSize size, VmId vm,
                                 ProcessId pid, Cycles now) = 0;

    /** @name Export ledger entries under the scheme's stat names. */
    ///@{
    /** The miss count. */
    void exportMissCount(const std::string &stat);
    /** Misses @p point served. */
    void exportServedCount(const std::string &stat, ServicePoint point);
    /** Cycles of the misses @p point served; joins cycleBreakdown(). */
    void exportServedCycles(const std::string &stat, ServicePoint point);
    /** The mean and the log2 histogram of cycles per miss. */
    void exportMissCycles(const std::string &mean_stat,
                          const std::string &histogram_stat);
    ///@}

    /** Where a scheme registers its statistics (constructor body). */
    StatGroup statGroup{"scheme"};

  private:
    /** One ledger slot per ServicePoint (the enum is dense from 0). */
    static constexpr std::size_t pointCount =
        static_cast<std::size_t>(ServicePoint::VictimaL3D) + 1;

    Counter misses;
    Counter served[pointCount];
    Counter cycles[pointCount];
    Average missCycles;
    Log2Histogram missCycleHist;
    /** Points exportServedCycles() named, in export order. */
    std::vector<ServicePoint> breakdownPoints;
};

} // namespace pomtlb

#endif // POMTLB_SIM_SCHEME_HH
