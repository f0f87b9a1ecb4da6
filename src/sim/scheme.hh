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
 * string-keyed factory in sim/scheme_registry.hh. A scheme registers
 * its statistics in the `scheme` group the base class owns; the
 * machine attaches that group to its stats tree and resets it at the
 * warmup boundary.
 */

#ifndef POMTLB_SIM_SCHEME_HH
#define POMTLB_SIM_SCHEME_HH

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
    /** Victima translation found in the shared L3 data cache. */
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

/** Interface every translation scheme implements. */
class TranslationScheme
{
  public:
    virtual ~TranslationScheme() = default;

    /** Scheme name for reports. */
    virtual std::string name() const = 0;

    /**
     * Resolve the translation of @p vaddr for (vm, pid) after the
     * core's private TLBs missed. @p size is the actual page size of
     * the referenced page (schemes with size predictors must not use
     * it for lookup ordering decisions — only for correctness checks
     * and predictor training).
     */
    virtual SchemeResult translateMiss(CoreId core, Addr vaddr,
                                       PageSize size, VmId vm,
                                       ProcessId pid, Cycles now) = 0;

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

    /** VM-wide shootdown of any scheme-held translation state. */
    virtual void invalidateVm(VmId vm) = 0;

    /** The scheme's statistics group, named `scheme`. */
    StatGroup &stats() { return statGroup; }

    /**
     * Post-SRAM translation cycles attributed to each serving level,
     * as (ServicePoint, total cycles) pairs, read from counters
     * registered in stats(). The pair values sum exactly to every
     * cycle this scheme has charged through translateMiss() since
     * the last stats reset — the invariant
     * behind the `cycle_breakdown` consistency check of
     * `pomtlb-stats-v1` (tests/test_stats_export.cc).
     */
    virtual std::vector<std::pair<ServicePoint, std::uint64_t>>
    cycleBreakdown() const
    {
        return {};
    }

  protected:
    /** Where a scheme registers its statistics (constructor body). */
    StatGroup statGroup{"scheme"};
};

} // namespace pomtlb

#endif // POMTLB_SIM_SCHEME_HH
