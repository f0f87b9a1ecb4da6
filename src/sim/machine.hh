/**
 * @file
 * The full simulated machine: cores (MMUs + walkers), the data-cache
 * hierarchy, main-memory and die-stacked DRAM channels, the OS/VM
 * memory map, and one translation scheme. Construct one per
 * experiment configuration.
 */

#ifndef POMTLB_SIM_MACHINE_HH
#define POMTLB_SIM_MACHINE_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "dram/controller.hh"
#include "pagetable/memory_map.hh"
#include "pagetable/walker.hh"
#include "pomtlb/pom_tlb.hh"
#include "pomtlb/scheme.hh"
#include "sim/mmu.hh"
#include "sim/scheme.hh"
#include "sim/translation_trace.hh"

namespace pomtlb
{

/** A complete machine instance wired for one translation scheme. */
class Machine
{
  public:
    /**
     * Build a machine running the named translation scheme.
     *
     * @param config System geometry and feature switches.
     * @param scheme Registry name (canonical or alias) of the
     *               translation scheme to build behind the private
     *               SRAM TLBs; throws std::invalid_argument when no
     *               registered scheme answers to it.
     */
    Machine(const SystemConfig &config, const std::string &scheme);

    /** Core @p core's MMU front end. */
    Mmu &mmu(CoreId core) { return *mmus[core]; }
    /** Core @p core's page walker. */
    PageWalker &walker(CoreId core) { return *walkers[core]; }
    /** The shared data-cache hierarchy. */
    DataHierarchy &hierarchy() { return *dataHierarchy; }
    /** The OS/VM memory map (page tables, frame allocation). */
    MemoryMap &memoryMap() { return *memMap; }
    /** The translation scheme behind the SRAM TLBs. */
    TranslationScheme &scheme() { return *translationScheme; }
    /** The main-memory (DDR4) channel. */
    DramController &mainMemory() { return *mainMem; }
    /** The die-stacked channel (POM-TLB traffic). */
    DramController &dieStackedMemory() { return *dieStacked; }

    /** The POM-TLB device; null unless the scheme asked for one. */
    PomTlb *pomTlbDevice() { return pomTlb.get(); }
    /** The POM-TLB scheme view; null for other schemes. */
    PomTlbScheme *pomTlbScheme();

    /**
     * The page-walker pool (one walker per core) a scheme factory
     * wires its fallback path to.
     */
    std::vector<std::unique_ptr<PageWalker>> &walkerPool()
    {
        return walkers;
    }

    /**
     * The die-stacked POM-TLB device, constructed on first request —
     * for scheme factories that keep their translations in the
     * die-stacked DRAM partition.
     */
    PomTlb &ensurePomTlbDevice();

    /** Canonical registry name of the scheme this machine runs. */
    const std::string &schemeName() const { return schemeKey; }

    /** The (validated) system configuration the machine runs. */
    const SystemConfig &config() const { return systemConfig; }
    /** Number of cores (MMU/walker pairs). */
    unsigned numCores() const { return systemConfig.numCores; }

    /**
     * The machine-wide statistics tree: a root group (empty name)
     * with every component's group attached at construction. Its
     * toJson() is the `components` section of the `pomtlb-stats-v1`
     * document; its collect() gives the flat names of `sweep
     * --stats`.
     */
    const StatGroup &stats() const { return statsRoot; }

    /**
     * Attach a sampling translation tracer shared by every MMU.
     * @param capacity        Ring capacity in events.
     * @param sample_interval 1-in-N sampling interval (0 = the
     *                        POMTLB_TRACE_SAMPLE default).
     * @return The created tracer (owned by the machine).
     */
    TranslationTracer &enableTracing(std::size_t capacity = 4096,
                                     std::uint64_t sample_interval = 0);

    /** The attached tracer, or null when tracing is off. */
    TranslationTracer *tracer() { return eventTracer.get(); }

    /**
     * Full VM shootdown: TLBs, the page walkers' PSCs and nested
     * TLBs, then scheme state. This is the one place the walkers are
     * flushed; a scheme drops only what it holds itself.
     */
    void shootdownVm(VmId vm);

    /**
     * Single-page TLB shootdown (Section 2.2): drop the page's
     * translation from every core's SRAM TLBs and from the scheme's
     * persistent store (POM-TLB entry + its cached set line, shared
     * TLB entry, or TSB slots).
     */
    void shootdownPage(Addr vaddr, PageSize size, VmId vm,
                       ProcessId pid);

    /**
     * Zero every statistic in the tree and the tracer (the warmup
     * boundary). Gauges read live state and keep it.
     */
    void resetStats();

  private:
    SystemConfig systemConfig;
    /** Canonical registry name of the running scheme. */
    std::string schemeKey;

    std::unique_ptr<DramController> mainMem;
    std::unique_ptr<DramController> dieStacked;
    /** Extra die-stacked channel for the optional L4 data cache. */
    std::unique_ptr<DramController> l4Channel;
    std::unique_ptr<MemoryMap> memMap;
    std::unique_ptr<DataHierarchy> dataHierarchy;
    std::vector<std::unique_ptr<PageWalker>> walkers;
    std::unique_ptr<PomTlb> pomTlb;
    std::unique_ptr<TranslationScheme> translationScheme;
    std::vector<std::unique_ptr<Mmu>> mmus;
    std::unique_ptr<TranslationTracer> eventTracer;
    /** Root of the stats tree; children are component groups. */
    StatGroup statsRoot{""};
};

} // namespace pomtlb

#endif // POMTLB_SIM_MACHINE_HH
