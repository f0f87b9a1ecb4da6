/**
 * @file
 * Configuration structures mirroring Table 1 of the paper.
 *
 * Every structure carries the paper's default value and a validate()
 * method that fatal()s on impossible combinations, so misconfigured
 * experiments fail fast instead of producing quiet nonsense.
 */

#ifndef POMTLB_COMMON_CONFIG_HH
#define POMTLB_COMMON_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace pomtlb
{

/** Geometry and latency of one set-associative SRAM cache level. */
struct CacheConfig
{
    std::string name = "cache";     /**< Stat-group / log name. */
    std::uint64_t sizeBytes = 32 * 1024; /**< Total data capacity. */
    unsigned associativity = 8;     /**< Ways per set. */
    unsigned lineBytes = 64;        /**< Cache line size. */
    Cycles accessLatency = 4;       /**< Hit latency in core cycles. */

    /** Number of sets implied by the geometry. */
    std::uint64_t numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(associativity) *
                            lineBytes);
    }

    /** Fatal on impossible geometry (non-power-of-two sets, ...). */
    void validate() const;
};

/** Geometry and penalty of one SRAM TLB level. */
struct TlbConfig
{
    std::string name = "tlb"; /**< Stat-group / log name. */
    unsigned entries = 64;    /**< Total entry count. */
    unsigned associativity = 4; /**< Ways per set. */
    /** Cycles charged when this level misses (Table 1 miss penalty). */
    Cycles missPenalty = 9;
    /** Lookup latency for explicit probes (shared L2 TLB baseline). */
    Cycles accessLatency = 1;

    /** Number of sets implied by the geometry. */
    unsigned numSets() const { return entries / associativity; }

    /** Fatal on impossible geometry. */
    void validate() const;
};

/** Page-structure-cache sizes (PML4E / PDPE / PDE caches, Table 1). */
struct PscConfig
{
    unsigned pml4Entries = 2;  /**< PML4E cache entries. */
    unsigned pdpEntries = 4;   /**< PDPE cache entries. */
    unsigned pdeEntries = 32;  /**< PDE cache entries. */
    Cycles accessLatency = 2;  /**< PSC probe latency (core cycles). */

    /**
     * Nested-TLB entries caching complete gPA -> hPA translations for
     * the host (EPT) dimension of 2D walks. A hit short-circuits one
     * host walk; a miss pays the full four EPT references. The
     * Table 1 PSCs accelerate the guest dimension only.
     */
    unsigned nestedTlbEntries = 32;
    unsigned nestedTlbAssociativity = 4; /**< Nested-TLB ways. */
    Cycles nestedTlbLatency = 2; /**< Nested-TLB probe latency. */

    /** Fatal on impossible geometry. */
    void validate() const;
};

/**
 * DRAM timing parameters in memory-bus clock cycles plus the bus
 * geometry needed to convert to core cycles. Two parameterisations are
 * used: the die-stacked channel holding the POM-TLB and commodity
 * DDR4-2133 for main memory (Table 1).
 */
struct DramConfig
{
    std::string name = "dram"; /**< Stat-group / log name. */
    double busFreqGhz = 1.0;   /**< Memory bus clock. */
    unsigned busWidthBits = 128; /**< Data bus width. */
    std::uint64_t rowBufferBytes = 2048; /**< Open-row size. */
    unsigned tCas = 11; /**< Column access (CL), bus cycles. */
    unsigned tRcd = 11; /**< RAS-to-CAS delay, bus cycles. */
    unsigned tRp = 11;  /**< Row precharge, bus cycles. */
    unsigned numBanks = 8;    /**< Banks per channel. */
    unsigned numChannels = 1; /**< Independent channels. */
    unsigned burstBytes = 64; /**< Bytes moved per burst. */
    /** Core clock, to convert bus cycles into core cycles. */
    double coreFreqGhz = 4.0;
    /**
     * Maximum bus cycles a request may wait on bank/bus state. Models
     * a bounded controller queue; it also bounds the artificial
     * serialisation that per-core trace-clock skew would otherwise
     * introduce between loosely-ordered requests from different
     * cores.
     */
    unsigned maxQueueBusCycles = 48;
    /**
     * Periodic refresh: every @c refreshIntervalBusCycles (tREFI) a
     * channel stalls for @c refreshBusCycles (tRFC) and all its rows
     * close. Off by default — the paper's Ramulator-like model (and
     * its Table 1) does not account for refresh — but available for
     * fidelity studies.
     */
    bool refreshEnabled = false;
    unsigned refreshIntervalBusCycles = 7800; /**< tREFI (~7.8 us). */
    unsigned refreshBusCycles = 350;          /**< tRFC (~350 ns). */
    /**
     * Four-activation window (tFAW): at most four row activations
     * per channel within this many bus cycles. 0 disables the
     * constraint (the Table 1 model omits it).
     */
    unsigned tFaw = 0;

    /** Die-stacked (HBM-like) channel defaults from Table 1. */
    static DramConfig dieStacked();
    /** Off-chip DDR4-2133 defaults from Table 1. */
    static DramConfig ddr4();

    /** Multiply bus cycles into (rounded-up) core cycles. */
    Cycles toCoreCycles(double bus_cycles) const;

    /** Bus cycles needed to move one burst of @c burstBytes. */
    double burstBusCycles() const;

    /** Fatal on impossible timing/geometry combinations. */
    void validate() const;
};

/** POM-TLB geometry (Section 2.1.1). */
struct PomTlbConfig
{
    /** Total capacity across both partitions (paper default 16 MB). */
    std::uint64_t capacityBytes = 16 * 1024 * 1024;
    /**
     * Fraction of capacity given to the 4 KB-page partition. The paper
     * notes exact partition sizes matter little (Section 2.1.2); we
     * default to an even split so both partitions keep power-of-two
     * set counts.
     */
    double smallPartitionFraction = 0.5;
    unsigned entryBytes = 16;   /**< Bytes per TLB entry (§2.1.1). */
    unsigned associativity = 4; /**< Entries per set line. */
    /** Predictor table entries (512 x 2 bits, Section 2.1.4). */
    unsigned predictorEntries = 512;
    /** Base host-physical address the small partition is mapped at. */
    Addr baseAddress = Addr{0x10} << 36; // 1 TB, above simulated DRAM
    /** Whether POM-TLB entries may be cached in L2D$/L3D$. */
    bool cacheable = true;
    /** Whether the bypass predictor is active (Section 2.1.5). */
    bool bypassPredictor = true;
    /** Whether the page-size predictor is active (Section 2.1.4). */
    bool sizePredictor = true;
    /**
     * Section 6 extension: after each POM-TLB request, prefetch the
     * adjacent page's set line into the requesting core's data
     * caches (off the critical path). Off by default.
     */
    bool prefetchNextSet = false;
    /**
     * Footnote 1 extension: organise the POM-TLB as one unified
     * array indexed with a size-skewed hash instead of two
     * statically-sized partitions. Off by default (the paper's
     * design is partitioned).
     */
    bool unifiedOrganization = false;

    /** Capacity given to the 4 KB-page partition. */
    std::uint64_t
    smallPartitionBytes() const
    {
        return static_cast<std::uint64_t>(
            static_cast<double>(capacityBytes) * smallPartitionFraction);
    }

    /** Capacity left for the 2 MB-page partition. */
    std::uint64_t
    largePartitionBytes() const
    {
        return capacityBytes - smallPartitionBytes();
    }

    /** Fatal on impossible geometry. */
    void validate() const;
};

/** SPARC-style TSB baseline parameters (Section 3.3). */
struct TsbConfig
{
    std::uint64_t capacityBytes = 16 * 1024 * 1024; /**< TSB size. */
    unsigned entryBytes = 16; /**< Bytes per TSB entry. */
    /** Software trap entry/exit cost in core cycles. */
    Cycles trapCycles = 30;
    /** TSB lookups needed per complete translation (paper: several). */
    unsigned accessesPerTranslation = 2;

    /** Fatal on impossible geometry. */
    void validate() const;
};

/**
 * Coalesced-entry shared TLB (the "Coalesced" contender): one pooled
 * second-level SRAM TLB whose entries each cover an aligned run of
 * contiguous pages, merged SVNAPOT/CoLT-style as contiguity is
 * observed in walk results.
 */
struct CoalescedTlbConfig
{
    /** Pages per coalesced entry (aligned run; power of two). */
    unsigned rangePages = 8;
    /** Set associativity of the coalesced array. */
    unsigned associativity = 12;
    /** Access latency (pooled SRAM array + interconnect hop). */
    Cycles accessLatency = 24;

    /** Fatal on impossible geometry. */
    void validate() const;
};

/**
 * Victima-style contender: translations are stashed in (otherwise
 * underutilized) L2/L3 data-cache blocks instead of a dedicated
 * structure, so TLB reach scales with cache capacity.
 */
struct VictimaConfig
{
    /**
     * Base of the physical region translation blocks are named in;
     * far outside both host DRAM and the POM-TLB reserved region.
     */
    Addr baseAddress = Addr{0x11} << 36;
    /** Translation entries packed into one 64-byte cache block. */
    unsigned entriesPerBlock = 8;
    /** Size of the block-address region (bounds distinct blocks). */
    std::uint64_t regionBytes = 8 * 1024 * 1024;

    /** Fatal on impossible geometry. */
    void validate() const;
};

/** Full system configuration (Table 1 defaults). */
struct SystemConfig
{
    unsigned numCores = 8;    /**< Simulated cores (Table 1: 8). */
    double coreFreqGhz = 4.0; /**< Core clock. */
    ExecMode mode = ExecMode::Virtualized; /**< Native or guest. */

    CacheConfig l1d{"l1d", 32 * 1024, 8, 64, 4}; /**< Per-core L1D. */
    CacheConfig l2{"l2", 256 * 1024, 4, 64, 12}; /**< Per-core L2D. */
    CacheConfig l3{"l3", 8 * 1024 * 1024, 16, 64, 42}; /**< Shared L3. */

    TlbConfig l1TlbSmall{"l1tlb4k", 64, 4, 9, 1}; /**< L1 4 KB TLB. */
    TlbConfig l1TlbLarge{"l1tlb2m", 32, 4, 9, 1}; /**< L1 2 MB TLB. */
    TlbConfig l2Tlb{"l2tlb", 1536, 12, 17, 7}; /**< Unified L2 TLB. */

    PscConfig psc{}; /**< Page-structure caches + nested TLB. */
    /**
     * Section 5.1 extension: make L2D$/L3D$ eviction prefer data
     * lines over cached POM-TLB lines. Off by default (the paper
     * evaluates plain LRU and proposes this as future work).
     */
    bool tlbAwareCaching = false;
    /**
     * Route dirty L3 victims to main memory as background DRAM
     * writes (bank occupancy, not charged to any requester). Off by
     * default: writebacks are then only counted, matching the
     * paper's latency-focused model.
     */
    bool modelWritebackTraffic = false;
    /**
     * Section 2.2's alternative use of the stacked capacity: a
     * 16 MB die-stacked L4 *data* cache between the L3D$ and main
     * memory (its own channel). Mutually comparable with the
     * POM-TLB — the paper argues the TLB use wins; the
     * `abl-l4-cache` table of `pomtlb figures` measures it.
     */
    bool dieStackedL4Cache = false;
    std::uint64_t l4CacheBytes = 16 * 1024 * 1024; /**< L4 size. */
    DramConfig dieStacked = DramConfig::dieStacked(); /**< POM channel. */
    DramConfig mainMemory = DramConfig::ddr4(); /**< Main memory. */
    PomTlbConfig pomTlb{}; /**< POM-TLB geometry + predictors. */
    TsbConfig tsb{};       /**< TSB baseline parameters. */
    CoalescedTlbConfig coalesced{}; /**< Coalesced contender. */
    VictimaConfig victima{}; /**< Victima contender. */

    /** RNG seed that every derived stream forks from. */
    std::uint64_t seed = 0x5eed5eed;

    /** Validate every sub-config; fatal on the first violation. */
    void validate() const;

    /** The paper's 8-core Table 1 machine. */
    static SystemConfig table1();
};

} // namespace pomtlb

#endif // POMTLB_COMMON_CONFIG_HH
