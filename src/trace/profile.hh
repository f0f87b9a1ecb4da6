/**
 * @file
 * Benchmark profiles: the measurement substrate of the reproduction.
 *
 * The paper's methodology (Section 3.2) combines real-hardware
 * measurements (Table 2: translation overheads, cycles per L2 TLB
 * miss, large-page fractions) with trace-driven simulation. Lacking
 * the authors' Skylake testbed, we embed the published Table 2
 * numbers here as each benchmark's measured constants, and pair them
 * with a synthetic reference-stream model whose locality class,
 * footprint and page-size mix reproduce the workload's behaviour in
 * the simulated memory system. DESIGN.md documents this substitution.
 */

#ifndef POMTLB_TRACE_PROFILE_HH
#define POMTLB_TRACE_PROFILE_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace pomtlb
{

/** Reference-stream locality classes the generators implement. */
enum class AccessPattern : std::uint8_t
{
    /** Uniform random over the footprint (gups). */
    UniformRandom = 0,
    /** Sequential streaming with occasional region jumps. */
    Streaming = 1,
    /** Zipf-distributed page popularity with in-page runs. */
    ZipfHotspot = 2,
    /** Dependent pointer chasing across pages (graph workloads). */
    PointerChase = 3,
    /** Alternating streaming and random phases. */
    MixedPhases = 4,
};

/** Human-readable pattern name. */
const char *accessPatternName(AccessPattern pattern);

/** Everything known about one benchmark. */
struct BenchmarkProfile
{
    std::string name;

    // --- Measured constants (Table 2, the paper's Skylake runs) ---
    /** Translation overhead, native execution (% of cycles). */
    double overheadNativePct = 0.0;
    /** Translation overhead, virtualized execution (% of cycles). */
    double overheadVirtualPct = 0.0;
    /** Average translation cycles per L2 TLB miss, native. */
    double cyclesPerMissNative = 0.0;
    /** Average translation cycles per L2 TLB miss, virtualized. */
    double cyclesPerMissVirtual = 0.0;
    /** Fraction of accesses to 2 MB (THP) pages (%). */
    double fracLargePagesPct = 0.0;

    // --- Synthetic stream model (the PIN-trace substitute) ---
    AccessPattern pattern = AccessPattern::UniformRandom;
    /** Per-core virtual footprint in bytes. */
    Addr footprintBytes = Addr{256} << 20;
    /** Zipf skew for ZipfHotspot (ignored otherwise). */
    double zipfTheta = 0.8;
    /** Mean consecutive references within one page. */
    double runLength = 4.0;
    /** Mean non-memory instructions between references. */
    double instGapMean = 4.0;
    /** Fraction of references that are writes. */
    double writeFraction = 0.3;
    /**
     * Pointer-chase locality: fraction of the footprint forming the
     * hot node set, and the probability a hop lands in it. Real graph
     * and optimisation codes revisit a hot core of nodes; pure random
     * chase (hotProbability = 0) models the pathological cases.
     */
    double hotFraction = 0.1;
    double hotProbability = 0.0;
    /**
     * Spatial burst locality: when an in-page run ends, probability
     * the next run is in the adjacent page instead of a fresh draw.
     * Models allocation locality (neighbouring graph nodes, adjacent
     * rows of a matrix) — the spatio-temporal locality Section 4.4
     * credits for the POM-TLB's high DRAM row-buffer hit rate.
     */
    double localNextProbability = 0.0;
    /**
     * TLB-conflict stencil traffic: structured codes (grids,
     * stencils, column-major matrix ops) access pages at large
     * power-of-two strides that collide in the set-indexed SRAM
     * TLBs. A conflict group of @c conflictGroupPages pages spaced
     * @c conflictStridePages apart is cycled repeatedly; with more
     * pages than TLB ways, every revisit re-misses with a short
     * reuse distance — the regime in which cached POM-TLB lines pay
     * off most (one L2D$ hit versus a multi-reference walk).
     * A fraction @c conflictProbability of run starts enter the
     * current conflict group; the group re-seeds occasionally.
     */
    double conflictProbability = 0.0;
    unsigned conflictStridePages = 128;
    unsigned conflictGroupPages = 32;
    /**
     * Multithreaded workloads (PARSEC, graph) run all cores in one
     * address space sharing one footprint; SPEC CPU profiles run in
     * rate mode — one independent copy per core with its own address
     * space (Section 3.1).
     */
    bool multithreaded = false;
    /**
     * Streaming advance per reference. Real streams touch every
     * cache line but traces sample; a coarser stride lets a sweep
     * complete within simulable trace lengths while keeping several
     * references per page.
     */
    Addr streamStrideBytes = 256;

    /** Probability a page region is backed by a 2 MB page. */
    double largePageProbability() const
    {
        return fracLargePagesPct / 100.0;
    }

    /** Field-wise equality. */
    bool operator==(const BenchmarkProfile &) const = default;
};

/** The registry of the paper's fifteen workloads. */
class ProfileRegistry
{
  public:
    /** All fifteen profiles, in the paper's figure order. */
    static const std::vector<BenchmarkProfile> &all();

    /** Look up one profile by name (fatal if unknown). */
    static const BenchmarkProfile &byName(const std::string &name);

    /**
     * Non-fatal lookup: nullptr when @p name is unknown. Use this on
     * paths that must report errors instead of exiting (the sweep
     * runner propagates an exception; the CLI prints usage).
     */
    static const BenchmarkProfile *find(const std::string &name);

    /** Names, in figure order. */
    static std::vector<std::string> names();
};

} // namespace pomtlb

#endif // POMTLB_TRACE_PROFILE_HH
