#include "trace/generator.hh"

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace pomtlb
{

namespace
{
/** Canonical heap-like base for the modelled footprint. */
constexpr Addr footprintBaseAddr = Addr{0x100} << 32; // 1 TB VA
} // namespace

TraceGenerator::TraceGenerator(const BenchmarkProfile &profile,
                               CoreId core, std::uint64_t seed)
    : bench(profile),
      rng(mix64(seed ^ mix64(core + 0x9e37)) ^
          mix64(std::hash<std::string>{}(profile.name))),
      runGap(profile.runLength), instGap(profile.instGapMean),
      regionSalt(mix64(std::hash<std::string>{}(profile.name) ^ seed)),
      base(footprintBaseAddr),
      footprint(alignDown(profile.footprintBytes, largePageBytes)),
      chaseState(rng.next()),
      phaseRemaining(phaseLength)
{
    simAssert(footprint >= largePageBytes,
              "footprint must cover at least one 2 MB region");

    // Rate-mode copies get disjoint address-space regions (each copy
    // is an independent process); threads of a multithreaded workload
    // share one footprint (the region-size salt depends only on the
    // profile and experiment seed, so threads agree on page sizes).
    // The per-copy offset is deliberately NOT a power of two: real
    // processes get ASLR-staggered layouts, and a power-of-two
    // stagger would alias every copy onto the same POM-TLB sets
    // (Equation 1 extracts low VPN bits).
    if (!bench.multithreaded) {
        base += static_cast<Addr>(core) *
                ((Addr{1} << 40) + 947 * largePageBytes);
    }

    numSmallPages = footprint >> smallPageShift;

    // Page-size clusters (THP arenas) are roughly 1/32nd of the
    // footprint, clamped to [2 MB, 8 MB]: small enough that hot
    // regions and conflict groups mix both page sizes (so the
    // large-page fraction holds where it matters), large enough that
    // the miss stream still sees same-size streaks the 512-entry
    // size predictor can learn despite its 2 MB index aliasing.
    clusterShift = floorLog2(footprint) - 5;
    if (clusterShift > largePageShift + 2)
        clusterShift = largePageShift + 2;
    if (clusterShift < largePageShift)
        clusterShift = largePageShift;

    streamCursor.resize(numStreams);
    for (unsigned i = 0; i < numStreams; ++i) {
        Addr offset = (footprint / numStreams) * i;
        // Threads shard the sweep: stagger their stream origins.
        if (bench.multithreaded)
            offset += (footprint / numStreams / 8) * (core % 8);
        streamCursor[i] = offset % footprint;
    }

    if (bench.pattern == AccessPattern::ZipfHotspot ||
        bench.pattern == AccessPattern::MixedPhases) {
        const double theta =
            bench.zipfTheta > 0.0 ? bench.zipfTheta : 0.6;
        zipf = std::make_unique<ZipfGenerator>(numSmallPages, theta);
    }
}

std::string
TraceGenerator::inputKey(const BenchmarkProfile &profile, CoreId core,
                         std::uint64_t seed)
{
    std::ostringstream key;
    key << std::hexfloat << "generator core " << core << " seed "
        << seed << " pattern " << static_cast<int>(profile.pattern)
        << " footprint " << profile.footprintBytes << " large_pct "
        << profile.fracLargePagesPct << " zipf " << profile.zipfTheta
        << " run " << profile.runLength << " inst_gap "
        << profile.instGapMean << " write " << profile.writeFraction
        << " hot " << profile.hotFraction << ' '
        << profile.hotProbability << " local_next "
        << profile.localNextProbability << " conflict "
        << profile.conflictProbability << ' '
        << profile.conflictStridePages << ' '
        << profile.conflictGroupPages << " multithreaded "
        << profile.multithreaded << " stride "
        << profile.streamStrideBytes << " name " << profile.name;
    return key.str();
}

PageSize
TraceGenerator::pageSizeOf(Addr vaddr) const
{
    // THP promotes whole allocation arenas: page sizes come in long
    // same-size runs, so we flip a deterministic coin per cluster
    // (see clusterShift) rather than per 2 MB region. The clustering
    // is also what lets the 512-entry size predictor work: its 9
    // index bits alias every 2 MB, so a finer-grained interleaving
    // would be unlearnable (and unrealistic).
    const std::uint64_t cluster = vaddr >> clusterShift;
    const double draw =
        static_cast<double>(mix64(cluster ^ regionSalt) >> 11) *
        0x1.0p-53;
    return draw < bench.largePageProbability() ? PageSize::Large2M
                                               : PageSize::Small4K;
}

Addr
TraceGenerator::uniformAddr()
{
    return rebase(alignDown(rng.below(footprint), 8));
}

Addr
TraceGenerator::streamingAddr()
{
    // Stencil codes interleave their sweeps with strided plane/array
    // accesses that conflict in the TLBs; a conflict run interposes
    // here with per-reference probability conflictProbability / 4.
    if (runRemaining > 0) {
        --runRemaining;
        return rebase(runPageBase +
                      alignDown(rng.below(runPageSpan), 8));
    }
    if (bench.conflictProbability > 0.0 &&
        rng.chance(bench.conflictProbability / 4.0)) {
        runPageBase = conflictPage() << smallPageShift;
        runPageSpan = smallPageBytes;
        runRemaining = static_cast<unsigned>(runGap(rng));
        --runRemaining;
        return rebase(runPageBase +
                      alignDown(rng.below(runPageSpan), 8));
    }

    Addr &cursor = streamCursor[nextStream];
    nextStream = (nextStream + 1) % numStreams;

    const Addr addr = rebase(cursor);
    cursor += bench.streamStrideBytes;
    if (cursor >= footprint)
        cursor = 0;
    // Rare stream restarts model loop boundaries.
    if (rng.chance(1.0 / 50000.0))
        cursor = alignDown(rng.below(footprint), 64);
    return addr;
}

std::uint64_t
TraceGenerator::conflictPage()
{
    // Re-seed the stencil base after many passes over the group (a
    // plane/column change in the modelled structured code).
    const std::uint64_t reseed_after =
        static_cast<std::uint64_t>(bench.conflictGroupPages) * 50;
    if (conflictVisits == 0 || conflictVisits >= reseed_after) {
        conflictBasePage = rng.below(numSmallPages);
        conflictIndex = 0;
        conflictVisits = 0;
    }
    std::uint64_t page =
        (conflictBasePage +
         static_cast<std::uint64_t>(conflictIndex) *
             bench.conflictStridePages) %
        numSmallPages;
    conflictIndex = (conflictIndex + 1) % bench.conflictGroupPages;
    ++conflictVisits;

    // Stencil conflict traffic targets 4 KB-mapped regions (THP does
    // not promote scattered strided planes); skip forward a whole
    // 2 MB region at a time — 512 is a multiple of every TLB's set
    // count, so the colliding set index is preserved.
    constexpr std::uint64_t region_pages =
        largePageBytes / smallPageBytes;
    for (unsigned tries = 0;
         tries < 64 &&
         pageSizeOf(base + (page << smallPageShift)) !=
             PageSize::Small4K;
         ++tries) {
        page = (page + region_pages) % numSmallPages;
    }
    return page;
}

Addr
TraceGenerator::nextRunPage(bool use_zipf)
{
    if (bench.conflictProbability > 0.0 &&
        rng.chance(bench.conflictProbability)) {
        return conflictPage() << smallPageShift;
    }
    if (rng.chance(bench.localNextProbability)) {
        // Spatial burst: continue into the adjacent page.
        return runPageBase + smallPageBytes;
    }
    if (use_zipf) {
        // Scramble the Zipf rank so the hottest pages are scattered
        // across the footprint rather than clustered at its start.
        const std::uint64_t rank = zipf->next(rng);
        const std::uint64_t page =
            mix64(rank * 0x9e3779b97f4a7c15ULL) % numSmallPages;
        return page << smallPageShift;
    }
    // A dependent chain: the next node's page is a deterministic
    // scramble of the current state. With probability hotProbability
    // the hop lands in the hot node region at the start of the
    // footprint; otherwise it is uniform over the whole footprint.
    chaseState = mix64(chaseState + 0x9e3779b97f4a7c15ULL);
    const std::uint64_t hot_pages = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               static_cast<double>(numSmallPages) * bench.hotFraction));
    std::uint64_t page;
    if (rng.chance(bench.hotProbability))
        page = chaseState % hot_pages;
    else
        page = chaseState % numSmallPages;
    return page << smallPageShift;
}

Addr
TraceGenerator::zipfAddr()
{
    if (runRemaining == 0) {
        runPageBase = nextRunPage(true);
        runPageSpan = smallPageBytes;
        runRemaining = static_cast<unsigned>(runGap(rng));
    }
    --runRemaining;
    return rebase(runPageBase + alignDown(rng.below(runPageSpan), 8));
}

Addr
TraceGenerator::chaseAddr()
{
    if (runRemaining == 0) {
        runPageBase = nextRunPage(false);
        runPageSpan = smallPageBytes;
        runRemaining = static_cast<unsigned>(runGap(rng));
    }
    --runRemaining;
    return rebase(runPageBase + alignDown(rng.below(runPageSpan), 8));
}

Addr
TraceGenerator::mixedAddr()
{
    if (phaseRemaining == 0) {
        phaseStreaming = !phaseStreaming;
        phaseRemaining = phaseLength;
    }
    --phaseRemaining;
    return phaseStreaming ? streamingAddr() : zipfAddr();
}

std::size_t
TraceGenerator::fill(TraceRecord *out, std::size_t n)
{
    // next() is defined in this translation unit, so the compiler
    // inlines the whole record construction into this loop — the
    // per-record cost is pattern dispatch only, no call overhead.
    for (std::size_t i = 0; i < n; ++i)
        out[i] = next();
    return n;
}

TraceRecord
TraceGenerator::next()
{
    TraceRecord record;

    switch (bench.pattern) {
      case AccessPattern::UniformRandom:
        record.vaddr = uniformAddr();
        break;
      case AccessPattern::Streaming:
        record.vaddr = streamingAddr();
        break;
      case AccessPattern::ZipfHotspot:
        record.vaddr = zipfAddr();
        break;
      case AccessPattern::PointerChase:
        record.vaddr = chaseAddr();
        break;
      case AccessPattern::MixedPhases:
        record.vaddr = mixedAddr();
        break;
    }

    record.pageSize = pageSizeOf(record.vaddr);
    record.type = rng.chance(bench.writeFraction) ? AccessType::Write
                                                  : AccessType::Read;
    record.instGap = static_cast<std::uint32_t>(instGap(rng));
    return record;
}

} // namespace pomtlb
