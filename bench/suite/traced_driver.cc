#include "traced_driver.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/bitutil.hh"
#include "common/hash_set.hh"
#include "sim/clock_heap.hh"
#include "trace/tracepack.hh"

namespace pomtlb::bench
{

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

/** One core's lane: the engine's Lane minus its streaming buffers. */
struct Lane
{
    Cycles clock = 0;
    std::uint64_t consumed = 0;
    std::uint64_t phaseDone = 0;
    Mmu *mmu = nullptr;
    VmId vm = 1;
    ProcessId pid = 1;
    InstCount instructions = 0;
    std::uint64_t pageWalks = 0;
    std::uint64_t shootdowns = 0;
};

/** The re-enacted engine: state shared by the two phases. */
class Driver
{
  public:
    Driver(Machine &machine_ref, const BenchmarkProfile &profile,
           const EngineConfig &config,
           std::vector<std::unique_ptr<TraceSource>> trace_sources)
        : machine(machine_ref), engineConfig(config),
          sources(std::move(trace_sources))
    {
        const unsigned cores = machine.numCores();
        if (sources.size() != cores)
            throw std::runtime_error("need one trace source per core");
        coreVm = config.coreVm;
        coreVm.resize(cores, coreVm.empty() ? VmId{1} : coreVm.back());
        corePid.resize(cores);
        for (unsigned core = 0; core < cores; ++core) {
            corePid[core] = static_cast<ProcessId>(
                profile.multithreaded ? config.pidBase
                                      : config.pidBase + core);
        }
    }

    TracedRun run();

  private:
    void prepopulate();
    void capture();
    void runPhase(std::vector<Lane> &lanes, std::uint64_t target);

    Machine &machine;
    EngineConfig engineConfig;
    std::vector<std::unique_ptr<TraceSource>> sources;
    std::vector<VmId> coreVm;
    std::vector<ProcessId> corePid;
    /** Each core's whole-run records, read once up front. */
    std::vector<std::vector<TraceRecord>> replay;
    std::uint64_t refsSinceShootdown = 0;
    LayerProfile layers;
};

void
Driver::capture()
{
    // The engine fills each core's capture buffer from the rewound
    // source before it scans it; with prepopulation off it streams
    // the same records during the run. Either way the loop sees
    // exactly these records, so reading them here changes nothing.
    const std::uint64_t per_core =
        engineConfig.warmupRefsPerCore + engineConfig.refsPerCore;
    replay.assign(machine.numCores(), {});
    for (unsigned core = 0; core < machine.numCores(); ++core) {
        TraceSource &source = *sources[core];
        source.rewind();
        std::vector<TraceRecord> &records = replay[core];
        records.resize(per_core);
        std::uint64_t done = 0;
        while (done < per_core) {
            const Clock::time_point start = Clock::now();
            const std::size_t got = source.fill(
                records.data() + done,
                static_cast<std::size_t>(per_core - done));
            layers.fillNs += nsBetween(start, Clock::now());
            if (got == 0)
                throw std::runtime_error("trace source " +
                                         source.describe() +
                                         " ran dry");
            done += got;
        }
        layers.fillRecords += per_core;
        source.rewind();
    }
}

void
Driver::prepopulate()
{
    // SimulationEngine::prepopulate(): one global dedup set over
    // (page, pid, vm), cores in order, back-to-back repeats skipped.
    MemoryMap &map = machine.memoryMap();
    TranslationScheme &scheme = machine.scheme();
    U64Set seen(std::size_t{1} << 16);
    for (unsigned core = 0; core < machine.numCores(); ++core) {
        const VmId vm = coreVm[core];
        const ProcessId pid = corePid[core];
        const std::uint64_t space_key =
            mix64((static_cast<std::uint64_t>(pid) << 16) | vm);
        std::uint64_t last_key = ~std::uint64_t{0};
        for (const TraceRecord &record : replay[core]) {
            const std::uint64_t key =
                mix64(pageBase(record.vaddr, record.pageSize)) ^
                space_key;
            if (key == last_key)
                continue;
            last_key = key;
            if (!seen.insert(key))
                continue;
            const Clock::time_point t0 = Clock::now();
            const TranslationInfo info = map.ensureMapped(
                vm, pid, record.vaddr, record.pageSize);
            const Clock::time_point t1 = Clock::now();
            scheme.prewarm(core, record.vaddr, record.pageSize, vm, pid,
                           info.hpa >> pageShift(record.pageSize));
            const Clock::time_point t2 = Clock::now();
            ++layers.ensureMappedCalls;
            layers.ensureMappedNs += nsBetween(t0, t1);
            layers.prewarmNs += nsBetween(t1, t2);
        }
    }
}

void
Driver::runPhase(std::vector<Lane> &lanes, std::uint64_t target)
{
    if (target == 0)
        return;

    DataHierarchy &hierarchy = machine.hierarchy();
    const std::uint64_t interval = engineConfig.shootdownIntervalRefs;
    const Clock::time_point loop_start = Clock::now();

    ClockHeap heap;
    heap.reset(lanes.size());
    for (std::uint32_t core = 0; core < lanes.size(); ++core) {
        lanes[core].phaseDone = 0;
        heap.push(lanes[core].clock, core);
    }

    while (!heap.empty()) {
        const std::uint32_t core = heap.topId();
        Lane &lane = lanes[core];
        const std::vector<TraceRecord> &records = replay[core];
        Mmu &mmu = *lane.mmu;
        Cycles clock = lane.clock;

        for (;;) {
            if (lane.consumed == records.size())
                throw std::runtime_error("captured trace exhausted");
            const TraceRecord &record = records[lane.consumed++];
            clock += record.instGap;
            lane.instructions += record.instGap + 1;

            const Clock::time_point t0 = Clock::now();
            const MmuResult translation = mmu.translate(
                record.vaddr, record.pageSize, lane.vm, lane.pid, clock);
            const Clock::time_point t1 = Clock::now();
            clock += translation.cycles;
            lane.pageWalks += translation.walked ? 1 : 0;

            const HierarchyAccessResult data = hierarchy.accessData(
                core, translation.hpa, record.type, clock);
            const Clock::time_point t2 = Clock::now();
            clock += data.latency;

            const std::uint64_t translate_ns = nsBetween(t0, t1);
            if (translation.level == TlbLevel::Miss) {
                ++layers.missCalls;
                layers.walks += translation.walked ? 1 : 0;
                layers.missNs += translate_ns;
                layers.missHist.add(translate_ns);
                const auto point =
                    static_cast<std::size_t>(translation.servedBy);
                ++layers.servedCalls[point];
                layers.servedNs[point] += translate_ns;
            } else {
                ++(translation.level == TlbLevel::L1 ? layers.l1Hits
                                                     : layers.l2Hits);
                layers.hitNs += translate_ns;
                layers.hitHist.add(translate_ns);
            }
            const std::uint64_t access_ns = nsBetween(t1, t2);
            const auto level = static_cast<std::size_t>(data.servedBy);
            layers.accessNs += access_ns;
            layers.accessHist.add(access_ns);
            ++layers.levelCalls[level];
            layers.levelNs[level] += access_ns;

            if (interval > 0 && ++refsSinceShootdown >= interval) {
                refsSinceShootdown = 0;
                machine.shootdownPage(record.vaddr, record.pageSize,
                                      lane.vm, lane.pid);
                clock += engineConfig.shootdownCycles;
                ++lane.shootdowns;
            }

            if (++lane.phaseDone == target) {
                lane.clock = clock;
                heap.popTop();
                break;
            }
            if (!heap.staysTop(clock, core)) {
                lane.clock = clock;
                heap.replaceTop(clock);
                ++layers.heapSwitches;
                break;
            }
        }
    }
    layers.refs += target * lanes.size();
    layers.loopNs += nsBetween(loop_start, Clock::now());
}

TracedRun
Driver::run()
{
    const unsigned cores = machine.numCores();
    const Clock::time_point prepopulate_start = Clock::now();
    capture();
    if (engineConfig.prepopulate)
        prepopulate();
    layers.prepopulateNs = nsBetween(prepopulate_start, Clock::now());

    std::vector<Lane> lanes(cores);
    for (unsigned core = 0; core < cores; ++core) {
        lanes[core].mmu = &machine.mmu(core);
        lanes[core].vm = coreVm[core];
        lanes[core].pid = corePid[core];
    }

    const std::uint64_t warmup = engineConfig.warmupRefsPerCore;
    if (warmup > 0) {
        runPhase(lanes, warmup);
        machine.resetStats();
        for (Lane &lane : lanes) {
            lane.instructions = 0;
            lane.pageWalks = 0;
            lane.shootdowns = 0;
        }
    }

    std::vector<Cycles> start_clocks(cores);
    for (unsigned core = 0; core < cores; ++core)
        start_clocks[core] = lanes[core].clock;
    runPhase(lanes, engineConfig.refsPerCore);

    TracedRun traced;
    traced.result.cores.resize(cores);
    for (unsigned core = 0; core < cores; ++core) {
        CoreRunStats &stats = traced.result.cores[core];
        const Lane &lane = lanes[core];
        const Mmu &mmu = *lane.mmu;
        stats.refs = engineConfig.refsPerCore;
        stats.instructions = lane.instructions;
        stats.cycles = lane.clock - start_clocks[core];
        stats.translationCycles = mmu.totalTranslationCycles();
        stats.l1TlbHits = mmu.l1HitCount();
        stats.l2TlbHits = mmu.l2HitCount();
        stats.lastLevelTlbMisses = mmu.lastLevelMissCount();
        stats.avgPenaltyPerMiss = mmu.avgPenaltyPerMiss();
        stats.pageWalks = lane.pageWalks;
        stats.shootdowns = lane.shootdowns;
    }
    traced.layers = std::move(layers);
    return traced;
}

} // namespace

void
NsHistogram::add(std::uint64_t ns)
{
    ++buckets[std::min(ns, clampNs)];
    ++samples;
}

void
NsHistogram::merge(const NsHistogram &other)
{
    for (std::size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += other.buckets[i];
    samples += other.samples;
}

double
NsHistogram::quantile(double q) const
{
    if (samples == 0)
        return 0.0;
    const double want = q * static_cast<double>(samples);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (static_cast<double>(seen) >= want)
            return static_cast<double>(i);
    }
    return static_cast<double>(clampNs);
}

void
LayerProfile::merge(const LayerProfile &other)
{
    fillNs += other.fillNs;
    fillRecords += other.fillRecords;
    prepopulateNs += other.prepopulateNs;
    ensureMappedCalls += other.ensureMappedCalls;
    ensureMappedNs += other.ensureMappedNs;
    prewarmNs += other.prewarmNs;
    l1Hits += other.l1Hits;
    l2Hits += other.l2Hits;
    hitNs += other.hitNs;
    hitHist.merge(other.hitHist);
    missCalls += other.missCalls;
    walks += other.walks;
    missNs += other.missNs;
    missHist.merge(other.missHist);
    for (std::size_t i = 0; i < servicePointCount; ++i) {
        servedCalls[i] += other.servedCalls[i];
        servedNs[i] += other.servedNs[i];
    }
    accessNs += other.accessNs;
    accessHist.merge(other.accessHist);
    for (std::size_t i = 0; i < memLevelCount; ++i) {
        levelCalls[i] += other.levelCalls[i];
        levelNs[i] += other.levelNs[i];
    }
    loopNs += other.loopNs;
    refs += other.refs;
    heapSwitches += other.heapSwitches;
}

std::vector<std::unique_ptr<TraceSource>>
engineSources(const Machine &machine, const BenchmarkProfile &profile,
              const EngineConfig &config)
{
    std::vector<std::unique_ptr<TraceSource>> sources;
    const unsigned cores = machine.numCores();
    if (!config.tracePackPath.empty()) {
        auto pack =
            std::make_shared<TracePackReader>(config.tracePackPath);
        for (unsigned core = 0; core < cores; ++core) {
            sources.push_back(std::make_unique<PackStreamSource>(
                pack, core % pack->streamCount()));
        }
        return sources;
    }
    const std::uint64_t seed = config.seed ^ machine.config().seed;
    for (unsigned core = 0; core < cores; ++core) {
        sources.push_back(
            std::make_unique<GeneratorSource>(profile, core, seed));
    }
    return sources;
}

TracedRun
runTraced(Machine &machine, const BenchmarkProfile &profile,
          const EngineConfig &config,
          std::vector<std::unique_ptr<TraceSource>> sources)
{
    if (allServicePoints().size() != servicePointCount)
        throw std::runtime_error("ServicePoint grew: update "
                                 "servicePointCount in traced_driver.hh");
    return Driver(machine, profile, config, std::move(sources)).run();
}

} // namespace pomtlb::bench
