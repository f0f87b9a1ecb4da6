#include "sim/engine.hh"

#include <algorithm>

#include "common/bitutil.hh"
#include "common/hash_set.hh"
#include "common/log.hh"
#include "sim/clock_heap.hh"
#include "trace/tracepack.hh"

namespace pomtlb
{

const RunTotals &
RunResult::totals() const
{
    if (cachedValid)
        return cached;

    RunTotals totals;
    double weighted_penalty = 0.0;
    for (const CoreRunStats &core : cores) {
        totals.refs += core.refs;
        totals.instructions += core.instructions;
        totals.cycles += core.cycles;
        totals.translationCycles += core.translationCycles;
        totals.l1TlbHits += core.l1TlbHits;
        totals.l2TlbHits += core.l2TlbHits;
        totals.lastLevelMisses += core.lastLevelTlbMisses;
        totals.pageWalks += core.pageWalks;
        totals.shootdowns += core.shootdowns;
        weighted_penalty += core.avgPenaltyPerMiss *
                            static_cast<double>(core.lastLevelTlbMisses);
    }
    totals.avgPenaltyPerMiss =
        totals.lastLevelMisses
            ? weighted_penalty /
                  static_cast<double>(totals.lastLevelMisses)
            : 0.0;
    totals.walkFraction =
        totals.lastLevelMisses
            ? static_cast<double>(totals.pageWalks) /
                  static_cast<double>(totals.lastLevelMisses)
            : 0.0;

    cached = totals;
    cachedValid = true;
    return cached;
}

SimulationEngine::SimulationEngine(Machine &machine_ref,
                                   const BenchmarkProfile &bench,
                                   const EngineConfig &config)
    : machine(machine_ref), engineConfig(config)
{
    const unsigned cores = machine.numCores();
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.reserve(cores);
    if (!config.tracePackPath.empty()) {
        // Replay a recorded pack instead of generating: one shared
        // mmap-ed reader, core c on stream c % stream_count.
        auto pack = std::make_shared<TracePackReader>(
            config.tracePackPath);
        for (unsigned core = 0; core < cores; ++core) {
            sources.push_back(std::make_unique<PackStreamSource>(
                pack, core % pack->streamCount()));
        }
    } else {
        const std::uint64_t seed =
            config.seed ^ machine.config().seed;
        for (unsigned core = 0; core < cores; ++core) {
            sources.push_back(std::make_unique<GeneratorSource>(
                bench, core, seed));
        }
    }
    buildStreams(bench, std::move(sources));
}

SimulationEngine::SimulationEngine(
    Machine &machine_ref, const BenchmarkProfile &bench,
    const EngineConfig &config,
    std::vector<std::unique_ptr<TraceSource>> trace_sources)
    : machine(machine_ref), engineConfig(config)
{
    simAssert(trace_sources.size() == machine.numCores(),
              "need exactly one trace source per core");
    buildStreams(bench, std::move(trace_sources));
}

void
SimulationEngine::buildStreams(
    const BenchmarkProfile &profile,
    std::vector<std::unique_ptr<TraceSource>> sources)
{
    const unsigned cores = machine.numCores();
    std::vector<VmId> core_vm = engineConfig.coreVm;
    core_vm.resize(cores, core_vm.empty() ? VmId{1} : core_vm.back());
    for (unsigned core = 0; core < cores; ++core) {
        TenantStream stream;
        stream.source = std::move(sources[core]);
        stream.homeCore = core;
        stream.vm = core_vm[core];
        // Multithreaded workloads share one address space (one
        // pid); rate-mode copies each run as their own process.
        stream.pid = static_cast<ProcessId>(
            profile.multithreaded ? engineConfig.pidBase
                                  : engineConfig.pidBase + core);
        stream.totalRefs =
            engineConfig.warmupRefsPerCore + engineConfig.refsPerCore;
        streams.add(std::move(stream));
    }
}

void
SimulationEngine::runPhase(std::vector<Lane> &lanes,
                           std::uint64_t target)
{
    if (target == 0)
        return;

    DataHierarchy &hierarchy = machine.hierarchy();
    const std::uint64_t interval = engineConfig.shootdownIntervalRefs;

    // Seed the scheduler with every lane's current clock. The heap
    // root is always the lexicographic minimum of (clock, core), so
    // lanes advance in exactly the order the old per-step linear
    // scan produced.
    ClockHeap heap;
    heap.reset(lanes.size());
    for (std::uint32_t core = 0; core < lanes.size(); ++core) {
        lanes[core].phaseDone = 0;
        heap.push(lanes[core].clock, core);
    }

    while (!heap.empty()) {
        const std::uint32_t core = heap.topId();
        Lane &lane = lanes[core];
        TenantStream &stream = streams.at(core);
        Mmu &mmu = *lane.mmu;
        const VmId vm = stream.vm;
        const ProcessId pid = stream.pid;
        Cycles clock = lane.clock;

        // Run this lane until it either finishes the phase or stops
        // being globally earliest; only then touch the heap.
        for (;;) {
            if (stream.blockPos == stream.blockLen)
                streams.refill(stream);
            const TraceRecord &record =
                stream.block[stream.blockPos++];
            ++stream.consumed;

            // Non-memory instructions retire at one per cycle.
            clock += record.instGap;
            lane.instructions += record.instGap + 1;

            const MmuResult translation = mmu.translate(
                record.vaddr, record.pageSize, vm, pid, clock);
            clock += translation.cycles;
            lane.pageWalks += translation.walked ? 1 : 0;

            const HierarchyAccessResult data = hierarchy.accessData(
                core, translation.hpa, record.type, clock);
            clock += data.latency;

            // Periodic TLB shootdowns (disabled by default).
            if (interval > 0 &&
                ++refsSinceShootdown >= interval) {
                refsSinceShootdown = 0;
                machine.shootdownPage(record.vaddr, record.pageSize,
                                      vm, pid);
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
                break;
            }
        }
    }
}

bool
prepopulateStreams(Machine &machine, TenantStreamSet &streams)
{
    // Capture the streams while enumerating them so the timed run
    // can replay the records instead of re-generating them.
    const bool capture = streams.captureEligible();
    MemoryMap &map = machine.memoryMap();
    U64Set seen(std::size_t{1} << 16);
    std::vector<TraceRecord> chunk;
    if (!capture) {
        chunk.resize(static_cast<std::size_t>(
            TenantStreamSet::streamBlockRecords));
    }

    for (std::size_t s = 0; s < streams.size(); ++s) {
        TenantStream &stream = streams.at(s);
        const std::uint64_t total = stream.totalRefs;
        // Replay exactly the records the timed run will issue.
        TraceSource &dry = *stream.source;
        dry.rewind();
        const VmId vm = stream.vm;
        const ProcessId pid = stream.pid;
        // Dedup key covers (page, pid, vm): the same page may need
        // separate entries per process and per VM.
        const std::uint64_t space_key =
            mix64((static_cast<std::uint64_t>(pid) << 16) | vm);

        if (capture)
            stream.replay.resize(total);

        std::uint64_t done = 0;
        std::uint64_t last_key = ~std::uint64_t{0};
        while (done < total) {
            TraceRecord *block;
            std::size_t want;
            if (capture) {
                block = stream.replay.data() + done;
                want = static_cast<std::size_t>(total - done);
            } else {
                block = chunk.data();
                want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(chunk.size(),
                                            total - done));
            }
            const std::size_t got = dry.fill(block, want);
            simAssert(got == want, "trace source exhausted during "
                                   "steady-state pre-population");
            for (std::size_t i = 0; i < got; ++i) {
                const TraceRecord &record = block[i];
                const Addr page =
                    pageBase(record.vaddr, record.pageSize);
                const std::uint64_t key = mix64(page) ^ space_key;
                // Page-local runs dominate the streams: skip the set
                // probe when the key repeats back-to-back.
                if (key == last_key)
                    continue;
                last_key = key;
                if (!seen.insert(key))
                    continue;
                const TranslationInfo info = map.ensureMapped(
                    vm, pid, record.vaddr, record.pageSize);
                machine.scheme().prewarm(
                    stream.homeCore, record.vaddr, record.pageSize,
                    vm, pid, info.hpa >> pageShift(record.pageSize));
            }
            done += got;
        }
        // Leave the source rewound whether or not the timed run will
        // replay the capture instead of re-reading it.
        dry.rewind();
    }
    return capture;
}

RunResult
SimulationEngine::run()
{
    const unsigned cores = machine.numCores();

    const bool captured = engineConfig.prepopulate &&
                          prepopulateStreams(machine, streams);
    streams.beginRun(captured);

    std::vector<Lane> lanes(cores);
    for (unsigned core = 0; core < cores; ++core)
        lanes[core].mmu = &machine.mmu(core);

    // Warmup: populate TLBs, caches, page tables, POM-TLB.
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

    // Measured phase.
    std::vector<Cycles> start_clocks(cores);
    for (unsigned core = 0; core < cores; ++core)
        start_clocks[core] = lanes[core].clock;
    runPhase(lanes, engineConfig.refsPerCore);

    RunResult result;
    result.cores.resize(cores);
    for (unsigned core = 0; core < cores; ++core) {
        CoreRunStats &stats = result.cores[core];
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

    // The capture can be tens of megabytes; do not hold it between
    // runs (a later run() re-captures during its pre-population).
    streams.releaseCaptures();
    return result;
}

} // namespace pomtlb
