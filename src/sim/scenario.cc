#include "sim/scenario.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/bitutil.hh"
#include "common/content_hash.hh"
#include "common/log.hh"
#include "sim/clock_heap.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"
#include "sim/stats_export.hh"
#include "tlb/core_tlbs.hh"
#include "trace/profile.hh"
#include "trace/tracepack.hh"

namespace pomtlb
{

// ---------------------------------------------------------------
// Spec resolution
// ---------------------------------------------------------------

namespace
{

/**
 * The error for a scenario that cannot run, named by @p message.
 * Callers build the message only once a check has failed: a compile
 * resolves every tenant, so an eager message would cost each run.
 */
std::invalid_argument
inputError(const std::string &message)
{
    return std::invalid_argument("scenario: " + message);
}

/** Canonical registry name of @p scheme (raw name when unknown). */
std::string
canonicalScheme(const std::string &scheme)
{
    const SchemeRegistry::Info *info =
        SchemeRegistry::global().find(scheme);
    return info ? info->name : scheme;
}

/**
 * The per-machine half of steady-state pre-population: installs each
 * first touch of @p enumeration, stream by stream in record order, in
 * the page tables and the scheme's persistent translation store,
 * under the stream's VM, pid and home core.
 */
void
installFirstTouches(Machine &machine, const TenantStreamSet &streams,
                    const StreamEnumeration &enumeration)
{
    MemoryMap &map = machine.memoryMap();
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const TenantStream &stream = streams.at(s);
        for (const FirstTouch &touch : enumeration.firstTouches[s]) {
            const TranslationInfo info = map.ensureMapped(
                stream.vm, stream.pid, touch.vaddr, touch.pageSize);
            machine.scheme().prewarm(
                stream.homeCore, touch.vaddr, touch.pageSize,
                stream.vm, stream.pid,
                info.hpa >> pageShift(touch.pageSize));
        }
    }
}

} // namespace

std::vector<ResolvedTenant>
ScenarioSpec::resolvedTenants() const
{
    if (engine.refsPerCore > std::numeric_limits<std::uint64_t>::max() -
                                 engine.warmupRefsPerCore) {
        throw inputError("warmup + refs per core (" +
                         std::to_string(engine.warmupRefsPerCore) +
                         " + " + std::to_string(engine.refsPerCore) +
                         ") overflows 64 bits");
    }
    const std::uint64_t total =
        engine.warmupRefsPerCore + engine.refsPerCore;
    const unsigned cores = system.numCores;
    if (total == 0)
        throw inputError("run length (warmup + refs per core) is zero");

    std::vector<TenantSpec> expanded;
    if (tenantCount > 0) {
        // Generator mode: expand the churn model into an explicit
        // tenant list, so it resolves (and hashes) exactly like one.
        const std::vector<std::string> cycle =
            tenantBenchmarks.empty()
                ? std::vector<std::string>{"mcf"}
                : tenantBenchmarks;
        const unsigned n = tenantCount;
        unsigned vcpus = 1;
        if (n < cores) {
            if (cores % n != 0) {
                throw inputError("tenant count " + std::to_string(n) +
                                 " must divide the core count " +
                                 std::to_string(cores) +
                                 " when tenants span multiple cores");
            }
            vcpus = cores / n;
        }
        expanded.reserve(n);
        for (unsigned t = 0; t < n; ++t) {
            TenantSpec tenant;
            tenant.name.append("t").append(std::to_string(t));
            tenant.benchmark = cycle[t % cycle.size()];
            tenant.vcpus = vcpus;
            expanded.push_back(std::move(tenant));
        }
        if (vcpus == 1 && n > cores) {
            // Churn: tenant t homes on core t % cores (the stream
            // placement rule), so schedule each core's queue
            // independently — the first `resident` tenants start
            // resident, and every `interval` references the oldest
            // departs as the next one arrives.
            const unsigned resident =
                residentPerCore ? residentPerCore : 1;
            for (unsigned core = 0; core < cores; ++core) {
                std::vector<unsigned> homed;
                for (unsigned t = core; t < n; t += cores)
                    homed.push_back(t);
                const std::size_t k = homed.size();
                const std::size_t r =
                    std::min<std::size_t>(resident, k);
                if (k <= r)
                    continue; // everyone fits: no churn on this core
                const std::uint64_t slots = k - r + 1;
                const std::uint64_t interval =
                    churnIntervalRefs ? churnIntervalRefs
                                      : total / slots;
                if (interval == 0) {
                    throw inputError("churn interval resolves to zero "
                                     "(run too short for " +
                                     std::to_string(n) + " tenants)");
                }
                for (std::size_t j = 0; j < k; ++j) {
                    TenantSpec &tenant = expanded[homed[j]];
                    tenant.arrivalRefs =
                        j < r ? 0 : (j - r + 1) * interval;
                    tenant.departureRefs =
                        (j + r < k) ? (j + 1) * interval : 0;
                    if (tenant.arrivalRefs >= total) {
                        throw inputError("churn interval " +
                                         std::to_string(interval) +
                                         " too large: a tenant arrives "
                                         "after the run ends");
                    }
                }
            }
        }
    } else {
        expanded = tenants;
    }
    if (expanded.empty())
        throw inputError("no tenants (tenant count 0 and no tenant list)");
    // A factor below 1 would grow footprints instead (past 2^64 bytes
    // for a tiny one), and an infinite one has no JSON identity.
    if (!(std::isfinite(overcommitFactor) && overcommitFactor >= 1.0)) {
        char factor[32];
        char *end =
            std::to_chars(factor, factor + sizeof factor, overcommitFactor)
                .ptr;
        std::string message = "overcommit factor ";
        message.append(factor, end);
        throw inputError(message + " must be finite and at least 1");
    }

    std::vector<ResolvedTenant> resolved;
    resolved.reserve(expanded.size());
    ProcessId next_pid = engine.pidBase;
    std::uint32_t stream_base = 0;
    for (std::size_t i = 0; i < expanded.size(); ++i) {
        const TenantSpec &t = expanded[i];
        const BenchmarkProfile &profile =
            ProfileRegistry::byName(t.benchmark);
        ResolvedTenant out;
        out.name = t.name;
        if (out.name.empty())
            out.name.append("t").append(std::to_string(i));
        out.benchmark = profile.name;
        out.vcpus = std::max(1u, t.vcpus);
        out.vm = t.vm != 0 ? t.vm : static_cast<VmId>(1 + i);
        out.multithreaded = profile.multithreaded;
        if (t.pid != 0) {
            out.pidBase = t.pid;
        } else {
            out.pidBase = next_pid;
            next_pid = static_cast<ProcessId>(
                next_pid +
                (profile.multithreaded ? 1 : out.vcpus));
        }
        if (t.arrivalRefs >= total) {
            throw inputError("tenant '" + out.name + "' arrives at ref " +
                             std::to_string(t.arrivalRefs) +
                             ", at or after the run end " +
                             std::to_string(total));
        }
        out.arrivalRefs = t.arrivalRefs;
        out.departureRefs =
            (t.departureRefs == 0 || t.departureRefs > total)
                ? total
                : t.departureRefs;
        if (out.departureRefs <= out.arrivalRefs) {
            throw inputError("tenant '" + out.name +
                             "' departs before it arrives");
        }
        const Addr nominal = t.footprintBytes
                                 ? t.footprintBytes
                                 : profile.footprintBytes;
        out.footprintBytes = nominal;
        if (overcommitFactor != 1.0) {
            out.footprintBytes = std::max<Addr>(
                Addr{1} << 12,
                static_cast<Addr>(static_cast<double>(nominal) /
                                  overcommitFactor));
        }
        out.traceStreamBase = stream_base;
        stream_base += out.vcpus;
        resolved.push_back(std::move(out));
    }
    return resolved;
}

// ---------------------------------------------------------------
// ScenarioEngine: compilation
// ---------------------------------------------------------------

ScenarioEngine::ScenarioEngine(Machine &machine_ref,
                               const ScenarioSpec &scenario)
    : machine(machine_ref), spec(scenario),
      engineConfig(scenario.engine)
{
    simAssert(machine.numCores() == spec.system.numCores,
              "machine geometry does not match the scenario's "
              "system config");
    totalPerCore =
        engineConfig.warmupRefsPerCore + engineConfig.refsPerCore;
    tenants = spec.resolvedTenants();
    buildStreams();
    buildSchedule();
}

void
ScenarioEngine::buildStreams()
{
    const unsigned cores = machine.numCores();
    const std::uint64_t seed =
        engineConfig.seed ^ machine.config().seed;
    // Every tenant replays the one pack through one mmap-ed reader.
    const std::shared_ptr<TracePackReader> pack =
        spec.tracePack.empty()
            ? nullptr
            : std::make_shared<TracePackReader>(spec.tracePack);
    std::uint32_t stream_id = 0;
    for (unsigned t = 0; t < tenants.size(); ++t) {
        const ResolvedTenant &tenant = tenants[t];
        // The stream generates against the tenant's *effective*
        // footprint, so overcommit shrinks the touched page pool —
        // the resident working set — rather than slowing the clock.
        BenchmarkProfile profile =
            ProfileRegistry::byName(tenant.benchmark);
        profile.footprintBytes = tenant.footprintBytes;
        for (unsigned v = 0; v < tenant.vcpus; ++v, ++stream_id) {
            TenantStream stream;
            if (pack) {
                // vCPU stream i replays pack stream i mod stream_count.
                const std::size_t index =
                    stream_id % pack->streamCount();
                auto source =
                    std::make_unique<PackStreamSource>(pack, index);
                if (source->recordCount() == 0) {
                    throw TraceError(
                        "trace pack '" + spec.tracePack +
                        "': stream '" + pack->stream(index).name +
                        "' has no records to replay");
                }
                stream.source = std::move(source);
            } else {
                stream.source = std::make_unique<GeneratorSource>(
                    profile, CoreId(stream_id), seed);
            }
            stream.tenant = t;
            stream.homeCore = stream_id % cores;
            stream.vm = tenant.vm;
            stream.pid =
                tenant.multithreaded
                    ? tenant.pidBase
                    : static_cast<ProcessId>(tenant.pidBase + v);
            streams.add(std::move(stream));
        }
    }
}

void
ScenarioEngine::buildSchedule()
{
    const unsigned cores = machine.numCores();
    const std::uint64_t quantum =
        spec.timeSliceRefs ? spec.timeSliceRefs : 2000;

    std::vector<std::vector<std::uint32_t>> homed(cores);
    for (std::uint32_t s = 0; s < streams.size(); ++s)
        homed[streams.at(s).homeCore].push_back(s);

    schedule.assign(cores, {});
    for (unsigned core = 0; core < cores; ++core) {
        simAssert(!homed[core].empty(),
                  "scenario leaves a core with no tenant streams");

        // Segment the core's timeline at every arrival/departure.
        std::vector<std::uint64_t> bounds{0, totalPerCore};
        for (const std::uint32_t s : homed[core]) {
            const ResolvedTenant &t =
                tenants[streams.at(s).tenant];
            if (t.arrivalRefs > 0 && t.arrivalRefs < totalPerCore)
                bounds.push_back(t.arrivalRefs);
            if (t.departureRefs < totalPerCore)
                bounds.push_back(t.departureRefs);
        }
        std::sort(bounds.begin(), bounds.end());
        bounds.erase(std::unique(bounds.begin(), bounds.end()),
                     bounds.end());

        std::vector<Slice> plan;
        const auto append = [&plan](std::uint32_t stream,
                                    std::uint64_t length) {
            if (!plan.empty() && plan.back().stream == stream) {
                plan.back().length += length;
                return;
            }
            Slice slice;
            slice.stream = stream;
            slice.length = length;
            plan.push_back(slice);
        };

        // Round-robin within each segment; the rotation cursor
        // carries across segments so no stream is systematically
        // favoured at segment boundaries.
        std::size_t rotation = 0;
        for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
            const std::uint64_t begin = bounds[b];
            const std::uint64_t end = bounds[b + 1];
            std::vector<std::uint32_t> active;
            for (const std::uint32_t s : homed[core]) {
                const ResolvedTenant &t =
                    tenants[streams.at(s).tenant];
                if (t.arrivalRefs <= begin &&
                    t.departureRefs >= end) {
                    active.push_back(s);
                }
            }
            simAssert(!active.empty(),
                      "scenario schedule leaves a core idle (no "
                      "resident tenant in a segment)");
            if (active.size() == 1) {
                append(active[0], end - begin);
                continue;
            }
            // Cap the quantum to an equal share of the segment so
            // every resident stream runs even in segments shorter
            // than one full rotation.
            const std::uint64_t fair = std::max<std::uint64_t>(
                1, (end - begin) / active.size());
            const std::uint64_t take_max = std::min(quantum, fair);
            std::uint64_t remaining = end - begin;
            std::size_t idx = rotation % active.size();
            while (remaining > 0) {
                const std::uint64_t take =
                    std::min(take_max, remaining);
                append(active[idx], take);
                remaining -= take;
                idx = (idx + 1) % active.size();
            }
            rotation = idx;
        }

        // Mark lifecycle boundaries and charge each stream's total.
        std::vector<char> seen(streams.size(), 0);
        for (Slice &slice : plan) {
            if (!seen[slice.stream]) {
                seen[slice.stream] = 1;
                slice.firstOfStream = true;
            }
            streams.at(slice.stream).totalRefs += slice.length;
        }
        std::fill(seen.begin(), seen.end(), 0);
        for (auto it = plan.rbegin(); it != plan.rend(); ++it) {
            if (!seen[it->stream]) {
                seen[it->stream] = 1;
                it->lastOfStream = true;
            }
        }
        schedule[core] = std::move(plan);
    }
}

// ---------------------------------------------------------------
// ScenarioEngine: execution
// ---------------------------------------------------------------

void
ScenarioEngine::recordPack(const std::string &path)
{
    // One pack stream per compiled tenant stream, in stream order
    // (= one per vCPU in resolved-tenant order) — the layout
    // ScenarioSpec::tracePack consumes on replay.
    std::vector<std::string> names;
    names.reserve(streams.size());
    std::vector<unsigned> vcpu_seen(tenants.size(), 0);
    for (std::size_t s = 0; s < streams.size(); ++s) {
        const unsigned t = streams.at(s).tenant;
        names.push_back(tenants[t].name + "/" +
                        std::to_string(vcpu_seen[t]++));
    }

    TracePackWriter writer(path, std::move(names));
    std::vector<TraceRecord> block(static_cast<std::size_t>(
        TenantStreamSet::streamBlockRecords));
    for (std::size_t s = 0; s < streams.size(); ++s) {
        TenantStream &stream = streams.at(s);
        stream.source->rewind();
        std::uint64_t remaining = stream.totalRefs;
        while (remaining > 0) {
            const std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(remaining, block.size()));
            const std::size_t got =
                stream.source->fill(block.data(), want);
            if (got == 0)
                throw TraceError(
                    "cannot record trace pack '" + path + "': " +
                    stream.source->describe() +
                    " ran out of records");
            writer.append(static_cast<std::uint32_t>(s),
                          block.data(), got);
            remaining -= got;
        }
        stream.source->rewind();
    }
    writer.close();
}

void
ScenarioEngine::migratePages(unsigned tenant_index, Lane &lane,
                             Cycles &clock)
{
    const std::uint64_t count = spec.migrationPagesPerArrival;
    if (count == 0)
        return;
    const ResolvedTenant &tenant = tenants[tenant_index];
    TenantRuntime &rt = runtimes[tenant_index];
    MemoryMap &map = machine.memoryMap();
    const std::uint64_t num_pages = std::max<std::uint64_t>(
        1, tenant.footprintBytes >> 12);
    for (std::uint64_t k = 0; k < count; ++k) {
        // A deterministic pseudo-random page of the tenant's
        // footprint moves to a new frame: unmap, shoot down the
        // stale translation everywhere, remap.
        const std::uint64_t index =
            mix64((static_cast<std::uint64_t>(tenant_index) << 32) ^
                  k) %
            num_pages;
        const Addr vaddr = static_cast<Addr>(index) << 12;
        map.unmapPage(tenant.vm, tenant.pidBase, vaddr,
                      PageSize::Small4K);
        machine.shootdownPage(vaddr, PageSize::Small4K, tenant.vm,
                              tenant.pidBase);
        map.ensureMapped(tenant.vm, tenant.pidBase, vaddr,
                         PageSize::Small4K);
        clock += engineConfig.shootdownCycles;
        ++lane.shootdowns;
        ++rt.counters.migrations;
        ++migrations;
    }
}

void
ScenarioEngine::advanceSlice(Lane &lane, unsigned core,
                             Cycles &clock)
{
    const std::vector<Slice> &plan = schedule[core];
    const Slice &finished = plan[lane.sliceIndex];
    if (finished.lastOfStream) {
        const TenantStream &stream = streams.at(finished.stream);
        TenantRuntime &rt = runtimes[stream.tenant];
        if (--rt.activeStreams == 0 && rt.departsMidRun &&
            !rt.departed) {
            // The tenant's last vCPU retired: the VM tears down,
            // and its translations are flushed machine-wide.
            machine.shootdownVm(stream.vm);
            clock += engineConfig.shootdownCycles;
            ++lane.shootdowns;
            rt.departed = true;
            ++departures;
        }
    }

    ++lane.sliceIndex;
    simAssert(lane.sliceIndex < plan.size(),
              "core ran past its slice schedule");
    const Slice &next = plan[lane.sliceIndex];
    lane.cursor = &streams.at(next.stream);
    lane.sliceLeft = next.length;

    if (next.firstOfStream) {
        const TenantStream &stream = streams.at(next.stream);
        TenantRuntime &rt = runtimes[stream.tenant];
        if (!rt.arrivalDone) {
            rt.arrivalDone = true;
            migratePages(stream.tenant, lane, clock);
        }
    }
}

void
ScenarioEngine::runPhase(std::uint64_t target)
{
    if (target == 0)
        return;

    DataHierarchy &hierarchy = machine.hierarchy();
    const std::uint64_t interval =
        engineConfig.shootdownIntervalRefs;
    const std::uint64_t storm_interval = spec.storm.intervalRefs;
    const unsigned storm_pages =
        std::max(1u, spec.storm.pagesPerBurst);

    // Seed the scheduler with every lane's current clock. The heap
    // root is always the lexicographic minimum of (clock, core):
    // the lowest clock runs next, ties to the lowest core index.
    ClockHeap heap;
    heap.reset(lanes.size());
    for (std::uint32_t core = 0; core < lanes.size(); ++core) {
        lanes[core].phaseDone = 0;
        heap.push(lanes[core].clock, core);
    }

    while (!heap.empty()) {
        const std::uint32_t core = heap.topId();
        Lane &lane = lanes[core];
        Mmu &mmu = *lane.mmu;
        Cycles clock = lane.clock;

        // Run this lane until it either finishes the phase or stops
        // being globally earliest; only then touch the heap.
        for (;;) {
            if (lane.sliceLeft == 0)
                advanceSlice(lane, core, clock);
            TenantStream &stream = *lane.cursor;
            if (stream.blockPos == stream.blockLen)
                streams.refill(stream);
            const TraceRecord &record =
                stream.block[stream.blockPos++];
            ++stream.consumed;
            --lane.sliceLeft;
            const VmId vm = stream.vm;
            const ProcessId pid = stream.pid;
            TenantCounters &tenant = runtimes[stream.tenant].counters;

            // Non-memory instructions retire at one per cycle.
            clock += record.instGap;
            lane.instructions += record.instGap + 1;

            const MmuResult translation = mmu.translate(
                record.vaddr, record.pageSize, vm, pid, clock);
            clock += translation.cycles;
            lane.pageWalks += translation.walked ? 1 : 0;

            // Per-tenant QoS accounting: fixed counters and one
            // log2-histogram sample — nothing here allocates.
            ++tenant.refs;
            tenant.translationCycles += translation.cycles;
            switch (translation.level) {
              case TlbLevel::L1: ++tenant.l1TlbHits; break;
              case TlbLevel::L2: ++tenant.l2TlbHits; break;
              default: ++tenant.lastLevelTlbMisses; break;
            }
            tenant.pageWalks += translation.walked ? 1 : 0;
            tenant.translationLatency.sample(translation.cycles);

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
                ++tenant.shootdowns;
            }

            // Shootdown storms: a burst of consecutive pages starting
            // at the triggering reference's page.
            if (storm_interval > 0 &&
                ++refsSinceStorm >= storm_interval) {
                refsSinceStorm = 0;
                const Addr page =
                    pageBase(record.vaddr, record.pageSize);
                const Addr bytes = pageBytes(record.pageSize);
                for (unsigned p = 0; p < storm_pages; ++p) {
                    machine.shootdownPage(
                        page + static_cast<Addr>(p) * bytes,
                        record.pageSize, vm, pid);
                    clock += engineConfig.shootdownCycles;
                }
                lane.shootdowns += storm_pages;
                tenant.shootdowns += storm_pages;
                stormShootdowns += storm_pages;
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

ScenarioResult
ScenarioEngine::run(EnumerationShare *share)
{
    const unsigned cores = machine.numCores();

    // Re-arm the per-run mutable state (runs are repeatable).
    runtimes.assign(tenants.size(), TenantRuntime{});
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        runtimes[i].arrivalDone = tenants[i].arrivalRefs == 0;
        runtimes[i].departsMidRun =
            tenants[i].departureRefs < totalPerCore;
    }
    for (std::uint32_t s = 0; s < streams.size(); ++s)
        ++runtimes[streams.at(s).tenant].activeStreams;
    departures = migrations = stormShootdowns = 0;

    // Steady-state pre-population: enumerate the streams (or reuse
    // the campaign group's enumeration of the same streams), then
    // install their first touches in this machine.
    std::shared_ptr<const StreamEnumeration> enumeration;
    if (engineConfig.prepopulate && share) {
        enumeration = share->obtain(
            streams.enumerationKey(), [this](std::string key) {
                return streams.enumerate(std::move(key));
            });
        installFirstTouches(machine, streams, *enumeration);
    } else if (engineConfig.prepopulate) {
        // Nothing else reads this enumeration: once installed, the
        // run needs only its captured records.
        const std::shared_ptr<StreamEnumeration> own =
            streams.enumerate();
        installFirstTouches(machine, streams, *own);
        own->firstTouches.clear();
        enumeration = own;
    }
    streams.beginRun(std::move(enumeration));

    lanes.assign(cores, Lane{});
    for (unsigned core = 0; core < cores; ++core) {
        Lane &lane = lanes[core];
        lane.mmu = &machine.mmu(core);
        const Slice &first = schedule[core].front();
        lane.cursor = &streams.at(first.stream);
        lane.sliceLeft = first.length;
    }

    // Warmup: populate TLBs, caches, page tables, POM-TLB. Lifecycle
    // flags (arrivals done, departures fired) persist across the
    // boundary; only the statistics reset.
    const std::uint64_t warmup = engineConfig.warmupRefsPerCore;
    if (warmup > 0) {
        runPhase(warmup);
        machine.resetStats();
        for (Lane &lane : lanes) {
            lane.instructions = 0;
            lane.pageWalks = 0;
            lane.shootdowns = 0;
        }
        for (TenantRuntime &rt : runtimes)
            rt.counters = TenantCounters{};
        departures = migrations = stormShootdowns = 0;
    }

    // Measured phase.
    std::vector<Cycles> start_clocks(cores);
    for (unsigned core = 0; core < cores; ++core)
        start_clocks[core] = lanes[core].clock;
    runPhase(engineConfig.refsPerCore);

    ScenarioResult result;
    result.run.cores.resize(cores);
    for (unsigned core = 0; core < cores; ++core) {
        CoreRunStats &stats = result.run.cores[core];
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

    result.tenants.reserve(tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        const ResolvedTenant &tenant = tenants[i];
        const TenantRuntime &rt = runtimes[i];
        result.tenants.push_back({rt.counters, tenant.name,
                                  tenant.benchmark, tenant.vm,
                                  tenant.pidBase, tenant.vcpus,
                                  tenant.arrivalRefs,
                                  tenant.departureRefs, rt.departed});
    }
    result.departures = departures;
    result.migrations = migrations;
    result.stormShootdowns = stormShootdowns;

    // The captures can be hundreds of megabytes at scale; do not
    // hold them between runs (a later run() re-enumerates).
    streams.releaseCaptures();
    return result;
}

ScenarioResult
runScenario(Machine &machine, const ScenarioSpec &spec)
{
    ScenarioEngine engine(machine, spec);
    return engine.run();
}

// ---------------------------------------------------------------
// Identity, hashing, export
// ---------------------------------------------------------------

JsonValue
scenarioIdentityJson(const ScenarioSpec &spec)
{
    JsonValue identity = JsonValue::object();
    identity.set("schema", kScenarioSchemaV1);
    identity.set("name", spec.name);
    identity.set("scheme", canonicalScheme(spec.scheme));

    JsonValue config = JsonValue::object();
    config.set("system", systemConfigJson(spec.system));
    config.set("engine", engineConfigJson(spec.engine));
    identity.set("config", std::move(config));

    // The *resolved* tenants, so an explicit list and a generator
    // that expand to the same tenants hash identically.
    JsonValue tenant_list = JsonValue::array();
    const std::vector<ResolvedTenant> tenants = spec.resolvedTenants();
    // Hashing reads the whole pack, which every tenant shares.
    const std::string pack_hash =
        spec.tracePack.empty() ? std::string()
                               : tracePackContentHash(spec.tracePack);
    for (const ResolvedTenant &t : tenants) {
        JsonValue tenant = JsonValue::object();
        tenant.set("name", t.name);
        tenant.set("benchmark", t.benchmark);
        tenant.set("vcpus", std::uint64_t(t.vcpus));
        tenant.set("vm", std::uint64_t(t.vm));
        tenant.set("pid_base", std::uint64_t(t.pidBase));
        tenant.set("arrival_refs", t.arrivalRefs);
        tenant.set("departure_refs", t.departureRefs);
        tenant.set("footprint_bytes", t.footprintBytes);
        tenant.set("multithreaded", t.multithreaded);
        // Only for pack-backed scenarios, so generator-driven
        // identities (and their pinned digests) are unchanged. The
        // *content* hash, not the path: editing a record in place
        // changes — and re-executes — the memoized scenario.
        if (!spec.tracePack.empty()) {
            tenant.set("trace_pack_hash", pack_hash);
            tenant.set("trace_stream",
                       std::uint64_t(t.traceStreamBase));
        }
        tenant_list.push(std::move(tenant));
    }
    identity.set("tenants", std::move(tenant_list));

    JsonValue consolidation = JsonValue::object();
    consolidation.set("time_slice_refs",
                      spec.timeSliceRefs ? spec.timeSliceRefs
                                         : std::uint64_t{2000});
    consolidation.set("overcommit_factor", spec.overcommitFactor);
    consolidation.set("migration_pages_per_arrival",
                      spec.migrationPagesPerArrival);
    identity.set("consolidation", std::move(consolidation));

    JsonValue storm = JsonValue::object();
    storm.set("interval_refs", spec.storm.intervalRefs);
    storm.set("pages_per_burst",
              std::uint64_t(spec.storm.pagesPerBurst));
    identity.set("storm", std::move(storm));
    return identity;
}

std::string
scenarioHash(const ScenarioSpec &spec)
{
    return ContentHash::of(scenarioIdentityJson(spec).dump(0));
}

std::string
scenarioBenchmarkLabel(const ScenarioSpec &spec)
{
    std::vector<std::string> names;
    for (const ResolvedTenant &t : spec.resolvedTenants()) {
        if (std::find(names.begin(), names.end(), t.benchmark) ==
            names.end()) {
            names.push_back(t.benchmark);
        }
    }
    std::string label;
    for (const std::string &name : names) {
        if (!label.empty())
            label += "+";
        label += name;
    }
    return label;
}

JsonValue
buildScenarioDocument(Machine &machine, const ScenarioSpec &spec,
                      const ScenarioResult &result)
{
    JsonValue document = JsonValue::object();
    document.set("schema", kScenarioSchemaV1);
    // scenarioHash(spec), without building the identity twice.
    JsonValue identity = scenarioIdentityJson(spec);
    const std::string hash = ContentHash::of(identity.dump(0));
    document.set("scenario", std::move(identity));
    document.set("scenario_hash", hash);

    JsonValue tenant_list = JsonValue::array();
    for (const TenantResult &t : result.tenants) {
        JsonValue tenant = JsonValue::object();
        tenant.set("name", t.name);
        tenant.set("benchmark", t.benchmark);
        tenant.set("vm", std::uint64_t(t.vm));
        tenant.set("pid_base", std::uint64_t(t.pidBase));
        tenant.set("vcpus", std::uint64_t(t.vcpus));
        tenant.set("arrival_refs", t.arrivalRefs);
        tenant.set("departure_refs", t.departureRefs);
        tenant.set("departed", t.departed);
        tenant.set("refs", t.refs);
        tenant.set("l1_tlb_hits", t.l1TlbHits);
        tenant.set("l2_tlb_hits", t.l2TlbHits);
        tenant.set("last_level_tlb_misses", t.lastLevelTlbMisses);
        tenant.set("l1_hit_ratio",
                   t.refs ? static_cast<double>(t.l1TlbHits) /
                                static_cast<double>(t.refs)
                          : 0.0);
        tenant.set("l2_hit_ratio",
                   t.refs ? static_cast<double>(t.l2TlbHits) /
                                static_cast<double>(t.refs)
                          : 0.0);
        tenant.set("translation_cycles", t.translationCycles);
        tenant.set("avg_translation_cycles",
                   t.translationLatency.mean());
        tenant.set("p50_translation_cycles",
                   t.translationLatency.percentileUpperBound(50.0));
        tenant.set("p95_translation_cycles",
                   t.translationLatency.percentileUpperBound(95.0));
        tenant.set("p99_translation_cycles",
                   t.translationLatency.percentileUpperBound(99.0));
        tenant.set("page_walks", t.pageWalks);
        tenant.set("shootdowns", t.shootdowns);
        tenant.set("migrations", t.migrations);
        tenant.set("translation_cycle_histogram",
                   t.translationLatency.toJson());
        tenant_list.push(std::move(tenant));
    }
    document.set("tenants", std::move(tenant_list));

    JsonValue events = JsonValue::object();
    events.set("departures", result.departures);
    events.set("migrations", result.migrations);
    events.set("storm_shootdowns", result.stormShootdowns);
    document.set("events", std::move(events));

    document.set("stats",
                 buildStatsDocument(machine, result.run,
                                    scenarioBenchmarkLabel(spec)));
    return document;
}

// ---------------------------------------------------------------
// Campaigns: scenario jobs for SweepService
// ---------------------------------------------------------------

std::vector<CampaignJob>
scenarioJobs(const std::vector<ScenarioSpec> &specs)
{
    std::vector<CampaignJob> jobs;
    jobs.reserve(specs.size());
    for (const ScenarioSpec &spec : specs) {
        CampaignJob job;
        JsonValue identity = scenarioIdentityJson(spec);
        job.hash = ContentHash::of(identity.dump(0));
        // Scenarios that differ only in scheme and name compile the
        // same streams.
        identity.set("scheme", "");
        identity.set("name", "");
        job.group = ContentHash::of(identity.dump(0));
        job.key = spec.name + "/" + canonicalScheme(spec.scheme);
        job.produce = [spec](EnumerationShare *share) {
            Machine machine(spec.system, spec.scheme);
            ScenarioEngine engine(machine, spec);
            const ScenarioResult result = engine.run(share);
            return buildScenarioDocument(machine, spec, result);
        };
        // Serve only what `pomtlb scenario` reads.
        job.servable = [hash = job.hash](const JsonValue &entry) {
            try {
                return entry.at("schema").asString() ==
                           kScenarioSchemaV1 &&
                       entry.at("scenario_hash").asString() == hash &&
                       entry.at("tenants").isArray() &&
                       entry.at("events").isObject() &&
                       entry.at("stats").isObject();
            } catch (const std::exception &) {
                return false;
            }
        };
        jobs.push_back(std::move(job));
    }
    return jobs;
}

} // namespace pomtlb
