/**
 * @file
 * pomtlb_bench: the repository's benchmark. One process runs one
 * workload:
 *
 *     pomtlb_bench --workload NAME [--seed N] [--seconds S]
 *                  [--trace 0|1] [--smoke] [--work-dir DIR]
 *
 * Untraced (--trace 0), it repeats passes of the workload for
 * --seconds through the entry points the CLI uses (Machine,
 * SimulationEngine, ScenarioEngine, SweepService) and reports the
 * end-to-end metrics, each a median over passes: throughput from
 * each operation's median time, set-up time and the pass's peak RSS
 * from their per-pass values; both timings are scaled by the host
 * speed a fixed probe measures just before each operation
 * (HostProbe).
 * Traced (--trace 1), it reports per-layer metrics instead: classic
 * runs and sweep jobs go through the traced driver
 * (traced_driver.hh), whose simulated totals are checked against
 * untraced runs of the same cells; the scenario workload is timed at
 * its public boundary.
 *
 * Every operation (engine run, scenario run, sweep job, traced cell)
 * is validated; a failed check is reported on stderr and counted,
 * never fatal. The last line of standard output is the result
 * object {"correct", "attempted", "failed", "metrics"}; the line
 * before it records the workload, seed, host speed, raw timings,
 * error rate and sim_digest. bench/suite/README.md documents the
 * workloads and metrics.
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/bitutil.hh"
#include "common/content_hash.hh"
#include "common/json.hh"
#include "sim/scenario.hh"
#include "sim/scheme_registry.hh"
#include "sim/stats_export.hh"
#include "sim/sweep.hh"
#include "sim/sweep_cache.hh"
#include "trace/tracepack.hh"
#include "traced_driver.hh"

namespace
{

using namespace pomtlb;
using bench::LayerProfile;
using bench::TracedRun;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2.0;
}

/** Value at fraction @p q of the sorted @p values (nearest rank). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1) + 0.5);
    return values[std::min(rank, values.size() - 1)];
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 25.0;
    bool traced = false;
    bool smoke = false;
    std::string workDir = ".bench_build/work";
};

/** Per-pass metric samples; reports each metric's median. */
class PassMetrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        auto [it, fresh] = series.try_emplace(name);
        if (fresh) {
            order.push_back(name);
            it->second.unit = unit;
        }
        it->second.values.push_back(value);
    }

    /** The result's "metrics" object: one median per metric. */
    JsonValue
    medians() const
    {
        JsonValue metrics = JsonValue::object();
        for (const std::string &name : order) {
            const Series &s = series.at(name);
            JsonValue metric = JsonValue::object();
            metric.set("value", median(s.values));
            metric.set("unit", s.unit);
            metrics.set(name, std::move(metric));
            std::printf("  %-40s %16.6g %-8s n=%zu\n",
                        name.c_str(), median(s.values),
                        s.unit.c_str(), s.values.size());
        }
        return metrics;
    }

  private:
    struct Series
    {
        std::string unit;
        std::vector<double> values;
    };
    std::vector<std::string> order;
    std::map<std::string, Series> series;
};

/**
 * Operation accounting: every engine run, scenario run, sweep job
 * and traced cell is one attempt; an attempt with any problem (or
 * an exception) is one failure, reported on stderr.
 */
class Tally
{
  public:
    using Problems = std::vector<std::string>;

    /** Run @p op (which appends problems) as one operation. */
    void
    operation(const std::string &what,
              const std::function<void(Problems &)> &op)
    {
        ++attemptCount;
        Problems problems;
        try {
            op(problems);
        } catch (const std::exception &error) {
            problems.push_back(std::string("threw: ") + error.what());
        }
        for (const std::string &problem : problems)
            std::fprintf(stderr, "pomtlb_bench: FAILED %s: %s\n",
                         what.c_str(), problem.c_str());
        if (!problems.empty())
            ++failCount;
    }

    /** Count @p n attempts that all failed for one reason. */
    void
    failAll(std::size_t n, const std::string &why)
    {
        attemptCount += n;
        failCount += n;
        std::fprintf(stderr, "pomtlb_bench: FAILED %zu operations: %s\n",
                     n, why.c_str());
    }

    std::uint64_t attempted() const { return attemptCount; }
    std::uint64_t failed() const { return failCount; }

    /**
     * Record @p digest as operation @p key's simulated outcome; a
     * later pass that reproduces a different digest is a problem.
     */
    void
    checkDigest(const std::string &key, const std::string &digest,
                Problems &problems)
    {
        auto [it, fresh] = digests.try_emplace(key, digest);
        if (fresh)
            digestOrder.push_back(key);
        else if (it->second != digest)
            problems.push_back("sim_digest changed across passes");
    }

    /** ContentHash over every operation's digest, in first order. */
    std::string
    simDigest() const
    {
        ContentHash hash;
        for (const std::string &key : digestOrder)
            hash.update(key).update("=").update(digests.at(key)).update(
                "\n");
        return hash.hexDigest();
    }

  private:
    std::uint64_t attemptCount = 0;
    std::uint64_t failCount = 0;
    std::map<std::string, std::string> digests;
    std::vector<std::string> digestOrder;
};

/** Checks every run and scenario result must pass. */
void
checkRun(Machine &machine, const RunResult &result,
         std::uint64_t refs_per_core, Tally::Problems &problems)
{
    const std::uint64_t want = refs_per_core * machine.numCores();
    if (result.totals().refs != want) {
        problems.push_back("ref total " +
                           std::to_string(result.totals().refs) +
                           " != cores x refs " + std::to_string(want));
    }
    for (unsigned core = 0; core < machine.numCores(); ++core) {
        const Mmu &mmu = machine.mmu(core);
        if (mmu.totalTranslationCycles() !=
            mmu.totalSramCycles() + mmu.totalSchemeCycles()) {
            problems.push_back("mmu." + std::to_string(core) +
                               " translation != sram + scheme cycles");
        }
    }
}

/** Differences between the traced driver's and the engine's results. */
void
compareRuns(const RunResult &engine, const RunResult &traced,
            Tally::Problems &problems)
{
    if (engine.cores.size() != traced.cores.size()) {
        problems.push_back("core counts differ");
        return;
    }
    for (std::size_t core = 0; core < engine.cores.size(); ++core) {
        const CoreRunStats &a = engine.cores[core];
        const CoreRunStats &b = traced.cores[core];
        const auto field = [&](const char *name, std::uint64_t x,
                               std::uint64_t y) {
            if (x != y) {
                problems.push_back(
                    "traced driver differs from engine.run() on core " +
                    std::to_string(core) + " " + name + ": " +
                    std::to_string(y) + " vs " + std::to_string(x));
            }
        };
        field("cycles", a.cycles, b.cycles);
        field("instructions", a.instructions, b.instructions);
        field("translation_cycles", a.translationCycles,
              b.translationCycles);
        field("page_walks", a.pageWalks, b.pageWalks);
        field("l1_tlb_hits", a.l1TlbHits, b.l1TlbHits);
        field("l2_tlb_hits", a.l2TlbHits, b.l2TlbHits);
        field("last_level_misses", a.lastLevelTlbMisses,
              b.lastLevelTlbMisses);
    }
}

/** Workload sizes (the --smoke sizes keep the whole suite short). */
struct Sizes
{
    unsigned cores;
    std::uint64_t refs;
    std::uint64_t warmup;
};

/**
 * Per-layer accumulation of one traced pass: the traced driver's
 * layer profile plus the simulated counts and boundary timers that
 * sit beside it. Every field sums over the pass's operations.
 */
struct TracedPass
{
    LayerProfile layers;
    /** Measured-phase simulated counts (RunResult totals). */
    double refs = 0, l1Hits = 0, l2Hits = 0, misses = 0, walks = 0;
    /** Simulated DRAM row-buffer counts, main and die-stacked. */
    double dramAccesses = 0, dramRowHits = 0;
    double stackedAccesses = 0, stackedRowHits = 0;
    double machineBuildSeconds = 0;
    /** Traced-driver and untraced wall of the same cells. */
    double tracedSeconds = 0, untracedSeconds = 0;
    /** Per-scheme simulated refs and untraced host seconds. */
    std::map<std::string, std::pair<double, double>> schemeWork;
    /** @name ScenarioEngine boundary timers and result counts. */
    ///@{
    double compileSeconds = 0, scenarioRunSeconds = 0,
           scenarioRefs = 0, migrations = 0, departures = 0,
           stormShootdowns = 0, tenantP99Max = 0;
    ///@}
    /** @name SweepService boundary timers. */
    ///@{
    double campaignSeconds = 0, jobs = 0, workers = 0;
    std::vector<double> jobWalls;
    ///@}

    /** Fold in one verified run's simulated counts. */
    void
    addRun(Machine &machine, const RunResult &result)
    {
        const RunTotals &totals = result.totals();
        refs += static_cast<double>(totals.refs);
        l1Hits += static_cast<double>(totals.l1TlbHits);
        l2Hits += static_cast<double>(totals.l2TlbHits);
        misses += static_cast<double>(totals.lastLevelMisses);
        walks += static_cast<double>(totals.pageWalks);
        dramAccesses +=
            static_cast<double>(machine.mainMemory().accessCount());
        dramRowHits +=
            static_cast<double>(machine.mainMemory().rowHits());
        stackedAccesses += static_cast<double>(
            machine.dieStackedMemory().accessCount());
        stackedRowHits +=
            static_cast<double>(machine.dieStackedMemory().rowHits());
    }

    /** Emit this pass's per-layer metric values. */
    void report(PassMetrics &out) const;
};

void
TracedPass::report(PassMetrics &out) const
{
    const LayerProfile &l = layers;
    const auto s = [](std::uint64_t ns) {
        return static_cast<double>(ns) / 1e9;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    out.add("trace.fill_ns_per_record", ratio(d(l.fillNs), d(l.fillRecords)),
            "ns");
    out.add("trace.fill_s", s(l.fillNs), "s");

    out.add("tlb.hit_calls", d(l.l1Hits + l.l2Hits), "count");
    out.add("tlb.hit_s", s(l.hitNs), "s");
    out.add("tlb.hit_ns_p50", l.hitHist.quantile(0.50), "ns");
    out.add("tlb.hit_ns_p99", l.hitHist.quantile(0.99), "ns");
    out.add("tlb.l1_hit_ratio", ratio(l1Hits, refs), "ratio");
    out.add("tlb.l2_hit_ratio", ratio(l2Hits, refs), "ratio");

    out.add("scheme.miss_calls", d(l.missCalls), "count");
    out.add("scheme.miss_s", s(l.missNs), "s");
    out.add("scheme.miss_ns_p50", l.missHist.quantile(0.50), "ns");
    out.add("scheme.miss_ns_p99", l.missHist.quantile(0.99), "ns");
    out.add("scheme.walk_ratio", ratio(walks, misses), "ratio");
    for (std::size_t i = 0; i < bench::servicePointCount; ++i) {
        const auto point = static_cast<ServicePoint>(i);
        if (point == ServicePoint::SramL1 || point == ServicePoint::SramL2)
            continue;
        const std::string base =
            std::string("scheme.served.") + servicePointName(point);
        out.add(base + ".share",
                ratio(d(l.servedCalls[i]), d(l.missCalls)), "ratio");
        out.add(base + ".ns_mean",
                ratio(d(l.servedNs[i]), d(l.servedCalls[i])), "ns");
    }
    for (const std::string &scheme : SchemeRegistry::global().names()) {
        const auto it = schemeWork.find(scheme);
        out.add("scheme." + scheme + ".refs_per_s",
                it == schemeWork.end()
                    ? 0.0
                    : ratio(it->second.first, it->second.second),
                "1/s");
    }

    std::uint64_t accesses = 0;
    for (std::uint64_t calls : l.levelCalls)
        accesses += calls;
    const auto level = [&](MemLevel m) {
        return static_cast<std::size_t>(m);
    };
    out.add("cache.access_s", s(l.accessNs), "s");
    out.add("cache.access_ns_p50", l.accessHist.quantile(0.50), "ns");
    out.add("cache.access_ns_p99", l.accessHist.quantile(0.99), "ns");
    out.add("cache.served.l1d.share",
            ratio(d(l.levelCalls[level(MemLevel::L1D)]), d(accesses)),
            "ratio");
    out.add("cache.served.l2d.share",
            ratio(d(l.levelCalls[level(MemLevel::L2D)]), d(accesses)),
            "ratio");
    out.add("cache.served.l3d.share",
            ratio(d(l.levelCalls[level(MemLevel::L3D)]), d(accesses)),
            "ratio");

    const std::size_t memory = level(MemLevel::Memory);
    out.add("dram.access_share", ratio(d(l.levelCalls[memory]), d(accesses)),
            "ratio");
    out.add("dram.access_ns_mean",
            ratio(d(l.levelNs[memory]), d(l.levelCalls[memory])), "ns");
    out.add("dram.row_hit_ratio", ratio(dramRowHits, dramAccesses),
            "ratio");
    out.add("dram.stacked_row_hit_ratio",
            ratio(stackedRowHits, stackedAccesses), "ratio");

    out.add("pagetable.ensure_mapped_calls", d(l.ensureMappedCalls),
            "count");
    out.add("pagetable.ensure_mapped_s", s(l.ensureMappedNs), "s");
    out.add("scheme.prewarm_s", s(l.prewarmNs), "s");
    out.add("sim.machine_build_s", machineBuildSeconds, "s");
    out.add("sim.prepopulate_s", s(l.prepopulateNs), "s");

    const std::uint64_t children = l.hitNs + l.missNs + l.accessNs;
    out.add("sim.loop_self_s",
            l.loopNs > children ? s(l.loopNs - children) : 0.0, "s");
    out.add("sim.loop_ns_per_ref", ratio(d(l.loopNs), d(l.refs)), "ns");
    out.add("sim.heap_switches_per_ref",
            ratio(d(l.heapSwitches), d(l.refs)), "ratio");

    out.add("scenario.compile_s", compileSeconds, "s");
    out.add("scenario.run_s", scenarioRunSeconds, "s");
    out.add("scenario.ns_per_ref",
            ratio(scenarioRunSeconds * 1e9, scenarioRefs), "ns");
    out.add("scenario.migrations", migrations, "count");
    out.add("scenario.departures", departures, "count");
    out.add("scenario.storm_shootdowns", stormShootdowns, "count");
    out.add("scenario.tenant_p99_cycles_max", tenantP99Max, "cycles");

    double busy = 0.0;
    for (double wall : jobWalls)
        busy += wall;
    out.add("sweep.jobs_per_s", ratio(jobs, campaignSeconds), "1/s");
    out.add("sweep.job_wall_s_p50", quantile(jobWalls, 0.50), "s");
    out.add("sweep.job_wall_s_p95", quantile(jobWalls, 0.95), "s");
    out.add("sweep.worker_busy_ratio",
            ratio(busy, workers * campaignSeconds), "ratio");

    out.add("host.trace_overhead_ratio",
            ratio(tracedSeconds, untracedSeconds), "ratio");
}

/**
 * The host-speed probe: two fixed kernels, sampled before every pass
 * and every timed operation. One makes set-associative LRU lookups
 * in an L1-resident table (tag compares, branches, stamp updates: the
 * shape of the simulator's TLB and cache lookups); the other makes
 * independent random loads from an L2-sized table.
 *
 * On a shared virtualised host the speed of throughput-bound code
 * drifts by tens of percent within seconds to minutes, as neighbours
 * load the physical cores. In side experiments on a 4-core x86-64 VM
 * (fixed mcf and gups runs alternating with the probe), neither
 * kernel alone tracked both: the lookup kernel left the gups runs
 * spread by 15%, and the load kernel, which moves about twice as much
 * as the simulator, over-corrected mcf in one phase of the host (14%
 * spread against 5%). Scaling each run by the geometric mean of the
 * two rates, sampled just before it, cut the spread of ten 20-second
 * processes from 19% to 3% (mcf) and from 25% to 7% (gups). The
 * kernels live here, not in the simulator: no change to src/ can move
 * them.
 */
class HostProbe
{
  public:
    HostProbe() : table(std::size_t{1} << 17)
    {
        for (std::size_t i = 0; i < table.size(); ++i)
            table[i] = mix64(i);
    }

    /**
     * Run both kernels once (about 10 ms), record the rate and return
     * it as a host speed: relative to the reference host the bounds
     * were set on (1 = as fast; the reference rate is a round figure
     * close to what that host measured).
     */
    double
    sample()
    {
        const Clock::time_point start = Clock::now();
        const double rate = std::sqrt(lookupRate() * loadRate());
        spent += secondsSince(start);
        rates.push_back(rate);
        return rate / referenceMops;
    }

    /** Median probe rate, in million operations per second. */
    double mops() const { return median(rates); }

    /** Median host speed of all samples. */
    double speed() const { return mops() / referenceMops; }

    /** Median host speed of the samples from the @p first-th on. */
    double
    speedSince(std::size_t first) const
    {
        if (first >= rates.size())
            return speed();
        return median(std::vector<double>(
                   rates.begin() + static_cast<std::ptrdiff_t>(first),
                   rates.end())) /
               referenceMops;
    }

    /** Samples taken so far. */
    std::size_t samples() const { return rates.size(); }

    /** Host seconds spent sampling so far. */
    double seconds() const { return spent; }

  private:
    static constexpr double referenceMops = 150.0;
    static constexpr unsigned sets = 64;
    static constexpr unsigned ways = 8;

    /** The LRU-lookup kernel's rate, in million lookups per second. */
    double
    lookupRate()
    {
        constexpr std::uint64_t lookups = 250'000;
        std::uint64_t x = sink | 1, hits = 0;
        const Clock::time_point start = Clock::now();
        for (std::uint64_t i = 0; i < lookups; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const std::uint64_t tag = x % (sets * ways * 2) + 1;
            std::uint64_t *set_tags = tags + (tag % sets) * ways;
            std::uint64_t *set_stamps = stamps + (tag % sets) * ways;
            ++now;
            unsigned victim = 0;
            bool hit = false;
            for (unsigned way = 0; way < ways; ++way) {
                if (set_tags[way] == tag) {
                    set_stamps[way] = now;
                    hit = true;
                    break;
                }
                if (set_stamps[way] < set_stamps[victim])
                    victim = way;
            }
            if (hit) {
                ++hits;
            } else {
                set_tags[victim] = tag;
                set_stamps[victim] = now;
            }
        }
        const double seconds = secondsSince(start);
        sink += hits;
        return static_cast<double>(lookups) / seconds / 1e6;
    }

    /** The random-load kernel's rate, in million loads per second. */
    double
    loadRate()
    {
        constexpr int streams = 8;
        constexpr std::uint64_t rounds = 300'000;
        std::uint64_t state[streams];
        for (int k = 0; k < streams; ++k)
            state[k] = static_cast<std::uint64_t>(k) + sink;
        std::uint64_t sum = 0;
        const Clock::time_point start = Clock::now();
        for (std::uint64_t i = 0; i < rounds; ++i) {
            for (int k = 0; k < streams; ++k) {
                state[k] = state[k] * 6364136223846793005ULL +
                           1442695040888963407ULL;
                sum += table[(state[k] >> 40) & (table.size() - 1)];
            }
        }
        const double seconds = secondsSince(start);
        sink += sum;
        return static_cast<double>(rounds * streams) / seconds / 1e6;
    }

    std::vector<std::uint64_t> table;
    std::uint64_t tags[sets * ways] = {};
    std::uint64_t stamps[sets * ways] = {};
    std::uint64_t now = 0;
    std::vector<double> rates;
    double spent = 0.0;
    /** Feeds each kernel's result into the next, so none is dead. */
    std::uint64_t sink = 0;
};

/**
 * One untraced pass's end-to-end samples. Each timing is kept raw
 * and scaled by the host speed the probe measured just before it, in
 * reference-host seconds (see HostProbe).
 */
struct UntracedPass
{
    /** One timed operation: simulated refs and host seconds. */
    struct Cell
    {
        std::string key;
        double refs = 0;
        double seconds = 0;
        double speed = 1;
    };
    std::vector<Cell> cells;
    double setupSeconds = 0;
    double setupScaled = 0;

    /** Count @p seconds of set-up at host speed @p speed. */
    void
    addSetup(double seconds, double speed)
    {
        setupSeconds += seconds;
        setupScaled += seconds * speed;
    }
};

/**
 * Every operation's host times across an untraced run. Throughput
 * sums each operation's median time, so a burst of interference from
 * other tenants of the host moves it no more than it moves a median.
 */
class CellTimes
{
  public:
    void
    add(const UntracedPass &pass)
    {
        for (const UntracedPass::Cell &cell : pass.cells) {
            Times &times = cells[cell.key];
            times.refs = cell.refs;
            times.raw.push_back(cell.seconds);
            times.scaled.push_back(cell.seconds * cell.speed);
        }
    }

    /**
     * Simulated refs over the sum of each operation's median time,
     * raw or in reference-host seconds.
     */
    double
    refsPerSecond(bool scaled) const
    {
        double refs = 0.0, seconds = 0.0;
        for (const auto &[key, times] : cells) {
            refs += times.refs;
            seconds += median(scaled ? times.scaled : times.raw);
        }
        return ratio(refs, seconds);
    }

  private:
    struct Times
    {
        double refs = 0.0;
        std::vector<double> raw, scaled;
    };
    std::map<std::string, Times> cells;
};

/**
 * A workload: one untraced pass and one traced pass. Untraced passes
 * sample the probe before each timed operation, outside its timer.
 */
struct Workload
{
    const char *name;
    std::function<UntracedPass(const Options &, Tally &, HostProbe &)>
        untraced;
    std::function<TracedPass(const Options &, Tally &)> traced;
};

/** Stats-document digest of a finished run (the sim_digest unit). */
std::string
runDigest(Machine &machine, const RunResult &result,
          const std::string &benchmark)
{
    return ContentHash::of(
        buildStatsDocument(machine, result, benchmark).dump(0));
}

// -----------------------------------------------------------------
// mcf-run and gups-replay: SimulationEngine over the six schemes.
// -----------------------------------------------------------------

/** A classic-run workload: one benchmark, every registry scheme. */
struct RunSetup
{
    std::string benchmark;
    SystemConfig system = SystemConfig::table1();
    EngineConfig engine;
};

RunSetup
runSetup(const Options &options, const std::string &benchmark,
         const Sizes &sizes)
{
    RunSetup setup;
    setup.benchmark = benchmark;
    setup.system.numCores = sizes.cores;
    setup.engine.refsPerCore = sizes.refs;
    setup.engine.warmupRefsPerCore = sizes.warmup;
    setup.engine.seed = options.seed;
    return setup;
}

UntracedPass
runPassUntraced(const RunSetup &setup, Tally &tally, HostProbe &probe)
{
    const BenchmarkProfile &profile =
        ProfileRegistry::byName(setup.benchmark);
    const std::uint64_t per_core =
        setup.engine.refsPerCore + setup.engine.warmupRefsPerCore;
    UntracedPass pass;
    for (const std::string &scheme : SchemeRegistry::global().names()) {
        const std::string key = setup.benchmark + "/" + scheme;
        tally.operation(key, [&](Tally::Problems &problems) {
            const double speed = probe.sample();
            const Clock::time_point t0 = Clock::now();
            Machine machine(setup.system, scheme);
            SimulationEngine engine(machine, profile, setup.engine);
            const Clock::time_point t1 = Clock::now();
            const RunResult result = engine.run();
            pass.cells.push_back(
                {key, static_cast<double>(per_core * machine.numCores()),
                 secondsSince(t1), speed});
            pass.addSetup(std::chrono::duration<double>(t1 - t0).count(),
                          speed);
            checkRun(machine, result, setup.engine.refsPerCore, problems);
            tally.checkDigest(key,
                              runDigest(machine, result, setup.benchmark),
                              problems);
        });
    }
    return pass;
}

TracedPass
runPassTraced(const RunSetup &setup, Tally &tally)
{
    const BenchmarkProfile &profile =
        ProfileRegistry::byName(setup.benchmark);
    TracedPass pass;
    for (const std::string &scheme : SchemeRegistry::global().names()) {
        const std::string key = setup.benchmark + "/" + scheme;
        tally.operation(key + " (traced)", [&](Tally::Problems &problems) {
            Machine untraced_machine(setup.system, scheme);
            SimulationEngine engine(untraced_machine, profile,
                                    setup.engine);
            const Clock::time_point t0 = Clock::now();
            const RunResult expected = engine.run();
            const double untraced_seconds = secondsSince(t0);
            checkRun(untraced_machine, expected, setup.engine.refsPerCore,
                     problems);
            tally.checkDigest(key,
                              runDigest(untraced_machine, expected,
                                        setup.benchmark),
                              problems);

            const Clock::time_point t1 = Clock::now();
            Machine machine(setup.system, scheme);
            const double build_seconds = secondsSince(t1);
            auto sources = bench::engineSources(machine, profile,
                                                setup.engine);
            const Clock::time_point t2 = Clock::now();
            TracedRun traced = bench::runTraced(machine, profile,
                                                setup.engine,
                                                std::move(sources));
            const double traced_seconds = secondsSince(t2);
            checkRun(machine, traced.result, setup.engine.refsPerCore,
                     problems);
            compareRuns(expected, traced.result, problems);
            if (!problems.empty())
                return; // withhold this cell's layer numbers

            pass.layers.merge(traced.layers);
            pass.addRun(machine, traced.result);
            pass.machineBuildSeconds += build_seconds;
            pass.tracedSeconds += traced_seconds;
            pass.untracedSeconds += untraced_seconds;
            const double refs = static_cast<double>(
                (setup.engine.refsPerCore +
                 setup.engine.warmupRefsPerCore) *
                machine.numCores());
            auto &[scheme_refs, scheme_seconds] = pass.schemeWork[scheme];
            scheme_refs += refs;
            scheme_seconds += untraced_seconds;
        });
    }
    return pass;
}

/** A classic-run workload over the cells @p setup describes. */
Workload
runWorkload(const char *name, RunSetup (*setup)(const Options &))
{
    return {name,
            [setup](const Options &options, Tally &tally,
                    HostProbe &probe) {
                return runPassUntraced(setup(options), tally, probe);
            },
            [setup](const Options &options, Tally &tally) {
                return runPassTraced(setup(options), tally);
            }};
}

RunSetup
mcfSetup(const Options &options)
{
    return runSetup(options, "mcf",
                    options.smoke ? Sizes{2, 3000, 1000}
                                  : Sizes{8, 30000, 20000});
}

/**
 * gups-replay's input: the seed's generator streams recorded once
 * per process into a pomtlb-tracepack-v1 file (untimed), one stream
 * per core, so every pass replays the same pack.
 */
RunSetup
gupsSetup(const Options &options)
{
    const Sizes sizes =
        options.smoke ? Sizes{2, 3000, 1000} : Sizes{8, 15000, 10000};
    RunSetup setup = runSetup(options, "gups", sizes);
    const fs::path path = fs::path(options.workDir) / "gups.pack";
    setup.engine.tracePackPath = path.string();
    if (fs::exists(path))
        return setup;

    const BenchmarkProfile &profile = ProfileRegistry::byName("gups");
    std::vector<std::string> names;
    for (unsigned core = 0; core < sizes.cores; ++core)
        names.push_back("core" + std::to_string(core));
    TracePackWriter writer(path.string(), names);
    const std::uint64_t per_core = sizes.refs + sizes.warmup;
    std::vector<TraceRecord> block(per_core);
    for (unsigned core = 0; core < sizes.cores; ++core) {
        GeneratorSource source(profile, core,
                               setup.engine.seed ^ setup.system.seed);
        if (source.fill(block.data(), block.size()) != block.size())
            throw std::runtime_error("gups generator ran dry");
        writer.append(core, block.data(), block.size());
    }
    writer.close();
    return setup;
}

// -----------------------------------------------------------------
// churn-scenario: ScenarioEngine, 64 churning tenants, six schemes.
// -----------------------------------------------------------------

ScenarioSpec
churnSpec(const Options &options, const std::string &scheme)
{
    ScenarioSpec spec;
    spec.name = "churn-scenario";
    spec.scheme = scheme;
    spec.system.numCores = options.smoke ? 2 : 8;
    spec.engine.refsPerCore = options.smoke ? 3000 : 20000;
    spec.engine.warmupRefsPerCore = options.smoke ? 1000 : 8000;
    spec.engine.seed = options.seed;
    spec.tenantCount = options.smoke ? 8 : 64;
    spec.tenantBenchmarks = {"mcf", "gups", "canneal", "graph500"};
    spec.overcommitFactor = 2.0;
    spec.migrationPagesPerArrival = 2;
    spec.storm.intervalRefs = 2000;
    spec.storm.pagesPerBurst = 4;
    return spec;
}

/**
 * One scenario operation: build, compile, run, verify. Adds its
 * samples to @p untraced and, when given, its boundary timers and
 * result counts to @p traced. Samples @p probe first, when given.
 */
void
runScenarioCell(const Options &options, const std::string &scheme,
                Tally &tally, UntracedPass &untraced, TracedPass *traced,
                HostProbe *probe)
{
    const std::string key = "churn-scenario/" + scheme;
    tally.operation(key, [&](Tally::Problems &problems) {
        const ScenarioSpec spec = churnSpec(options, scheme);
        const double speed = probe != nullptr ? probe->sample() : 1.0;
        const Clock::time_point t0 = Clock::now();
        Machine machine(spec.system, spec.scheme);
        const Clock::time_point t1 = Clock::now();
        ScenarioEngine engine(machine, spec);
        const Clock::time_point t2 = Clock::now();
        const ScenarioResult result = engine.run();
        const double run_seconds = secondsSince(t2);

        const std::uint64_t cores = machine.numCores();
        checkRun(machine, result.run, spec.engine.refsPerCore, problems);
        std::uint64_t tenant_refs = 0;
        for (const TenantResult &tenant : result.tenants)
            tenant_refs += tenant.refs;
        if (tenant_refs != cores * spec.engine.refsPerCore) {
            problems.push_back("tenant refs " +
                               std::to_string(tenant_refs) +
                               " != cores x refs");
        }
        const JsonValue document =
            buildScenarioDocument(machine, spec, result);
        tally.checkDigest(key, ContentHash::of(document.dump(0)),
                          problems);

        const double refs = static_cast<double>(
            cores *
            (spec.engine.refsPerCore + spec.engine.warmupRefsPerCore));
        untraced.addSetup(std::chrono::duration<double>(t2 - t0).count(),
                          speed);
        untraced.cells.push_back({key, refs, run_seconds, speed});
        if (traced == nullptr || !problems.empty())
            return;
        traced->addRun(machine, result.run);
        traced->machineBuildSeconds +=
            std::chrono::duration<double>(t1 - t0).count();
        traced->compileSeconds +=
            std::chrono::duration<double>(t2 - t1).count();
        traced->scenarioRunSeconds += run_seconds;
        traced->scenarioRefs += refs;
        traced->migrations += static_cast<double>(result.migrations);
        traced->departures += static_cast<double>(result.departures);
        traced->stormShootdowns +=
            static_cast<double>(result.stormShootdowns);
        for (const JsonValue &tenant : document.at("tenants").elements()) {
            traced->tenantP99Max =
                std::max(traced->tenantP99Max,
                         tenant.at("p99_translation_cycles").asNumber());
        }
        auto &[scheme_refs, scheme_seconds] = traced->schemeWork[scheme];
        scheme_refs += refs;
        scheme_seconds += run_seconds;
    });
}

Workload
churnScenario()
{
    return {"churn-scenario",
            [](const Options &options, Tally &tally, HostProbe &probe) {
                UntracedPass pass;
                for (const std::string &scheme :
                     SchemeRegistry::global().names())
                    runScenarioCell(options, scheme, tally, pass, nullptr,
                                    &probe);
                return pass;
            },
            [](const Options &options, Tally &tally) {
                UntracedPass unused;
                TracedPass pass;
                for (const std::string &scheme :
                     SchemeRegistry::global().names())
                    runScenarioCell(options, scheme, tally, unused, &pass,
                                    nullptr);
                return pass;
            }};
}

// -----------------------------------------------------------------
// fig8-sweep: a cold SweepService campaign, Table 2 x six schemes.
// -----------------------------------------------------------------

std::vector<ExperimentRequest>
fig8Requests(const Options &options)
{
    ExperimentConfig base;
    base.system.numCores = options.smoke ? 2 : 4;
    base.engine.refsPerCore = options.smoke ? 3000 : 6000;
    base.engine.warmupRefsPerCore = options.smoke ? 1000 : 3000;
    base.engine.seed = options.seed;
    SweepSpec spec;
    spec.withBase(base).withAllSchemes();
    if (options.smoke)
        spec.withBenchmarks({"mcf", "gups", "canneal"});
    else
        spec.withAllBenchmarks();
    return spec.expand();
}

/** State the fig8-sweep passes of one process share. */
struct CampaignHistory
{
    unsigned campaigns = 0;
    /** The first pass's document, for the byte-identity check. */
    std::string firstDocument;
};

/**
 * Run one cold campaign into a fresh cache directory and journal.
 * Returns the document (null when the campaign threw); fills
 * @p traced's boundary timers when given. When @p probe is given, it
 * is sampled as each job is reported (between jobs, as the one
 * worker calls back inline), its time is left out of the campaign's,
 * and the median of these samples scales the pass's timings: reports
 * come in request order while jobs run in hash order, so a sample
 * does not belong to the job just before it.
 */
JsonValue
runCampaign(const Options &options,
            const std::vector<ExperimentRequest> &requests,
            CampaignHistory &history, Tally &tally,
            UntracedPass &untraced, TracedPass *traced, HostProbe *probe)
{
    const fs::path dir =
        fs::path(options.workDir) /
        ("campaign-" + std::to_string(history.campaigns++));
    fs::create_directories(dir);

    SweepServiceOptions service_options;
    service_options.cacheDir = (dir / "cache").string();
    service_options.journalPath = (dir / "journal.jsonl").string();
    // One worker, like every other workload's single simulation
    // thread: on a few shared cores, a pool as wide as the machine
    // timed the scheduler and the neighbours more than the jobs
    // (campaign throughput spread by over 30% between runs).
    service_options.jobs = 1;
    SweepService service(service_options);

    std::vector<double> walls(requests.size(), 0.0);
    const double probe_before = probe != nullptr ? probe->seconds() : 0.0;
    const std::size_t first_sample = probe != nullptr ? probe->samples() : 0;
    const Clock::time_point start = Clock::now();
    JsonValue document;
    try {
        document = service.run(
            requests, [&](const SweepJobReport &report, const JsonValue &) {
                walls[report.index] = report.wallSeconds;
                if (probe != nullptr)
                    probe->sample();
            });
    } catch (const std::exception &error) {
        tally.failAll(requests.size(),
                      std::string("campaign threw: ") + error.what());
        return JsonValue();
    }
    const double campaign_seconds =
        secondsSince(start) -
        (probe != nullptr ? probe->seconds() - probe_before : 0.0);
    const double speed =
        probe != nullptr ? probe->speedSince(first_sample) : 1.0;
    fs::remove_all(dir);

    // Campaign-level checks apply to every job of the pass.
    std::string campaign_problem;
    const std::string dump = document.dump(0);
    if (history.firstDocument.empty())
        history.firstDocument = dump;
    else if (dump != history.firstDocument)
        campaign_problem = "sweep document differs from the first pass";
    if (service.stats().executed != requests.size()) {
        campaign_problem = "executed " +
                           std::to_string(service.stats().executed) +
                           " of " + std::to_string(requests.size()) +
                           " jobs";
    }

    // Each job is a timed cell of its own, so throughput takes each
    // job's median wall across passes; what the campaign spends
    // outside the jobs (hashing, cache and journal writes) is one
    // more cell with no refs.
    const JsonValue &runs = document.at("runs");
    double job_seconds = 0.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const ExperimentRequest &request = requests[i];
        tally.operation(request.key(), [&](Tally::Problems &problems) {
            if (!campaign_problem.empty())
                problems.push_back(campaign_problem);
            const JsonValue &summary = runs.at(i).at("summary");
            const std::uint64_t want =
                request.config.engine.refsPerCore *
                request.config.system.numCores;
            if (summary.at("refs").asUint() != want)
                problems.push_back("ref total != cores x refs");
            if (summary.at("translation_cycles").asUint() !=
                summary.at("sram_cycles").asUint() +
                    summary.at("scheme_cycles").asUint())
                problems.push_back("translation != sram + scheme cycles");
            tally.checkDigest(request.key(),
                              ContentHash::of(runs.at(i).dump(0)),
                              problems);
        });
        untraced.cells.push_back(
            {request.key(),
             static_cast<double>((request.config.engine.refsPerCore +
                                  request.config.engine.warmupRefsPerCore) *
                                 request.config.system.numCores),
             walls[i], speed});
        job_seconds += walls[i];
    }
    untraced.cells.push_back(
        {"campaign-overhead", 0.0,
         std::max(campaign_seconds - job_seconds, 0.0), speed});

    // What every job pays before simulating: one Machine per scheme
    // at the campaign's configuration, timed outside the campaign.
    for (const std::string &scheme : SchemeRegistry::global().names()) {
        const Clock::time_point t0 = Clock::now();
        Machine machine(requests.front().config.system, scheme);
        untraced.addSetup(secondsSince(t0), speed);
    }

    if (traced != nullptr) {
        traced->campaignSeconds = campaign_seconds;
        traced->jobs = static_cast<double>(requests.size());
        traced->workers = service_options.jobs;
        traced->jobWalls = walls;
    }
    return document;
}

/**
 * Replay every campaign job through the traced driver, serially, and
 * check it against the campaign's own result for that job.
 */
void
replayCampaignTraced(const std::vector<ExperimentRequest> &requests,
                     const JsonValue &document,
                     const std::vector<double> &job_walls, Tally &tally,
                     TracedPass &pass)
{
    const JsonValue &runs = document.at("runs");
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const ExperimentRequest &request = requests[i];
        tally.operation(request.key() + " (traced)",
                        [&](Tally::Problems &problems) {
            const BenchmarkProfile &profile =
                ProfileRegistry::byName(request.benchmark);
            const EngineConfig &engine = request.config.engine;
            const Clock::time_point t0 = Clock::now();
            Machine machine(request.config.system, request.scheme);
            const double build_seconds = secondsSince(t0);
            TracedRun traced = bench::runTraced(
                machine, profile, engine,
                bench::engineSources(machine, profile, engine));
            const double job_seconds = secondsSince(t0);
            checkRun(machine, traced.result, engine.refsPerCore, problems);

            const JsonValue &summary = runs.at(i).at("summary");
            const RunTotals &totals = traced.result.totals();
            std::uint64_t sram = 0, scheme_cycles = 0;
            for (unsigned core = 0; core < machine.numCores(); ++core) {
                sram += machine.mmu(core).totalSramCycles();
                scheme_cycles += machine.mmu(core).totalSchemeCycles();
            }
            const auto field = [&](const char *name, std::uint64_t got) {
                if (summary.at(name).asUint() != got)
                    problems.push_back(
                        std::string("traced driver differs from the "
                                    "campaign on ") +
                        name);
            };
            field("translation_cycles", totals.translationCycles);
            field("sram_cycles", sram);
            field("scheme_cycles", scheme_cycles);
            field("page_walks", totals.pageWalks);
            field("last_level_misses", totals.lastLevelMisses);
            field("refs", totals.refs);
            if (!problems.empty())
                return;

            pass.layers.merge(traced.layers);
            pass.addRun(machine, traced.result);
            pass.machineBuildSeconds += build_seconds;
            pass.tracedSeconds += job_seconds;
            pass.untracedSeconds += job_walls[i];
            auto &[scheme_refs, scheme_seconds] =
                pass.schemeWork[request.scheme];
            scheme_refs += static_cast<double>(
                (engine.refsPerCore + engine.warmupRefsPerCore) *
                request.config.system.numCores);
            scheme_seconds += job_walls[i];
        });
    }
}

Workload
fig8Sweep()
{
    auto history = std::make_shared<CampaignHistory>();
    return {"fig8-sweep",
            [history](const Options &options, Tally &tally,
                      HostProbe &probe) {
                UntracedPass pass;
                runCampaign(options, fig8Requests(options), *history, tally,
                            pass, nullptr, &probe);
                return pass;
            },
            [history](const Options &options, Tally &tally) {
                const std::vector<ExperimentRequest> requests =
                    fig8Requests(options);
                UntracedPass unused;
                TracedPass pass;
                const JsonValue document =
                    runCampaign(options, requests, *history, tally, unused,
                                &pass, nullptr);
                if (document.isObject())
                    replayCampaignTraced(requests, document, pass.jobWalls,
                                         tally, pass);
                return pass;
            }};
}

// -----------------------------------------------------------------
// Driver
// -----------------------------------------------------------------

/**
 * Start a pass's RSS high-water mark afresh: hand free heap pages
 * back to the kernel, then reset the kernel's VmHWM. Without this,
 * every pass would report the largest footprint any earlier pass
 * left resident.
 */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** The RSS high-water mark (VmHWM) since resetPeakRss(), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: pomtlb_bench --workload "
                 "mcf-run|gups-replay|churn-scenario|fig8-sweep\n"
                 "                    [--seed N] [--seconds S] "
                 "[--trace 0|1] [--smoke] [--work-dir DIR]\n");
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            options.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            usage();
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage();
            options.traced = value == "1";
        } else if (arg == "--work-dir") {
            options.workDir = value;
        } else {
            usage();
        }
        if (end != nullptr && (*end != '\0' || value.empty()))
            usage();
    }
    if (options.workload.empty())
        usage();
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    // Pin glibc's mmap threshold. Left dynamic, it moves with the
    // allocation history, so whether a multi-megabyte array of a
    // Machine is mapped fresh or carved from the heap differed from
    // run to run of the same workload, and set-up time and peak RSS
    // jumped between two modes.
    mallopt(M_MMAP_THRESHOLD, 4 << 20);

    Options options = parseOptions(argc, argv);
    const std::vector<Workload> workloads = {
        runWorkload("mcf-run", mcfSetup),
        runWorkload("gups-replay", gupsSetup), churnScenario(),
        fig8Sweep()};
    const auto it = std::find_if(
        workloads.begin(), workloads.end(),
        [&](const Workload &w) { return options.workload == w.name; });
    if (it == workloads.end())
        usage();

    // A private scratch directory, removed on the way out.
    const fs::path work = fs::path(options.workDir) /
                          (options.workload + "-" +
                           std::to_string(::getpid()));
    fs::create_directories(work);
    options.workDir = work.string();

    std::printf("pomtlb_bench: workload=%s seed=%llu trace=%d%s\n",
                it->name, static_cast<unsigned long long>(options.seed),
                options.traced ? 1 : 0, options.smoke ? " smoke" : "");
    Tally tally;
    PassMetrics metrics;
    HostProbe probe;
    JsonValue info = JsonValue::object();
    info.set("workload", it->name);
    info.set("seed", options.seed);
    info.set("trace", options.traced ? 1 : 0);
    unsigned passes = 0;
    int status = 0;
    try {
        CellTimes times;
        std::vector<double> setups, scaled_setups;
        const Clock::time_point start = Clock::now();
        double last_pass = 0.0;
        // Passes repeat while another fits in --seconds; an untraced
        // run makes at least two so every digest is checked twice.
        do {
            const Clock::time_point pass_start = Clock::now();
            probe.sample();
            resetPeakRss();
            if (options.traced) {
                it->traced(options, tally).report(metrics);
            } else {
                const UntracedPass pass =
                    it->untraced(options, tally, probe);
                times.add(pass);
                setups.push_back(pass.setupSeconds);
                scaled_setups.push_back(pass.setupScaled);
                metrics.add("peak_rss_mb", peakRssMb(), "MB");
            }
            last_pass = secondsSince(pass_start);
            ++passes;
        } while ((!options.traced && passes < 2) ||
                 secondsSince(start) + last_pass <= options.seconds);
        probe.sample();

        info.set("host_speed", probe.speed());
        if (options.traced) {
            metrics.add("host.calibration_mops", probe.mops(), "Mop/s");
        } else {
            // Timings in reference-host seconds (see HostProbe).
            metrics.add("refs_per_s", times.refsPerSecond(true), "1/s");
            metrics.add("setup_s", median(scaled_setups), "s");
            info.set("raw_refs_per_s", times.refsPerSecond(false));
            info.set("raw_setup_s", median(setups));
        }
    } catch (const std::exception &error) {
        // Set-up outside any one operation failed (e.g. the pack
        // could not be recorded): no result to report.
        std::fprintf(stderr, "pomtlb_bench: %s\n", error.what());
        status = 1;
    }
    fs::remove_all(work);
    if (status != 0)
        return status;

    info.set("passes", static_cast<std::uint64_t>(passes));
    info.set("error_rate", ratio(static_cast<double>(tally.failed()),
                                 static_cast<double>(tally.attempted())));
    info.set("sim_digest", tally.simDigest());
    JsonValue result = JsonValue::object();
    result.set("correct", tally.failed() == 0);
    result.set("attempted", tally.attempted());
    result.set("failed", tally.failed());
    result.set("metrics", metrics.medians());
    std::printf("%s\n%s\n", info.dump(0).c_str(), result.dump(0).c_str());
    return 0;
}
