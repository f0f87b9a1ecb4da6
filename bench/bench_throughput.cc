/**
 * @file
 * Host-throughput benchmark for the simulation engine itself.
 *
 * Unlike `pomtlb figures` (which reports *simulated* metrics), this
 * binary measures how fast the simulator runs on the host: wall-clock
 * references per second of SimulationEngine::run() for every
 * (benchmark, scheme) pair, plus experiments per second of a
 * cache-less SweepService campaign. The result is written as a
 * `pomtlb-bench-v1` JSON document (see docs/metrics.md) that
 * scripts/check_bench.py compares against a checked-in baseline to
 * catch performance regressions in CI.
 *
 * Because absolute refs/sec depends on the host, the document also
 * records a calibration figure — the throughput of a fixed
 * pure-ALU mix64 loop — so the checker can compare host-normalised
 * ratios instead of raw rates (a slow CI runner then does not trip
 * the gate, and a fast one does not mask a regression).
 *
 * Usage:
 *     bench_throughput [--quick] [--out FILE] [--reps N] [--jobs N]
 *                      [--schemes a,b,c] [--cache DIR]
 *
 *   --quick   CI-sized runs (fewer cores/refs, default reps 2);
 *   --out     output path (default BENCH_throughput.json);
 *   --reps    timing repetitions per cell, best-of-N (default 3);
 *   --jobs    worker threads for the sweep section (default 4,
 *             capped by the host's hardware concurrency);
 *   --schemes comma list of registry scheme names (or `all`) to
 *             measure instead of the default cells. The default is
 *             the paper's four schemes so the checked-in baseline
 *             document keeps its cell set (check_bench.py geomean);
 *             newer contenders are opt-in through this flag;
 *   --cache   opt-in: additionally time the memoized sweep service
 *             (sim/sweep_cache.hh) against the scratch cache DIR —
 *             one cold pass populates it, then warm best-of passes
 *             measure pure cache-replay throughput. The extra
 *             `sweep_cache` document section is absent without the
 *             flag, which is safe: check_bench.py skips cells
 *             missing from either document.
 *   --trace   opt-in: time trace-replay ingest — one record stream
 *             read through the mmap-ed pomtlb-tracepack-v1
 *             PackStreamSource — in an extra `trace` document
 *             section (a temporary pack is created next to --out
 *             and removed afterwards).
 *
 * Each cell is measured reps times and the best (lowest-wall) run is
 * reported: minimum-of-N is the standard estimator for "time with
 * the least interference" on a shared host.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bitutil.hh"
#include "common/json.hh"
#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"
#include "sim/sweep.hh"
#include "sim/sweep_cache.hh"
#include "trace/profile.hh"
#include "trace/source.hh"
#include "trace/tracepack.hh"

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/**
 * Calibration: mix64 over a fixed iteration count. Pure ALU work
 * with a serial dependency chain — no memory traffic — so it tracks
 * the host's single-thread speed, which is also what bounds one
 * engine run. Returns millions of iterations per second.
 */
double
calibrateOnce(std::uint64_t iterations)
{
    std::uint64_t value = 0x9e3779b97f4a7c15ULL;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < iterations; ++i)
        value = pomtlb::mix64(value ^ i);
    const double wall = secondsSince(start);
    // Store the chain through a volatile so the compiler cannot
    // prove the loop dead and delete it (a branch on the result is
    // not enough — GCC folds `fputs("")`-style sinks away).
    volatile std::uint64_t sink = value;
    (void)sink;
    return static_cast<double>(iterations) / wall / 1e6;
}

/** Best of three bursts — the least-interfered estimate. */
double
calibrate(std::uint64_t iterations)
{
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep)
        best = std::max(best, calibrateOnce(iterations));
    return best;
}

struct Options
{
    bool quick = false;
    std::string outPath = "BENCH_throughput.json";
    unsigned reps = 0;  // 0 = default for the mode
    unsigned jobs = 4;
    std::string schemesList; // empty = the default (legacy) cells
    std::string cacheDir;    // empty = skip the warm-cache section
    bool trace = false;      // measure trace-replay ingest
};

/**
 * Resolve --schemes into canonical registry names. Empty input
 * yields the paper's four schemes — the cell set of the checked-in
 * baseline document — so new registrations never silently perturb
 * the perf-smoke geomean.
 */
std::vector<std::string>
resolveSchemes(const std::string &list)
{
    using pomtlb::SchemeRegistry;
    if (list.empty())
        return {"Baseline", "POM-TLB", "Shared_L2", "TSB"};
    if (list == "all")
        return SchemeRegistry::global().names();
    std::vector<std::string> schemes;
    std::string current;
    for (const char c : list + ",") {
        if (c != ',') {
            current += c;
            continue;
        }
        if (current.empty())
            continue;
        const SchemeRegistry::Info *info =
            SchemeRegistry::global().find(current);
        if (info == nullptr) {
            std::fprintf(stderr, "unknown scheme '%s'\n",
                         current.c_str());
            std::exit(1);
        }
        schemes.push_back(info->name);
        current.clear();
    }
    return schemes;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace pomtlb;

    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            opt.quick = true;
        } else if (arg == "--out" && i + 1 < argc) {
            opt.outPath = argv[++i];
        } else if (arg == "--reps" && i + 1 < argc) {
            opt.reps = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--jobs" && i + 1 < argc) {
            opt.jobs = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg == "--schemes" && i + 1 < argc) {
            opt.schemesList = argv[++i];
        } else if (arg == "--cache" && i + 1 < argc) {
            opt.cacheDir = argv[++i];
        } else if (arg == "--trace") {
            opt.trace = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--out FILE] "
                         "[--reps N] [--jobs N] [--schemes a,b,c] "
                         "[--cache DIR] [--trace]\n",
                         argv[0]);
            return 1;
        }
    }
    const std::vector<std::string> schemes =
        resolveSchemes(opt.schemesList);

    // Sizing: full mode mirrors the default `pomtlb run` shape
    // (Table 1 cores); quick mode is CI-sized — small enough for a
    // debug-pool runner, large enough that the steady state
    // dominates prepopulate and warmup.
    const unsigned cores = opt.quick ? 4 : 8;
    const std::uint64_t refs = opt.quick ? 40000 : 100000;
    const std::uint64_t warmup = opt.quick ? 20000 : 50000;
    const unsigned reps = opt.reps ? opt.reps : 3;
    const std::vector<std::string> benchmarks = {"mcf", "gups",
                                                 "graph500"};

    const double calibration_mops =
        calibrate(opt.quick ? 10'000'000ULL : 25'000'000ULL);
    std::printf("calibration: %.1f Mmix64/s\n", calibration_mops);

    JsonValue doc = JsonValue::object();
    doc.set("schema", std::string("pomtlb-bench-v1"));
    doc.set("quick", opt.quick);
    doc.set("reps", static_cast<std::uint64_t>(reps));
    doc.set("cores", static_cast<std::uint64_t>(cores));
    doc.set("refs_per_core", refs);
    doc.set("warmup_refs_per_core", warmup);
    doc.set("calibration_mops", calibration_mops);

    // -- refs/sec per (benchmark, scheme) -------------------------
    JsonValue throughput = JsonValue::array();
    for (const std::string &bench : benchmarks) {
        const BenchmarkProfile &profile =
            ProfileRegistry::byName(bench);
        for (const std::string &scheme : schemes) {
            double best_wall = 0.0;
            for (unsigned rep = 0; rep < reps; ++rep) {
                SystemConfig system = SystemConfig::table1();
                system.numCores = cores;
                EngineConfig engine_config;
                engine_config.refsPerCore = refs;
                engine_config.warmupRefsPerCore = warmup;
                engine_config.seed = 42;

                Machine machine(system, scheme);
                SimulationEngine engine(machine, profile,
                                        engine_config);
                const auto start = Clock::now();
                const RunResult result = engine.run();
                const double wall = secondsSince(start);
                if (result.totals().refs != refs * cores)
                    std::fprintf(stderr, "unexpected ref count\n");
                if (rep == 0 || wall < best_wall)
                    best_wall = wall;
            }
            // Warmup references execute the identical hot path, so
            // they count toward host throughput (the stats they
            // produce are discarded, the work is not).
            const double refs_per_sec =
                static_cast<double>((refs + warmup) * cores) /
                best_wall;
            std::printf("%-10s %-10s %12.0f refs/s (%.3f s)\n",
                        bench.c_str(), scheme.c_str(),
                        refs_per_sec, best_wall);

            JsonValue row = JsonValue::object();
            row.set("benchmark", bench);
            row.set("scheme", scheme);
            row.set("refs_per_sec", refs_per_sec);
            row.set("wall_sec", best_wall);
            throughput.push(std::move(row));
        }
    }
    doc.set("throughput", std::move(throughput));

    // -- sweep experiments/sec ------------------------------------
    const unsigned hw = std::thread::hardware_concurrency();
    const unsigned jobs =
        hw ? std::min(opt.jobs, hw) : opt.jobs;
    std::vector<ExperimentRequest> requests;
    for (const std::string bench : {"mcf", "gups"}) {
        for (const std::string &scheme : schemes) {
            requests.push_back(
                ExperimentRequest::of(bench, scheme)
                    .withCores(opt.quick ? 2 : 4)
                    .withRefs(opt.quick ? 5000 : 20000,
                              opt.quick ? 2500 : 10000));
        }
    }
    SweepServiceOptions sweep_options;
    sweep_options.jobs = jobs;
    const unsigned workers = campaignWorkers(jobs, requests.size());
    double sweep_best = 0.0;
    const unsigned sweep_reps = opt.quick ? 1 : 2;
    for (unsigned rep = 0; rep < sweep_reps; ++rep) {
        const auto start = Clock::now();
        SweepService(sweep_options).run(requests);
        const double wall = secondsSince(start);
        if (rep == 0 || wall < sweep_best)
            sweep_best = wall;
    }
    const double experiments_per_sec =
        static_cast<double>(requests.size()) / sweep_best;
    std::printf("sweep: %zu experiments, %u jobs -> %.2f exp/s\n",
                requests.size(), workers, experiments_per_sec);

    JsonValue sweep = JsonValue::object();
    sweep.set("jobs", static_cast<std::uint64_t>(workers));
    sweep.set("experiments",
              static_cast<std::uint64_t>(requests.size()));
    sweep.set("experiments_per_sec", experiments_per_sec);
    sweep.set("wall_sec", sweep_best);
    doc.set("sweep", std::move(sweep));

    // -- memoized warm-cache sweep (opt-in via --cache) -----------
    if (!opt.cacheDir.empty()) {
        SweepServiceOptions service_options;
        service_options.cacheDir = opt.cacheDir;
        service_options.jobs = jobs;

        // Cold pass populates (or tops up) the scratch cache; it is
        // timed for the speedup figure but the gate-worthy number is
        // the warm rate, which is pure lookup + document assembly.
        const auto cold_start = Clock::now();
        SweepService(service_options).run(requests);
        const double cold_wall = secondsSince(cold_start);

        double warm_best = 0.0;
        const unsigned warm_reps = std::max(reps, 2u);
        for (unsigned rep = 0; rep < warm_reps; ++rep) {
            SweepService service(service_options);
            const auto start = Clock::now();
            service.run(requests);
            const double wall = secondsSince(start);
            if (service.stats().executed != 0)
                std::fprintf(stderr,
                             "warm pass unexpectedly executed %zu "
                             "job(s)\n",
                             service.stats().executed);
            if (rep == 0 || wall < warm_best)
                warm_best = wall;
        }
        const double warm_rate =
            static_cast<double>(requests.size()) / warm_best;
        std::printf("sweep-cache: cold %.3f s, warm %.4f s -> "
                    "%.0f exp/s warm (x%.0f)\n",
                    cold_wall, warm_best, warm_rate,
                    cold_wall / warm_best);

        JsonValue cached = JsonValue::object();
        cached.set("jobs",
                   static_cast<std::uint64_t>(jobs));
        cached.set("experiments",
                   static_cast<std::uint64_t>(requests.size()));
        cached.set("cold_wall_sec", cold_wall);
        cached.set("warm_wall_sec", warm_best);
        cached.set("warm_experiments_per_sec", warm_rate);
        cached.set("speedup", cold_wall / warm_best);
        doc.set("sweep_cache", std::move(cached));
    }

    // -- trace-replay ingest (opt-in via --trace) -----------------
    if (opt.trace) {
        const std::uint64_t trace_records =
            opt.quick ? 200'000ULL : 1'000'000ULL;
        const std::string pack_path = opt.outPath + ".trace.pack";

        std::vector<TraceRecord> records(
            static_cast<std::size_t>(trace_records));
        GeneratorSource generator(ProfileRegistry::byName("mcf"), 0,
                                  42);
        std::size_t filled = 0;
        while (filled < records.size()) {
            filled += generator.fill(records.data() + filled,
                                     records.size() - filled);
        }
        {
            TracePackWriter writer(pack_path, {"core0"});
            writer.append(0, records.data(), records.size());
            writer.close();
        }

        // Each timed pass opens the pack cold and streams every
        // record through the TraceSource block API — the exact work
        // `run --trace-in` does per run.
        std::vector<TraceRecord> block(1024);
        std::uint64_t checksum = 0;
        double pack_best = 0.0;
        for (unsigned rep = 0; rep < reps; ++rep) {
            const auto start = Clock::now();
            auto reader = std::make_shared<TracePackReader>(pack_path);
            PackStreamSource source(reader, 0);
            std::uint64_t done = 0;
            while (done < trace_records) {
                const std::size_t got = source.fill(
                    block.data(),
                    static_cast<std::size_t>(
                        std::min<std::uint64_t>(
                            block.size(), trace_records - done)));
                for (std::size_t i = 0; i < got; ++i)
                    checksum ^= block[i].vaddr;
                done += got;
            }
            const double wall = secondsSince(start);
            if (rep == 0 || wall < pack_best)
                pack_best = wall;
        }
        volatile std::uint64_t sink = checksum;
        (void)sink;
        std::remove(pack_path.c_str());

        const double pack_rate =
            static_cast<double>(trace_records) / pack_best;
        std::printf("trace: %llu records, pack %.0f refs/s\n",
                    static_cast<unsigned long long>(trace_records),
                    pack_rate);

        JsonValue trace = JsonValue::object();
        trace.set("records", trace_records);
        trace.set("pack_wall_sec", pack_best);
        trace.set("pack_refs_per_sec", pack_rate);
        doc.set("trace", std::move(trace));
    }

    std::ofstream out(opt.outPath);
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", opt.outPath.c_str());
        return 1;
    }
    doc.write(out);
    out << "\n";
    std::printf("wrote %s\n", opt.outPath.c_str());
    return 0;
}
