/**
 * @file
 * pomtlb — command-line front end to the simulator.
 *
 * Commands:
 *   list                       list the built-in benchmark profiles
 *   list-schemes               list every registered translation
 *                              scheme (name, rank, aliases)
 *   show-config                print the Table 1 machine parameters
 *   run                        run one benchmark under one scheme
 *   compare                    run every registered scheme (a
 *                              Figure 8 row)
 *   sweep                      parallel benchmark x scheme sweep
 *   figures                    regenerate the paper's tables as one
 *                              memoized campaign, each followed by
 *                              its verdict lines; exits 1 when a
 *                              verdict fails (sim/figures.hh)
 *   scenario                   multi-tenant consolidation scenario
 *                              (churn, overcommit, shootdown
 *                              storms); emits pomtlb-scenario-v1
 *   trace                      trace-pack front end: `trace pack`
 *                              builds a pomtlb-tracepack-v1 file
 *                              from text traces or from
 *                              generator output, `trace info`
 *                              describes one, `trace cat` dumps
 *                              records as pomtlb-tracetext-v1
 *                              (docs/trace-format.md)
 *
 * Every verb refuses an option it does not read: it names the option
 * and the ones it takes, and exits 2 (the table in main()).
 *
 * sweep options:
 *   --jobs N                   worker threads of the campaign, also
 *                              for compare, figures and scenario
 *                              (0 = all hardware threads, the
 *                              default; never more than the jobs
 *                              left to execute)
 *   --benchmarks a,b,c         comma list (default: all Table 2)
 *   --schemes x,y              comma list (default: all registered)
 *   --out FILE                 write JSON results for
 *                              scripts/plot_results.py, in the
 *                              identity form (every wall_seconds
 *                              0; the table's "wall s" column has
 *                              each job's real wall time)
 *   --stats                    embed per-component statistics in
 *                              the JSON output
 *   --cache-dir DIR            memoize per-job results under DIR;
 *                              repeated sweeps execute only the
 *                              delta (docs/sweep-service.md)
 *   --journal FILE             checkpoint completed jobs to FILE;
 *                              a killed sweep resumes from it
 *   plus the run/compare configuration options below
 *
 * figures options (tables + verdicts on stdout, progress and
 * campaign accounting on stderr):
 *   --only ID[,ID...]          print only these tables (default: all;
 *                              an unknown ID lists the valid ones)
 *   --jobs / --cache-dir       as for sweep
 *   --cores / --refs / --warmup
 *                              the base configuration every table
 *                              derives its runs from (the rest is
 *                              the Table 1 machine)
 *
 * scenario options:
 *   --tenants N[,M,...]        tenant counts; one scenario per
 *                              count (default 1). A 1-tenant
 *                              scenario reproduces `pomtlb run`
 *                              byte-for-byte.
 *   --tenant-benchmarks a,b    workloads cycled across tenants
 *                              (default: the --benchmark value)
 *   --churn-interval N         refs between tenant arrivals when
 *                              tenants oversubscribe the cores
 *                              (0 = spread evenly)
 *   --resident-per-core N      concurrently resident tenants per
 *                              core under churn (default 4)
 *   --overcommit F             memory overcommit factor, finite and
 *                              at least 1; resident footprints
 *                              shrink by F (default 1.0)
 *   --migrate-pages N          pages migrated (remap + shootdown)
 *                              when a tenant arrives (default 0)
 *   --storm-interval N         TLB-shootdown storm every N refs
 *                              per core (default 0 = off)
 *   --storm-pages N            pages invalidated per storm burst
 *                              (default 8)
 *   --time-slice N             round-robin scheduling quantum in
 *                              refs (default 2000)
 *   --out FILE                 write the pomtlb-scenario-v1 JSON
 *                              document (a campaign wrapper when
 *                              more than one tenant count is given)
 *   --stats-out FILE           write the embedded pomtlb-stats-v1
 *                              document of the first scenario
 *                              (byte-comparable to `pomtlb run
 *                              --stats-out`)
 *   --cache-dir / --journal / --jobs
 *                              memoize and checkpoint scenario jobs
 *                              exactly like sweep
 *   plus the run/compare configuration options below
 *
 * trace options (see docs/trace-format.md for the full grammar):
 *   trace pack --out PACK [--in FILE]...
 *              [--benchmark B --cores N [--count C] [--seed S]]
 *              [--stream-names a,b,...]
 *   trace info PACK [--json]
 *   trace cat PACK [--stream NAME] [--limit N]
 *
 * Common options (run / compare / sweep / scenario):
 *   --benchmark NAME           workload (default mcf; not sweep)
 *   --scheme NAME              any registered scheme name or alias;
 *                              see `pomtlb list-schemes` (run and
 *                              scenario)
 *   --cores N                  core count (default 8)
 *   --refs N                   measured references per core
 *   --warmup N                 warmup references per core
 *   --capacity MB              POM-TLB capacity
 *   --seed N                   experiment seed
 *   --native                   native (non-virtualized) mode
 *   --no-caching               POM-TLB entries not cacheable
 *   --no-bypass                disable the bypass predictor
 *   --no-size-predictor        disable the page-size predictor
 *   --unified                  unified skewed POM-TLB organisation
 *   --prefetch                 prefetch the adjacent page's set line
 *   --tlb-aware                TLB-aware cache replacement (S 5.1)
 *   --shootdown-interval N     inject a TLB shootdown every N refs
 *   --stats                    dump the pomtlb-stats-v1 document
 *                              (run) / embed per-component stats
 *                              (sweep)
 *   --stats-out FILE           write the pomtlb-stats-v1 JSON
 *                              document to FILE (run and scenario)
 *   --trace-out FILE           enable the sampled translation trace
 *                              and write it to FILE as JSONL
 *                              (run only; POMTLB_TRACE_SAMPLE sets
 *                              the 1-in-N interval, default 64)
 *   --trace-in PACK            replay a pomtlb-tracepack-v1 file
 *                              instead of the synthetic generator:
 *                              core c (run) or vCPU c (scenario)
 *                              takes stream c mod stream_count
 *   --trace-record PACK        scenario only: record the compiled
 *                              tenant streams to PACK (one stream
 *                              per vCPU) before running
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/report.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "sim/experiment.hh"
#include "sim/engine.hh"
#include "sim/figures.hh"
#include "sim/machine.hh"
#include "sim/perf_model.hh"
#include "sim/scenario.hh"
#include "sim/scheme_registry.hh"
#include "sim/stats_export.hh"
#include "sim/sweep.hh"
#include "sim/sweep_cache.hh"
#include "sim/translation_trace.hh"
#include "trace/error.hh"
#include "trace/source.hh"
#include "trace/tracepack.hh"

namespace
{

using namespace pomtlb;

struct CliOptions
{
    std::string benchmark = "mcf";
    std::string scheme = "pom";
    unsigned cores = 8;
    std::uint64_t refs = 0;   // 0 = default
    std::uint64_t warmup = 0; // 0 = default
    std::uint64_t capacityMb = 0;
    std::uint64_t seed = 0;
    bool native = false;
    bool noCaching = false;
    bool noBypass = false;
    bool noSizePredictor = false;
    bool unified = false;
    bool prefetch = false;
    bool tlbAware = false;
    std::uint64_t shootdownInterval = 0;
    bool dumpStats = false;
    std::string statsOutPath;
    std::string traceOutPath;

    // --out (sweep / scenario JSON, trace pack)
    std::string outPath;

    // trace-pack replay and recording (run / scenario)
    std::string tracePackIn;
    std::string tracePackRecord;

    // sweep
    unsigned jobs = 0; // 0 = all hardware threads
    std::string benchmarksList;
    std::string schemesList;
    std::string cacheDir;
    std::string journalPath;

    // figures
    std::string onlyList;

    // trace pack (every --in)
    std::vector<std::string> inPaths;

    // trace pack / info / cat
    std::uint64_t count = 0;
    std::string streamNames;
    bool json = false;
    std::string streamName;
    std::uint64_t limit = 0;
    /** Arguments that are not options (trace info/cat: the PACK). */
    std::vector<std::string> positional;

    // scenario
    std::string tenantsList = "1";
    std::string tenantBenchmarks;
    std::uint64_t churnInterval = 0;
    unsigned residentPerCore = 4;
    double overcommit = 1.0;
    std::uint64_t migratePages = 0;
    std::uint64_t stormInterval = 0;
    unsigned stormPages = 8;
    std::uint64_t timeSlice = 0;

    // every option named on the command line, in order
    std::vector<std::string> given;

    /** Was @p flag on the command line? */
    bool
    gave(const std::string &flag) const
    {
        return std::find(given.begin(), given.end(), flag) !=
               given.end();
    }
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: pomtlb <list|list-schemes|show-config|run|compare|"
        "sweep|figures|scenario|trace> [options]\n"
        "  see the header of tools/pomtlb_cli.cc or the README for "
        "the option list\n");
    std::exit(2);
}

/**
 * The one parser of CLI counts: digits only, at most @p max, or exit
 * 2 naming the text.
 */
std::uint64_t
parseNumber(const char *text,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    // strtoull would skip leading space, negate "-5" to 2^64 - 5 and
    // saturate on overflow: a count is digits only, and must fit.
    char *end = nullptr;
    errno = 0;
    const std::uint64_t value = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(text[0])) ||
        *end != '\0' || errno == ERANGE || value > max) {
        std::fprintf(stderr, "bad number: '%s'\n", text);
        std::exit(2);
    }
    return value;
}

/** A count the simulator keeps as `unsigned` (cores, tenants, ...). */
unsigned
parseUnsigned(const char *text)
{
    return static_cast<unsigned>(
        parseNumber(text, std::numeric_limits<unsigned>::max()));
}

double
parseDouble(const char *text)
{
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0') {
        std::fprintf(stderr, "bad number: '%s'\n", text);
        std::exit(2);
    }
    return value;
}

CliOptions
parseOptions(int argc, char **argv, int first)
{
    CliOptions options;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        options.given.push_back(arg);
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--benchmark")
            options.benchmark = next();
        else if (arg == "--scheme")
            options.scheme = next();
        else if (arg == "--cores")
            options.cores = parseUnsigned(next());
        else if (arg == "--refs")
            options.refs = parseNumber(next());
        else if (arg == "--warmup")
            options.warmup = parseNumber(next());
        else if (arg == "--capacity")
            options.capacityMb = parseNumber(
                next(), std::numeric_limits<std::uint64_t>::max() >> 20);
        else if (arg == "--seed")
            options.seed = parseNumber(next());
        else if (arg == "--native")
            options.native = true;
        else if (arg == "--no-caching")
            options.noCaching = true;
        else if (arg == "--no-bypass")
            options.noBypass = true;
        else if (arg == "--no-size-predictor")
            options.noSizePredictor = true;
        else if (arg == "--unified")
            options.unified = true;
        else if (arg == "--prefetch")
            options.prefetch = true;
        else if (arg == "--tlb-aware")
            options.tlbAware = true;
        else if (arg == "--shootdown-interval")
            options.shootdownInterval = parseNumber(next());
        else if (arg == "--stats")
            options.dumpStats = true;
        else if (arg == "--stats-out")
            options.statsOutPath = next();
        else if (arg == "--trace-out")
            options.traceOutPath = next();
        else if (arg == "--out")
            options.outPath = next();
        else if (arg == "--trace-in")
            options.tracePackIn = next();
        else if (arg == "--trace-record")
            options.tracePackRecord = next();
        else if (arg == "--jobs")
            options.jobs = parseUnsigned(next());
        else if (arg == "--benchmarks")
            options.benchmarksList = next();
        else if (arg == "--schemes")
            options.schemesList = next();
        else if (arg == "--cache-dir")
            options.cacheDir = next();
        else if (arg == "--journal")
            options.journalPath = next();
        else if (arg == "--only")
            options.onlyList = next();
        else if (arg == "--in")
            options.inPaths.push_back(next());
        else if (arg == "--tenants")
            options.tenantsList = next();
        else if (arg == "--tenant-benchmarks")
            options.tenantBenchmarks = next();
        else if (arg == "--churn-interval")
            options.churnInterval = parseNumber(next());
        else if (arg == "--resident-per-core")
            options.residentPerCore = parseUnsigned(next());
        else if (arg == "--overcommit")
            options.overcommit = parseDouble(next());
        else if (arg == "--migrate-pages")
            options.migratePages = parseNumber(next());
        else if (arg == "--storm-interval")
            options.stormInterval = parseNumber(next());
        else if (arg == "--storm-pages")
            options.stormPages = parseUnsigned(next());
        else if (arg == "--time-slice")
            options.timeSlice = parseNumber(next());
        else if (arg == "--count")
            options.count = parseNumber(next());
        else if (arg == "--stream-names")
            options.streamNames = next();
        else if (arg == "--json")
            options.json = true;
        else if (arg == "--stream")
            options.streamName = next();
        else if (arg == "--limit")
            options.limit = parseNumber(next());
        else if (arg.empty() || arg[0] != '-')
            options.positional.push_back(arg);
        else {
            std::fprintf(stderr, "pomtlb: unknown option '%s'\n",
                         arg.c_str());
            usage();
        }
    }
    return options;
}

/**
 * Resolve a CLI scheme name (canonical or alias) through the registry,
 * or exit 2 with the list of valid names.
 */
const std::string &
schemeFromName(const std::string &name)
{
    if (const SchemeRegistry::Info *info =
            SchemeRegistry::global().find(name))
        return info->name;
    std::fprintf(stderr, "unknown scheme '%s' (known:", name.c_str());
    for (const std::string &known : SchemeRegistry::global().names())
        std::fprintf(stderr, " %s", known.c_str());
    std::fprintf(stderr, ")\n");
    std::exit(2);
}

/** Split a comma-separated list ("a,b,c"). */
std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> parts;
    std::string current;
    for (const char c : text) {
        if (c == ',') {
            if (!current.empty())
                parts.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    if (!current.empty())
        parts.push_back(current);
    return parts;
}

/** One line of SweepService accounting, after @p label. */
void
printServiceStats(std::FILE *out, const char *label,
                  const SweepServiceStats &stats)
{
    std::fprintf(out,
                 "%s: jobs=%zu executed=%zu cache_hits=%zu "
                 "journal_hits=%zu deduplicated=%zu quarantined=%zu "
                 "enumerations=%zu enumeration_reuses=%zu\n",
                 label, stats.jobs, stats.executed, stats.cacheHits,
                 stats.journalHits, stats.deduplicated,
                 stats.quarantined, stats.enumerations,
                 stats.enumerationReuses);
}

/**
 * The campaign options of sweep, figures and scenario: --cache-dir,
 * --journal and --jobs.
 */
SweepServiceOptions
serviceOptionsFrom(const CliOptions &options)
{
    SweepServiceOptions service;
    service.cacheDir = options.cacheDir;
    service.journalPath = options.journalPath;
    service.jobs = options.jobs;
    return service;
}

/** The default configuration at the CLI's core count and length. */
ExperimentConfig
runLengthFrom(const CliOptions &options)
{
    ExperimentConfig config;
    config.system.numCores = options.cores;
    if (options.refs)
        config.engine.refsPerCore = options.refs;
    if (options.warmup)
        config.engine.warmupRefsPerCore = options.warmup;
    return config;
}

/**
 * The run configuration of run, compare, sweep and scenario,
 * validated once here: an invalid machine fails with one `fatal:`
 * line before any job starts.
 */
ExperimentConfig
configFrom(const CliOptions &options)
{
    ExperimentConfig config = runLengthFrom(options);
    if (options.capacityMb)
        config.system.pomTlb.capacityBytes = options.capacityMb << 20;
    if (options.seed)
        config.engine.seed = options.seed;
    if (options.native)
        config.system.mode = ExecMode::Native;
    config.system.pomTlb.cacheable = !options.noCaching;
    config.system.pomTlb.bypassPredictor = !options.noBypass;
    config.system.pomTlb.sizePredictor = !options.noSizePredictor;
    config.system.pomTlb.unifiedOrganization = options.unified;
    config.system.pomTlb.prefetchNextSet = options.prefetch;
    config.system.tlbAwareCaching = options.tlbAware;
    config.engine.shootdownIntervalRefs = options.shootdownInterval;
    config.system.validate();
    return config;
}

int
commandList()
{
    ResultTable table({"name", "pattern", "mode", "footprint",
                       "large pages %", "ovh virt %"});
    for (const auto &profile : ProfileRegistry::all()) {
        table.addRow(
            {profile.name, accessPatternName(profile.pattern),
             profile.multithreaded ? "multithreaded" : "rate",
             std::to_string(profile.footprintBytes >> 20) + "MB",
             ResultTable::num(profile.fracLargePagesPct, 1),
             ResultTable::num(profile.overheadVirtualPct, 2)});
    }
    table.print(std::cout);
    return 0;
}

int
commandListSchemes()
{
    ResultTable table({"name", "rank", "aliases", "description"});
    for (const SchemeRegistry::Info *info :
         SchemeRegistry::global().entries()) {
        std::string aliases;
        for (const std::string &alias : info->aliases) {
            if (!aliases.empty())
                aliases += ", ";
            aliases += alias;
        }
        table.addRow({info->name, std::to_string(info->rank), aliases,
                      info->description});
    }
    table.print(std::cout);
    return 0;
}

int
commandShowConfig()
{
    const SystemConfig config = SystemConfig::table1();
    std::printf("cores               : %u @ %.1f GHz\n",
                config.numCores, config.coreFreqGhz);
    std::printf("L1D / L2 / L3       : %lluKB / %lluKB / %lluMB\n",
                static_cast<unsigned long long>(
                    config.l1d.sizeBytes >> 10),
                static_cast<unsigned long long>(
                    config.l2.sizeBytes >> 10),
                static_cast<unsigned long long>(
                    config.l3.sizeBytes >> 20));
    std::printf("L1 TLB (4K/2M)      : %u / %u entries\n",
                config.l1TlbSmall.entries, config.l1TlbLarge.entries);
    std::printf("L2 TLB              : %u entries, %u-way\n",
                config.l2Tlb.entries, config.l2Tlb.associativity);
    std::printf("PSC (PML4/PDP/PDE)  : %u / %u / %u entries\n",
                config.psc.pml4Entries, config.psc.pdpEntries,
                config.psc.pdeEntries);
    std::printf("POM-TLB             : %lluMB, %u-way, base 0x%llx\n",
                static_cast<unsigned long long>(
                    config.pomTlb.capacityBytes >> 20),
                config.pomTlb.associativity,
                static_cast<unsigned long long>(
                    config.pomTlb.baseAddress));
    std::printf("die-stacked DRAM    : %u banks, tCAS/tRCD/tRP "
                "%u-%u-%u @ %.1f GHz\n",
                config.dieStacked.numBanks, config.dieStacked.tCas,
                config.dieStacked.tRcd, config.dieStacked.tRp,
                config.dieStacked.busFreqGhz);
    std::printf("DDR4 main memory    : %u banks x %u channels, "
                "%u-%u-%u @ %.3f GHz\n",
                config.mainMemory.numBanks,
                config.mainMemory.numChannels, config.mainMemory.tCas,
                config.mainMemory.tRcd, config.mainMemory.tRp,
                config.mainMemory.busFreqGhz);
    return 0;
}

int
commandRun(const CliOptions &options)
{
    const BenchmarkProfile &profile =
        ProfileRegistry::byName(options.benchmark);
    ExperimentConfig config = configFrom(options);
    config.engine.tracePackPath = options.tracePackIn;
    const std::string &scheme = schemeFromName(options.scheme);

    Machine machine(config.system, scheme);
    if (!options.traceOutPath.empty())
        machine.enableTracing();
    SimulationEngine engine(machine, profile, config.engine);
    const RunResult result = engine.run();

    std::printf("benchmark             : %s\n", profile.name.c_str());
    if (!config.engine.tracePackPath.empty())
        std::printf("trace pack            : %s\n",
                    config.engine.tracePackPath.c_str());
    std::printf("scheme                : %s\n", scheme.c_str());
    std::printf("mode                  : %s\n",
                execModeName(config.system.mode));
    const RunTotals &totals = result.totals();
    std::printf("refs (measured)       : %llu\n",
                static_cast<unsigned long long>(totals.refs));
    std::printf("L2 TLB misses         : %llu\n",
                static_cast<unsigned long long>(
                    totals.lastLevelMisses));
    std::printf("avg penalty per miss  : %.2f cycles\n",
                totals.avgPenaltyPerMiss);
    std::printf("page walks            : %llu (%.2f%% of misses)\n",
                static_cast<unsigned long long>(totals.pageWalks),
                100.0 * totals.walkFraction);
    if (totals.shootdowns > 0) {
        std::printf("shootdowns injected   : %llu\n",
                    static_cast<unsigned long long>(
                        totals.shootdowns));
    }
    if (PomTlbScheme *pom = machine.pomTlbScheme()) {
        std::printf("served by L2D$/L3D$   : %.1f%% / %.1f%% (of "
                    "remainder)\n",
                    100.0 * pom->l2CacheServiceRate(),
                    100.0 * pom->l3CacheServiceRate());
        std::printf("size/bypass accuracy  : %.1f%% / %.1f%%\n",
                    100.0 * pom->sizePredictorAccuracy(),
                    100.0 * pom->bypassPredictorAccuracy());
        std::printf("die-stacked RBH       : %.1f%%\n",
                    100.0 *
                        machine.pomTlbDevice()->rowBufferHitRate());
    }
    if (options.dumpStats || !options.statsOutPath.empty()) {
        const JsonValue document =
            buildStatsDocument(machine, result, profile.name);
        if (options.dumpStats) {
            std::printf("\n");
            document.write(std::cout);
            std::printf("\n");
        }
        if (!options.statsOutPath.empty()) {
            std::ofstream out(options.statsOutPath);
            if (!out) {
                std::fprintf(stderr, "cannot open %s for writing\n",
                             options.statsOutPath.c_str());
                return 1;
            }
            document.write(out);
            out << "\n";
            std::printf("wrote %s document to %s\n", kStatsSchemaV1,
                        options.statsOutPath.c_str());
        }
    }
    if (!options.traceOutPath.empty()) {
        std::ofstream out(options.traceOutPath);
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         options.traceOutPath.c_str());
            return 1;
        }
        machine.tracer()->writeJsonl(out);
        std::printf("wrote %zu trace events (1-in-%llu sampling) "
                    "to %s\n",
                    machine.tracer()->size(),
                    static_cast<unsigned long long>(
                        machine.tracer()->sampleInterval()),
                    options.traceOutPath.c_str());
    }
    return 0;
}

int
commandCompare(const CliOptions &options)
{
    const BenchmarkProfile &profile =
        ProfileRegistry::byName(options.benchmark);
    const ExperimentConfig config = configFrom(options);
    const BenchmarkComparison comparison =
        compareSchemes(profile, config, options.jobs);

    ResultTable table({"scheme", "cycles/miss", "cost ratio",
                       "improvement %"});
    for (const auto &[scheme, summary] : comparison.runs) {
        const SchemeDelta &delta = comparison.delta(scheme);
        table.addRow(
            {scheme,
             ResultTable::num(summary.avgPenaltyPerMiss, 1),
             ResultTable::num(delta.costRatio, 3),
             ResultTable::num(delta.improvementPct, 2)});
    }

    std::printf("benchmark: %s (ovh %s%% measured)\n\n",
                profile.name.c_str(),
                ResultTable::num(profile.overheadVirtualPct, 2)
                    .c_str());
    table.print(std::cout);
    return 0;
}

int
commandSweep(const CliOptions &options)
{
    SweepSpec spec;
    spec.withBase(configFrom(options));

    if (options.benchmarksList.empty() ||
        options.benchmarksList == "all") {
        spec.withAllBenchmarks();
    } else {
        const std::vector<std::string> names =
            splitList(options.benchmarksList);
        for (const std::string &name : names) {
            if (ProfileRegistry::find(name) == nullptr) {
                std::fprintf(stderr, "unknown benchmark '%s'\n",
                             name.c_str());
                return 2;
            }
        }
        spec.withBenchmarks(names);
    }

    if (options.schemesList.empty() || options.schemesList == "all") {
        spec.withAllSchemes();
    } else {
        std::vector<std::string> schemes;
        for (const std::string &name :
             splitList(options.schemesList))
            schemes.push_back(schemeFromName(name));
        spec.withSchemes(std::move(schemes));
    }

    if (options.dumpStats)
        spec.withComponentStats();

    const std::size_t total = spec.jobCount();
    const unsigned workers = campaignWorkers(options.jobs, total);
    std::fprintf(stderr, "sweep: %zu jobs on %u worker thread(s)\n",
                 total, workers);

    const auto start = std::chrono::steady_clock::now();
    SweepService service(serviceOptionsFrom(options));
    std::vector<double> walls(total, 0.0);
    const JsonValue document = service.run(
        spec, [&](const SweepJobReport &report, const JsonValue &) {
            walls[report.index] = report.wallSeconds;
            std::fprintf(stderr, "  [%zu/%zu] %s (%s)\n",
                         report.index + 1, total, report.key.c_str(),
                         jobSourceName(report.source));
        });
    const std::vector<ExperimentResult> results =
        SweepResultWriter::fromJson(document);
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    ResultTable table({"experiment", "cycles/miss", "walk %",
                       "L3D$ hit %", "wall s"});
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ExperimentResult &result = results[i];
        table.addRow(
            {result.request.key(),
             ResultTable::num(result.summary.avgPenaltyPerMiss, 1),
             ResultTable::num(100.0 * result.summary.walkFraction,
                              2),
             ResultTable::num(100.0 * result.summary.l3DataHitRate,
                              2),
             ResultTable::num(walls[i], 2)});
    }
    table.print(std::cout);
    std::printf("\n%zu experiments in %.2f s wall (%u workers)\n",
                results.size(), wall, workers);
    if (!options.cacheDir.empty() || !options.journalPath.empty())
        printServiceStats(stdout, "sweep-cache", service.stats());

    if (options.gave("--out")) {
        std::ofstream out(options.outPath);
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         options.outPath.c_str());
            return 1;
        }
        document.write(out);
        out << "\n";
        std::printf("wrote JSON results to %s\n",
                    options.outPath.c_str());
    }
    return 0;
}

int
commandFigures(const CliOptions &options)
{
    std::vector<const FigureEntry *> entries;
    if (options.onlyList.empty()) {
        for (const FigureEntry &entry : figureEntries())
            entries.push_back(&entry);
    }
    for (const std::string &id : splitList(options.onlyList)) {
        const FigureEntry *entry = findFigure(id);
        if (entry == nullptr) {
            std::fprintf(stderr, "pomtlb: unknown figure '%s' (known:",
                         id.c_str());
            for (const FigureEntry &known : figureEntries())
                std::fprintf(stderr, " %s", known.id.c_str());
            std::fprintf(stderr, ")\n");
            return 2;
        }
        entries.push_back(entry);
    }

    const auto start = std::chrono::steady_clock::now();
    const FiguresReport report = runFigures(
        entries, runLengthFrom(options), serviceOptionsFrom(options),
        std::cout,
        [](const SweepJobReport &job, const JsonValue &) {
            std::fprintf(stderr, "  [%zu] %s (%s)\n", job.index + 1,
                         job.key.c_str(), jobSourceName(job.source));
        });
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    printServiceStats(stderr, "figures", report.campaign);
    std::fprintf(stderr,
                 "figures: %zu table(s), %zu verdict(s), %zu failed, "
                 "%.1f s wall on %u worker thread(s)\n",
                 entries.size(), report.verdicts, report.failed, wall,
                 campaignWorkers(options.jobs, report.campaign.jobs));
    return report.failed == 0 ? 0 : 1;
}

/** Build one ScenarioSpec for @p tenants tenants from the CLI. */
ScenarioSpec
scenarioFrom(const CliOptions &options, unsigned tenants)
{
    const ExperimentConfig config = configFrom(options);
    ScenarioSpec spec;
    spec.name = "consolidation-" + std::to_string(tenants) + "t";
    spec.scheme = schemeFromName(options.scheme);
    spec.system = config.system;
    spec.engine = config.engine;
    spec.tenantCount = tenants;
    spec.tenantBenchmarks = options.tenantBenchmarks.empty()
                                ? std::vector<std::string>{
                                      options.benchmark}
                                : splitList(options.tenantBenchmarks);
    for (const std::string &name : spec.tenantBenchmarks) {
        if (ProfileRegistry::find(name) == nullptr) {
            std::fprintf(stderr, "unknown benchmark '%s'\n",
                         name.c_str());
            std::exit(2);
        }
    }
    spec.churnIntervalRefs = options.churnInterval;
    spec.residentPerCore = options.residentPerCore;
    spec.overcommitFactor = options.overcommit;
    spec.migrationPagesPerArrival = options.migratePages;
    spec.storm.intervalRefs = options.stormInterval;
    spec.storm.pagesPerBurst = options.stormPages;
    spec.timeSliceRefs = options.timeSlice;
    return spec;
}

int
commandScenario(const CliOptions &options)
{
    std::vector<ScenarioSpec> specs;
    for (const std::string &count : splitList(options.tenantsList))
        specs.push_back(
            scenarioFrom(options, parseUnsigned(count.c_str())));
    if (specs.empty()) {
        std::fprintf(stderr, "--tenants needs at least one count\n");
        return 2;
    }
    if (!options.tracePackIn.empty()) {
        for (ScenarioSpec &spec : specs)
            spec.withTracePack(options.tracePackIn);
    }
    if (!options.tracePackRecord.empty()) {
        // Record the compiled tenant streams of the first scenario
        // (one pack stream per vCPU) on a throwaway machine, then
        // run the campaign as usual.
        if (specs.size() > 1) {
            std::fprintf(stderr, "--trace-record records the first "
                                 "of %zu scenarios\n",
                         specs.size());
        }
        const ScenarioSpec &spec = specs.front();
        Machine machine(spec.system, spec.scheme);
        ScenarioEngine engine(machine, spec);
        engine.recordPack(options.tracePackRecord);
        std::printf("recorded tenant streams of '%s' to %s\n",
                    spec.name.c_str(),
                    options.tracePackRecord.c_str());
    }

    const auto start = std::chrono::steady_clock::now();
    SweepService service(serviceOptionsFrom(options));
    const std::size_t total = specs.size();
    const JsonValue document = service.run(
        kScenarioSchemaV1, scenarioJobs(specs),
        [&](const SweepJobReport &report, const JsonValue &) {
            std::fprintf(stderr, "  [%zu/%zu] %s (%s)\n",
                         report.index + 1, total,
                         specs[report.index].name.c_str(),
                         jobSourceName(report.source));
        });
    const double wall =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    ResultTable table({"scenario", "tenants", "departures",
                       "migrations", "storm sd", "worst p99"});
    const JsonValue &runs = document.at("runs");
    for (std::size_t i = 0; i < runs.elements().size(); ++i) {
        const JsonValue &run = runs.at(i);
        const JsonValue &tenants = run.at("tenants");
        double worst_p99 = 0.0;
        for (const JsonValue &tenant : tenants.elements()) {
            worst_p99 = std::max(
                worst_p99,
                tenant.at("p99_translation_cycles").asNumber());
        }
        const JsonValue &events = run.at("events");
        table.addRow(
            {run.at("scenario").at("name").asString(),
             std::to_string(tenants.elements().size()),
             std::to_string(events.at("departures").asUint()),
             std::to_string(events.at("migrations").asUint()),
             std::to_string(events.at("storm_shootdowns").asUint()),
             ResultTable::num(worst_p99, 0)});
    }
    table.print(std::cout);
    std::printf("\n%zu scenario(s) in %.2f s wall\n", total, wall);
    if (!options.cacheDir.empty() || !options.journalPath.empty())
        printServiceStats(stdout, "scenario-cache", service.stats());

    if (options.gave("--out")) {
        std::ofstream out(options.outPath);
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         options.outPath.c_str());
            return 1;
        }
        // A single scenario gets its own document; several get the
        // campaign wrapper. Both carry schema pomtlb-scenario-v1.
        const JsonValue &payload =
            total == 1 ? runs.at(std::size_t{0}) : document;
        payload.write(out);
        out << "\n";
        std::printf("wrote %s document to %s\n", kScenarioSchemaV1,
                    options.outPath.c_str());
    }
    if (!options.statsOutPath.empty()) {
        std::ofstream out(options.statsOutPath);
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         options.statsOutPath.c_str());
            return 1;
        }
        runs.at(std::size_t{0}).at("stats").write(out);
        out << "\n";
        std::printf("wrote %s document to %s\n", kStatsSchemaV1,
                    options.statsOutPath.c_str());
    }
    return 0;
}

[[noreturn]] void
traceUsage()
{
    std::fprintf(
        stderr,
        "usage: pomtlb trace pack --out PACK [--in FILE]...\n"
        "                        [--benchmark B --cores N "
        "[--count C] [--seed S]]\n"
        "                        [--stream-names a,b,...]\n"
        "       pomtlb trace info PACK [--json]\n"
        "       pomtlb trace cat PACK [--stream NAME] "
        "[--limit N]\n  see docs/trace-format.md\n");
    std::exit(2);
}

/**
 * `pomtlb trace pack`: build a pomtlb-tracepack-v1 file, either by
 * converting pomtlb-tracetext-v1 inputs (one stream per `--in`
 * file) or by capturing generator output (`--benchmark`; one stream
 * per core, seeded exactly like `pomtlb run`, so `run --trace-in`
 * replays it byte-identically).
 */
int
commandTracePack(const CliOptions &options)
{
    const std::vector<std::string> &inputs = options.inPaths;
    const bool capture = options.gave("--benchmark");
    if (options.outPath.empty())
        traceUsage();
    if (inputs.empty() != capture) {
        std::fprintf(stderr, "trace pack needs either --in files or "
                             "a --benchmark to capture\n");
        return 2;
    }
    // A text trace brings its own records; these shape a capture.
    for (const char *flag : {"--cores", "--seed", "--count"}) {
        if (!capture && options.gave(flag)) {
            std::fprintf(stderr,
                         "pomtlb: trace pack --in does not take '%s' "
                         "(it only shapes a --benchmark capture)\n",
                         flag);
            return 2;
        }
    }

    if (capture && options.gave("--cores") && options.cores == 0) {
        std::fprintf(stderr, "pomtlb: trace pack: --cores 0 captures "
                             "no stream (need at least 1)\n");
        return 2;
    }

    const std::size_t streamCount =
        !capture ? inputs.size()
        : options.gave("--cores") ? options.cores
                                  : 1;
    std::vector<std::string> names = splitList(options.streamNames);
    if (!names.empty() && names.size() != streamCount) {
        std::fprintf(stderr,
                     "--stream-names gives %zu names for %zu "
                     "streams\n",
                     names.size(), streamCount);
        return 2;
    }
    if (names.empty()) {
        for (std::size_t i = 0; i < streamCount; ++i)
            names.push_back("core" + std::to_string(i));
    }

    TracePackWriter writer(options.outPath, names);
    if (!capture) {
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const std::string &input = inputs[i];
            const std::uint64_t records = scanTextTrace(
                input, [&](const TraceRecord *block, std::size_t n) {
                    writer.append(static_cast<std::uint32_t>(i),
                                  block, n);
                });
            std::printf("  %s: %llu records -> stream '%s'\n",
                        input.c_str(),
                        static_cast<unsigned long long>(records),
                        names[i].c_str());
        }
    } else {
        // Capture the exact streams a generator-driven run issues:
        // same combined seed, one stream per core, warmup + measured
        // length by default.
        const BenchmarkProfile &profile =
            ProfileRegistry::byName(options.benchmark);
        const ExperimentConfig defaults;
        const std::uint64_t engineSeed =
            options.seed ? options.seed : defaults.engine.seed;
        const std::uint64_t combined =
            engineSeed ^ defaults.system.seed;
        const std::uint64_t perStream =
            options.count ? options.count
                          : defaults.engine.warmupRefsPerCore +
                                defaults.engine.refsPerCore;
        std::vector<TraceRecord> block(4096);
        for (std::size_t stream = 0; stream < streamCount;
             ++stream) {
            GeneratorSource source(profile,
                                   static_cast<unsigned>(stream),
                                   combined);
            std::uint64_t left = perStream;
            while (left > 0) {
                const std::size_t want =
                    static_cast<std::size_t>(std::min<std::uint64_t>(
                        block.size(), left));
                const std::size_t got =
                    source.fill(block.data(), want);
                writer.append(static_cast<std::uint32_t>(stream),
                              block.data(), got);
                left -= got;
            }
        }
    }
    writer.close();
    std::printf("wrote %llu records in %zu stream(s) to %s "
                "(content hash %s)\n",
                static_cast<unsigned long long>(writer.recordCount()),
                streamCount, options.outPath.c_str(),
                writer.contentHash().c_str());
    return 0;
}

/** The one PACK path `trace info` and `trace cat` take. */
const std::string &
packPath(const CliOptions &options)
{
    if (options.positional.size() != 1)
        traceUsage();
    return options.positional.front();
}

/** `pomtlb trace info`: describe a pack (human table or JSON). */
int
commandTraceInfo(const CliOptions &options)
{
    const JsonValue info = tracePackInfoJson(packPath(options));
    if (options.json) {
        info.write(std::cout);
        std::printf("\n");
        return 0;
    }
    std::printf("schema        : %s\n",
                info.at("schema").asString().c_str());
    std::printf("path          : %s\n",
                info.at("path").asString().c_str());
    std::printf("file bytes    : %llu\n",
                static_cast<unsigned long long>(
                    info.at("file_bytes").asUint()));
    std::printf("records       : %llu in %llu chunk(s) of %llu\n",
                static_cast<unsigned long long>(
                    info.at("records").asUint()),
                static_cast<unsigned long long>(
                    info.at("chunks").asUint()),
                static_cast<unsigned long long>(
                    info.at("chunk_records").asUint()));
    std::printf("content hash  : %s\n",
                info.at("content_hash").asString().c_str());
    for (const JsonValue &stream :
         info.at("streams").elements()) {
        std::printf("  stream '%s': %llu records, %llu chunk(s)\n",
                    stream.at("name").asString().c_str(),
                    static_cast<unsigned long long>(
                        stream.at("records").asUint()),
                    static_cast<unsigned long long>(
                        stream.at("chunks").asUint()));
    }
    return 0;
}

/** `pomtlb trace cat`: dump records as pomtlb-tracetext-v1. */
int
commandTraceCat(const CliOptions &options)
{
    const std::string &path = packPath(options);
    TracePackReader reader(path);
    std::vector<std::size_t> streams;
    if (!options.streamName.empty()) {
        const int index = reader.streamIndex(options.streamName);
        if (index < 0) {
            std::fprintf(stderr, "no stream '%s' in %s\n",
                         options.streamName.c_str(), path.c_str());
            return 2;
        }
        streams.push_back(static_cast<std::size_t>(index));
    } else {
        for (std::size_t i = 0; i < reader.streamCount(); ++i)
            streams.push_back(i);
    }
    std::printf("# pomtlb-tracetext-v1\n");
    std::vector<TraceRecord> block(1024);
    for (const std::size_t stream : streams) {
        std::printf("# stream: %s\n",
                    reader.stream(stream).name.c_str());
        const std::uint64_t total = reader.stream(stream).records;
        const std::uint64_t wanted =
            options.limit ? std::min(options.limit, total) : total;
        std::uint64_t pos = 0;
        while (pos < wanted) {
            const std::size_t got = reader.read(
                stream, pos, block.data(),
                static_cast<std::size_t>(std::min<std::uint64_t>(
                    block.size(), wanted - pos)));
            for (std::size_t i = 0; i < got; ++i)
                std::printf("%s\n",
                            formatTextRecord(block[i]).c_str());
            pos += got;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    const std::string command = argv[1];
    /** A verb: its handler and every option it reads. */
    struct Verb
    {
        int (*run)(const CliOptions &);
        std::vector<std::string> options;
    };
    // The run configuration configFrom() reads.
    const auto withConfig = [](std::vector<std::string> own) {
        for (const char *flag :
             {"--cores", "--refs", "--warmup", "--capacity", "--seed",
              "--native", "--no-caching", "--no-bypass",
              "--no-size-predictor", "--unified", "--prefetch",
              "--tlb-aware", "--shootdown-interval"})
            own.push_back(flag);
        return own;
    };
    static const std::map<std::string, Verb> commands = {
        {"list", {[](const CliOptions &) { return commandList(); }, {}}},
        {"list-schemes",
         {[](const CliOptions &) { return commandListSchemes(); }, {}}},
        {"show-config",
         {[](const CliOptions &) { return commandShowConfig(); }, {}}},
        {"run",
         {commandRun,
          withConfig({"--benchmark", "--scheme", "--trace-in", "--stats",
                      "--stats-out", "--trace-out"})}},
        {"compare",
         {commandCompare, withConfig({"--benchmark", "--jobs"})}},
        {"sweep",
         {commandSweep,
          withConfig({"--benchmarks", "--schemes", "--stats", "--out",
                      "--jobs", "--cache-dir", "--journal"})}},
        // Each table fixes its own machine, so a run option would
        // only mislabel the tables it changed.
        {"figures",
         {commandFigures,
          {"--only", "--jobs", "--cache-dir", "--cores", "--refs",
           "--warmup"}}},
        {"scenario",
         {commandScenario,
          withConfig({"--benchmark", "--scheme", "--tenants",
                      "--tenant-benchmarks", "--churn-interval",
                      "--resident-per-core", "--overcommit",
                      "--migrate-pages", "--storm-interval",
                      "--storm-pages", "--time-slice", "--trace-in",
                      "--trace-record", "--out", "--stats-out",
                      "--jobs", "--cache-dir", "--journal"})}},
        {"trace pack",
         {commandTracePack,
          {"--out", "--in", "--benchmark", "--cores", "--count",
           "--seed", "--stream-names"}}},
        {"trace info", {commandTraceInfo, {"PACK", "--json"}}},
        {"trace cat",
         {commandTraceCat, {"PACK", "--stream", "--limit"}}},
    };
    // Malformed trace input (a bad, unclosed or truncated pack, a
    // bad text line), an impossible scenario and a configuration
    // that fails validation are operator errors, not bugs: report
    // the message and exit 1 instead of crashing.
    try {
        // `trace` names its verb with a second word.
        const bool trace = command == "trace";
        if (trace && argc < 3)
            traceUsage();
        const std::string name =
            trace ? command + " " + argv[2] : command;
        const auto entry = commands.find(name);
        if (entry == commands.end()) {
            if (trace)
                traceUsage();
            std::fprintf(stderr, "pomtlb: unknown command '%s'\n",
                         command.c_str());
            usage();
        }
        const Verb &verb = entry->second;
        const CliOptions options = parseOptions(argc, argv, trace ? 3 : 2);
        // An option the verb does not read is an error, not ignored;
        // a verb that takes a positional argument lists it as PACK.
        for (const std::string &flag : options.given) {
            const bool option = !flag.empty() && flag[0] == '-';
            if (std::find(verb.options.begin(), verb.options.end(),
                          option ? flag : "PACK") != verb.options.end())
                continue;
            std::fprintf(stderr,
                         "pomtlb: %s does not take '%s' (it takes:",
                         name.c_str(), flag.c_str());
            for (const std::string &known : verb.options)
                std::fprintf(stderr, " %s", known.c_str());
            std::fprintf(stderr, "%s)\n",
                         verb.options.empty() ? " none" : "");
            return 2;
        }
        return verb.run(options);
    } catch (const TraceError &error) {
        std::fprintf(stderr, "pomtlb: %s\n", error.what());
        return 1;
    } catch (const std::invalid_argument &error) {
        std::fprintf(stderr, "pomtlb: %s\n", error.what());
        return 1;
    } catch (const FatalError &) {
        return 1; // fatal() has printed "fatal: <message>"
    }
}
