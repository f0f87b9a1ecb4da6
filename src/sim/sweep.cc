#include "sim/sweep.hh"

#include <chrono>
#include <stdexcept>

#include "sim/engine.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"

namespace pomtlb
{

// ---------------------------------------------------------------
// ExperimentRequest
// ---------------------------------------------------------------

ExperimentRequest
ExperimentRequest::of(std::string benchmark_name,
                      std::string scheme_name, ExperimentConfig base)
{
    ExperimentRequest request;
    request.benchmark = std::move(benchmark_name);
    // Canonicalise aliases ("pom" → "POM-TLB") so request keys and
    // emitted JSON always carry the registry's canonical name; an
    // unknown name stays verbatim for runExperiment() to reject.
    if (const SchemeRegistry::Info *info =
            SchemeRegistry::global().find(scheme_name)) {
        request.scheme = info->name;
    } else {
        request.scheme = std::move(scheme_name);
    }
    request.config = std::move(base);
    return request;
}

ExperimentRequest &
ExperimentRequest::withLabel(std::string value)
{
    label = std::move(value);
    return *this;
}

ExperimentRequest &
ExperimentRequest::withCores(unsigned cores)
{
    config.system.numCores = cores;
    return *this;
}

ExperimentRequest &
ExperimentRequest::withMode(ExecMode mode)
{
    config.system.mode = mode;
    return *this;
}

ExperimentRequest &
ExperimentRequest::withRefs(std::uint64_t refs_per_core,
                            std::uint64_t warmup_refs_per_core)
{
    config.engine.refsPerCore = refs_per_core;
    config.engine.warmupRefsPerCore = warmup_refs_per_core;
    return *this;
}

ExperimentRequest &
ExperimentRequest::withSeed(std::uint64_t seed)
{
    config.engine.seed = seed;
    return *this;
}

ExperimentRequest &
ExperimentRequest::withPomCapacityMb(std::uint64_t mb)
{
    config.system.pomTlb.capacityBytes = mb << 20;
    return *this;
}

ExperimentRequest &
ExperimentRequest::withComponentStats(bool enabled)
{
    collectComponentStats = enabled;
    return *this;
}

ExperimentRequest &
ExperimentRequest::tweak(
    const std::function<void(ExperimentConfig &)> &apply)
{
    apply(config);
    return *this;
}

std::string
ExperimentRequest::key() const
{
    std::string result = benchmark;
    result += '/';
    result += scheme;
    if (!label.empty()) {
        result += '/';
        result += label;
    }
    return result;
}

// ---------------------------------------------------------------
// runExperiment
// ---------------------------------------------------------------

ExperimentResult
runExperiment(const ExperimentRequest &request, EnumerationShare *share)
{
    const BenchmarkProfile *profile =
        ProfileRegistry::find(request.benchmark);
    if (profile == nullptr) {
        throw std::invalid_argument("unknown benchmark '" +
                                    request.benchmark +
                                    "' in sweep request");
    }
    if (SchemeRegistry::global().find(request.scheme) == nullptr) {
        throw std::invalid_argument("unknown scheme '" +
                                    request.scheme +
                                    "' in sweep request");
    }

    const auto start = std::chrono::steady_clock::now();

    Machine machine(request.config.system, request.scheme);
    SimulationEngine engine(machine, *profile,
                            request.config.engine);

    ExperimentResult result;
    result.request = request;
    result.summary.benchmark = profile->name;
    result.summary.scheme = request.scheme;
    result.summary.mode = request.config.system.mode;
    result.summary.run = engine.run(share);

    SchemeRunSummary &summary = result.summary;
    const RunTotals &totals = summary.run.totals();
    summary.translationCycles = totals.translationCycles;
    summary.avgPenaltyPerMiss = totals.avgPenaltyPerMiss;
    summary.walkFraction = totals.walkFraction;
    for (unsigned core = 0; core < machine.numCores(); ++core) {
        summary.sramCycles += machine.mmu(core).totalSramCycles();
        summary.schemeCycles +=
            machine.mmu(core).totalSchemeCycles();
    }
    summary.cycleBreakdown = machine.scheme().cycleBreakdown();
    summary.l3DataHitRate =
        machine.hierarchy().l3d().hitRate(LineKind::Data);

    if (PomTlbScheme *pom = machine.pomTlbScheme()) {
        summary.pomL2CacheServiceRate = pom->l2CacheServiceRate();
        summary.pomL3CacheServiceRate = pom->l3CacheServiceRate();
        summary.pomDramServiceRate = pom->pomDramServiceRate();
        summary.sizePredictorAccuracy = pom->sizePredictorAccuracy();
        summary.bypassPredictorAccuracy =
            pom->bypassPredictorAccuracy();
        summary.dieStackedRowBufferHitRate =
            machine.pomTlbDevice()->rowBufferHitRate();
    }

    if (request.collectComponentStats)
        machine.stats().collect(result.componentStats);

    result.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    return result;
}

// ---------------------------------------------------------------
// SweepSpec
// ---------------------------------------------------------------

SweepSpec &
SweepSpec::withBase(ExperimentConfig config)
{
    baseConfig = std::move(config);
    return *this;
}

SweepSpec &
SweepSpec::withBenchmarks(std::vector<std::string> names)
{
    benchmarkNames = std::move(names);
    return *this;
}

SweepSpec &
SweepSpec::withAllBenchmarks()
{
    benchmarkNames = ProfileRegistry::names();
    return *this;
}

SweepSpec &
SweepSpec::withSchemes(std::vector<std::string> names)
{
    // Canonicalise aliases up front so expand()'s request keys and
    // the emitted JSON always carry canonical names.
    schemeNames.clear();
    schemeNames.reserve(names.size());
    for (std::string &name : names) {
        if (const SchemeRegistry::Info *info =
                SchemeRegistry::global().find(name)) {
            schemeNames.push_back(info->name);
        } else {
            schemeNames.push_back(std::move(name));
        }
    }
    return *this;
}

SweepSpec &
SweepSpec::withAllSchemes()
{
    schemeNames = SchemeRegistry::global().names();
    return *this;
}

SweepSpec &
SweepSpec::withVariant(std::string label,
                       std::function<void(ExperimentConfig &)> apply)
{
    configVariants.push_back({std::move(label), std::move(apply)});
    return *this;
}

SweepSpec &
SweepSpec::withComponentStats(bool enabled)
{
    componentStats = enabled;
    return *this;
}

std::size_t
SweepSpec::jobCount() const
{
    const std::size_t variants =
        configVariants.empty() ? 1 : configVariants.size();
    return benchmarkNames.size() * schemeNames.size() * variants;
}

std::vector<ExperimentRequest>
SweepSpec::expand() const
{
    std::vector<ExperimentRequest> requests;
    requests.reserve(jobCount());
    for (const std::string &benchmark : benchmarkNames) {
        for (const std::string &scheme : schemeNames) {
            if (configVariants.empty()) {
                requests.push_back(
                    ExperimentRequest::of(benchmark, scheme,
                                          baseConfig)
                        .withComponentStats(componentStats));
                continue;
            }
            for (const Variant &variant : configVariants) {
                ExperimentRequest request = ExperimentRequest::of(
                    benchmark, scheme, baseConfig);
                if (variant.apply)
                    variant.apply(request.config);
                request.withLabel(variant.label)
                    .withComponentStats(componentStats);
                requests.push_back(std::move(request));
            }
        }
    }
    return requests;
}

// ---------------------------------------------------------------
// SweepResultWriter
// ---------------------------------------------------------------

namespace
{

JsonValue
summaryToJson(const SchemeRunSummary &summary)
{
    JsonValue object = JsonValue::object();
    object.set("translation_cycles", summary.translationCycles);
    object.set("sram_cycles", summary.sramCycles);
    object.set("scheme_cycles", summary.schemeCycles);
    JsonValue breakdown = JsonValue::object();
    for (const auto &[point, cycles] : summary.cycleBreakdown)
        breakdown.set(servicePointName(point), cycles);
    object.set("cycle_breakdown", std::move(breakdown));
    object.set("avg_penalty_per_miss", summary.avgPenaltyPerMiss);
    object.set("walk_fraction", summary.walkFraction);
    const RunTotals &totals = summary.run.totals();
    object.set("refs", totals.refs);
    object.set("instructions", totals.instructions);
    object.set("cycles", totals.cycles);
    object.set("last_level_misses", totals.lastLevelMisses);
    object.set("page_walks", totals.pageWalks);
    object.set("shootdowns", totals.shootdowns);
    object.set("pom_l2_cache_service_rate",
               summary.pomL2CacheServiceRate);
    object.set("pom_l3_cache_service_rate",
               summary.pomL3CacheServiceRate);
    object.set("pom_dram_service_rate", summary.pomDramServiceRate);
    object.set("size_predictor_accuracy",
               summary.sizePredictorAccuracy);
    object.set("bypass_predictor_accuracy",
               summary.bypassPredictorAccuracy);
    object.set("die_stacked_row_buffer_hit_rate",
               summary.dieStackedRowBufferHitRate);
    object.set("l3_data_hit_rate", summary.l3DataHitRate);
    return object;
}

} // namespace

JsonValue
SweepResultWriter::entryToJson(const ExperimentResult &result)
{
    JsonValue entry = JsonValue::object();
    entry.set("benchmark", result.request.benchmark);
    entry.set("scheme", result.request.scheme);
    entry.set("label", result.request.label);
    entry.set("mode",
              execModeName(result.request.config.system.mode));
    entry.set("cores", std::uint64_t(
                           result.request.config.system.numCores));
    entry.set("pom_capacity_bytes",
              result.request.config.system.pomTlb.capacityBytes);
    entry.set("refs_per_core",
              result.request.config.engine.refsPerCore);
    entry.set("warmup_refs_per_core",
              result.request.config.engine.warmupRefsPerCore);
    entry.set("seed", result.request.config.engine.seed);
    entry.set("wall_seconds", result.wallSeconds);
    entry.set("summary", summaryToJson(result.summary));
    if (!result.componentStats.empty()) {
        JsonValue stats = JsonValue::object();
        for (const auto &stat : result.componentStats)
            stats.set(stat.first, stat.second);
        entry.set("component_stats", std::move(stats));
    }
    return entry;
}

JsonValue
SweepResultWriter::toJson(const std::vector<ExperimentResult> &results)
{
    JsonValue runs = JsonValue::array();
    for (const ExperimentResult &result : results)
        runs.push(entryToJson(result));

    JsonValue document = JsonValue::object();
    document.set("schema", kSweepSchemaV1);
    document.set("runs", std::move(runs));
    return document;
}

void
SweepResultWriter::write(std::ostream &os,
                         const std::vector<ExperimentResult> &results)
{
    toJson(results).write(os);
    os << "\n";
}

ExperimentResult
SweepResultWriter::entryFromJson(const JsonValue &entry)
{
    ExperimentResult result;
    result.request.benchmark = entry.at("benchmark").asString();
    const SchemeRegistry::Info *scheme =
        SchemeRegistry::global().find(
            entry.at("scheme").asString());
    if (scheme == nullptr) {
        throw std::invalid_argument(
            "unknown scheme in sweep document: " +
            entry.at("scheme").asString());
    }
    result.request.scheme = scheme->name;
    result.request.label = entry.at("label").asString();
    result.request.config.system.mode =
        entry.at("mode").asString() == "native"
            ? ExecMode::Native
            : ExecMode::Virtualized;
    result.request.config.system.numCores =
        static_cast<unsigned>(entry.at("cores").asUint());
    result.request.config.system.pomTlb.capacityBytes =
        entry.at("pom_capacity_bytes").asUint();
    result.request.config.engine.refsPerCore =
        entry.at("refs_per_core").asUint();
    result.request.config.engine.warmupRefsPerCore =
        entry.at("warmup_refs_per_core").asUint();
    result.request.config.engine.seed =
        entry.at("seed").asUint();
    result.wallSeconds = entry.at("wall_seconds").asNumber();

    const JsonValue &summary = entry.at("summary");
    SchemeRunSummary &out = result.summary;
    out.benchmark = result.request.benchmark;
    out.scheme = result.request.scheme;
    out.mode = result.request.config.system.mode;
    out.translationCycles =
        summary.at("translation_cycles").asUint();
    // Optional so pre-observability documents still load.
    if (summary.has("sram_cycles"))
        out.sramCycles = summary.at("sram_cycles").asUint();
    if (summary.has("scheme_cycles"))
        out.schemeCycles = summary.at("scheme_cycles").asUint();
    if (summary.has("cycle_breakdown")) {
        for (const auto &[name, cycles] :
             summary.at("cycle_breakdown").members()) {
            const auto point = servicePointFromName(name);
            if (!point) {
                throw std::invalid_argument(
                    "unknown service point in sweep document: " +
                    name);
            }
            out.cycleBreakdown.emplace_back(*point,
                                            cycles.asUint());
        }
    }
    // The JSON stores machine-wide totals, not the per-core
    // breakdown; reconstruct them as one aggregate pseudo-core
    // so RunResult::totals() (and a re-serialisation) reproduces
    // the written values.
    CoreRunStats aggregate;
    aggregate.refs = summary.at("refs").asUint();
    aggregate.instructions = summary.at("instructions").asUint();
    aggregate.cycles = summary.at("cycles").asUint();
    aggregate.translationCycles = out.translationCycles;
    aggregate.lastLevelTlbMisses =
        summary.at("last_level_misses").asUint();
    aggregate.pageWalks = summary.at("page_walks").asUint();
    aggregate.shootdowns = summary.at("shootdowns").asUint();
    out.run.cores.push_back(aggregate);
    out.avgPenaltyPerMiss =
        summary.at("avg_penalty_per_miss").asNumber();
    out.walkFraction = summary.at("walk_fraction").asNumber();
    out.pomL2CacheServiceRate =
        summary.at("pom_l2_cache_service_rate").asNumber();
    out.pomL3CacheServiceRate =
        summary.at("pom_l3_cache_service_rate").asNumber();
    out.pomDramServiceRate =
        summary.at("pom_dram_service_rate").asNumber();
    out.sizePredictorAccuracy =
        summary.at("size_predictor_accuracy").asNumber();
    out.bypassPredictorAccuracy =
        summary.at("bypass_predictor_accuracy").asNumber();
    out.dieStackedRowBufferHitRate =
        summary.at("die_stacked_row_buffer_hit_rate").asNumber();
    out.l3DataHitRate =
        summary.at("l3_data_hit_rate").asNumber();

    if (entry.has("component_stats")) {
        for (const auto &stat :
             entry.at("component_stats").members()) {
            result.componentStats.emplace_back(
                stat.first, stat.second.asNumber());
        }
    }
    return result;
}

std::vector<ExperimentResult>
SweepResultWriter::fromJson(const JsonValue &document)
{
    if (!document.isObject() || !document.has("schema") ||
        document.at("schema").asString() != kSweepSchemaV1) {
        throw std::invalid_argument(
            "not a pomtlb-sweep-v1 document");
    }

    std::vector<ExperimentResult> results;
    for (const JsonValue &entry : document.at("runs").elements())
        results.push_back(entryFromJson(entry));
    return results;
}

} // namespace pomtlb
