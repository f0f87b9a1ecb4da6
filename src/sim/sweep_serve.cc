#include "sim/sweep_serve.hh"

#include <cmath>
#include <filesystem>
#include <istream>
#include <limits>
#include <ostream>
#include <vector>

#include "sim/experiment.hh"
#include "sim/scenario.hh"
#include "sim/scheme_registry.hh"
#include "trace/profile.hh"

namespace pomtlb
{

namespace
{

/** Protocol violation: reported as an `error` event, loop continues. */
struct ServeError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

std::string
stringField(const JsonValue &request, const std::string &field)
{
    if (!request.has(field) || !request.at(field).isString())
        throw ServeError("request needs string field '" + field +
                         "'");
    return request.at(field).asString();
}

/**
 * An axis field: a JSON array of names, the string "all", or absent
 * (= all). Returns the resolved name list.
 */
std::vector<std::string>
axisField(const JsonValue &request, const std::string &field,
          const std::vector<std::string> &all_names)
{
    if (!request.has(field))
        return all_names;
    const JsonValue &value = request.at(field);
    if (value.isString()) {
        if (value.asString() == "all")
            return all_names;
        return {value.asString()};
    }
    if (!value.isArray())
        throw ServeError("field '" + field +
                         "' must be an array of names or \"all\"");
    std::vector<std::string> names;
    for (const JsonValue &element : value.elements()) {
        if (!element.isString())
            throw ServeError("field '" + field +
                             "' must contain only strings");
        names.push_back(element.asString());
    }
    if (names.empty())
        throw ServeError("field '" + field + "' must not be empty");
    return names;
}

/** The largest count the simulator keeps as `unsigned`. */
constexpr std::uint64_t kUnsignedMax =
    std::numeric_limits<unsigned>::max();

/**
 * The one reader of count fields, with the CLI's limits: @p value
 * must be an integer in [0, @p max], or a ServeError names @p field.
 */
std::uint64_t
countValue(const JsonValue &value, const std::string &field,
           std::uint64_t max)
{
    // A JSON number is a double: range-check it before converting,
    // since converting one of 2^64 or more is undefined.
    const double number = value.isNumber() ? value.asNumber() : -1.0;
    if (!(number >= 0.0) || std::floor(number) != number ||
        number >= 0x1p64 || static_cast<std::uint64_t>(number) > max) {
        throw ServeError("field '" + field +
                         "' must be an integer in [0, " +
                         std::to_string(max) + "]");
    }
    return static_cast<std::uint64_t>(number);
}

/** Count field @p field of @p request, or @p fallback when absent. */
std::uint64_t
countField(const JsonValue &request, const std::string &field,
           std::uint64_t fallback,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    return request.has(field) ? countValue(request.at(field), field, max)
                              : fallback;
}

/** Apply the optional config-override fields of a sweep request. */
ExperimentConfig
configFromRequest(const JsonValue &request)
{
    ExperimentConfig config;
    config.system.numCores = static_cast<unsigned>(countField(
        request, "cores", config.system.numCores, kUnsignedMax));
    config.engine.refsPerCore = countField(request, "refs_per_core",
                                           config.engine.refsPerCore);
    config.engine.warmupRefsPerCore =
        countField(request, "warmup_refs_per_core",
                   config.engine.warmupRefsPerCore);
    config.engine.seed =
        countField(request, "seed", config.engine.seed);
    if (request.has("pom_capacity_mb")) {
        config.system.pomTlb.capacityBytes =
            countValue(request.at("pom_capacity_mb"), "pom_capacity_mb",
                       std::numeric_limits<std::uint64_t>::max() >> 20)
            << 20;
    }
    if (request.has("mode")) {
        const std::string &mode = request.at("mode").asString();
        if (mode == "native")
            config.system.mode = ExecMode::Native;
        else if (mode == "virtualized")
            config.system.mode = ExecMode::Virtualized;
        else
            throw ServeError("unknown mode '" + mode +
                             "' (native or virtualized)");
    }
    return config;
}

} // namespace

ServeSession::ServeSession(std::istream &in, std::ostream &out,
                           ServeOptions serve_options)
    : input(in), output(out), serveOptions(std::move(serve_options))
{
}

void
ServeSession::emitEvent(JsonValue event)
{
    JsonValue line = JsonValue::object();
    line.set("schema", kSweepServeSchemaV1);
    for (const auto &[key, value] : event.members())
        line.set(key, value);
    line.write(output, 0);
    output << "\n";
    output.flush();
}

JsonValue
ServeSession::statsJson() const
{
    JsonValue stats = JsonValue::object();
    stats.set("jobs", std::uint64_t(campaignStats.jobs));
    stats.set("executed", std::uint64_t(campaignStats.executed));
    stats.set("cache_hits",
              std::uint64_t(campaignStats.cacheHits));
    stats.set("journal_hits",
              std::uint64_t(campaignStats.journalHits));
    stats.set("deduplicated",
              std::uint64_t(campaignStats.deduplicated));
    stats.set("quarantined",
              std::uint64_t(campaignStats.quarantined));
    stats.set("enumerations",
              std::uint64_t(campaignStats.enumerations));
    stats.set("enumeration_reuses",
              std::uint64_t(campaignStats.enumerationReuses));
    return stats;
}

void
ServeSession::handleSweep(const JsonValue &request)
{
    const bool single = stringField(request, "op") == "run";

    std::vector<std::string> benchmarks;
    std::vector<std::string> schemes;
    if (single) {
        benchmarks = {stringField(request, "benchmark")};
        schemes = {stringField(request, "scheme")};
    } else {
        benchmarks = axisField(request, "benchmarks",
                               ProfileRegistry::names());
        schemes = axisField(request, "schemes",
                            SchemeRegistry::global().names());
    }

    for (const std::string &name : benchmarks) {
        if (ProfileRegistry::find(name) == nullptr)
            throw ServeError("unknown benchmark '" + name + "'");
    }
    for (std::string &name : schemes) {
        const SchemeRegistry::Info *info =
            SchemeRegistry::global().find(name);
        if (info == nullptr)
            throw ServeError("unknown scheme '" + name + "'");
        name = info->name;
    }

    const ExperimentConfig config = configFromRequest(request);
    const bool component_stats =
        request.has("component_stats") &&
        request.at("component_stats").asBool();

    std::vector<ExperimentRequest> requests;
    for (const std::string &benchmark : benchmarks) {
        for (const std::string &scheme : schemes) {
            requests.push_back(
                ExperimentRequest::of(benchmark, scheme, config)
                    .withComponentStats(component_stats));
        }
    }

    const std::string campaign = runCampaign(
        request, kSweepSchemaV1, experimentJobs(requests), "job",
        [](JsonValue &event, const SweepJobReport &report) {
            event.set("key", report.key);
            event.set("job_hash", report.hash);
        });

    JsonValue end = JsonValue::object();
    end.set("event", "sweep-end");
    end.set("sweep_hash", campaign);
    end.set("stats", statsJson());
    emitEvent(std::move(end));
}

void
ServeSession::handleScenario(const JsonValue &request)
{
    if (!request.has("tenants"))
        throw ServeError("scenario request needs field 'tenants'");
    std::vector<std::uint64_t> counts;
    const JsonValue &tenants = request.at("tenants");
    if (tenants.isArray()) {
        for (const JsonValue &element : tenants.elements())
            counts.push_back(countValue(element, "tenants", kUnsignedMax));
    } else {
        counts.push_back(countValue(tenants, "tenants", kUnsignedMax));
    }
    if (counts.empty())
        throw ServeError("field 'tenants' must not be empty");

    std::string scheme = request.has("scheme")
                             ? stringField(request, "scheme")
                             : std::string("POM-TLB");
    const SchemeRegistry::Info *info =
        SchemeRegistry::global().find(scheme);
    if (info == nullptr)
        throw ServeError("unknown scheme '" + scheme + "'");
    scheme = info->name;

    std::vector<std::string> benchmarks{"mcf"};
    if (request.has("tenant_benchmarks"))
        benchmarks = axisField(request, "tenant_benchmarks",
                               ProfileRegistry::names());
    for (const std::string &name : benchmarks) {
        if (ProfileRegistry::find(name) == nullptr)
            throw ServeError("unknown benchmark '" + name + "'");
    }

    const ExperimentConfig config = configFromRequest(request);
    const std::string base_name =
        request.has("name") ? stringField(request, "name")
                            : std::string("consolidation");

    std::vector<ScenarioSpec> specs;
    for (const std::uint64_t count : counts) {
        ScenarioSpec spec;
        spec.name = base_name + "-" + std::to_string(count) + "t";
        spec.scheme = scheme;
        spec.system = config.system;
        spec.engine = config.engine;
        spec.tenantCount = static_cast<unsigned>(count);
        spec.tenantBenchmarks = benchmarks;
        spec.churnIntervalRefs =
            countField(request, "churn_interval_refs", 0);
        spec.residentPerCore = static_cast<unsigned>(
            countField(request, "resident_per_core", 4, kUnsignedMax));
        if (request.has("overcommit_factor")) {
            spec.overcommitFactor =
                request.at("overcommit_factor").asNumber();
        }
        spec.migrationPagesPerArrival =
            countField(request, "migration_pages_per_arrival", 0);
        spec.storm.intervalRefs =
            countField(request, "storm_interval_refs", 0);
        spec.storm.pagesPerBurst = static_cast<unsigned>(
            countField(request, "storm_pages_per_burst", 8, kUnsignedMax));
        spec.timeSliceRefs = countField(request, "time_slice_refs", 0);
        specs.push_back(std::move(spec));
    }

    const std::string campaign = runCampaign(
        request, kScenarioSchemaV1, scenarioJobs(specs),
        "scenario-job",
        [&](JsonValue &event, const SweepJobReport &report) {
            event.set("name", specs[report.index].name);
            event.set("scenario_hash", report.hash);
        });

    JsonValue end = JsonValue::object();
    end.set("event", "scenario-end");
    end.set("campaign_hash", campaign);
    end.set("stats", statsJson());
    emitEvent(std::move(end));
}

/**
 * Run @p jobs as one campaign for @p request: this session's cache,
 * the request's `jobs` override, and a journal named after the
 * campaign hash. Streams one @p job_event per job, whose identity
 * members @p identify adds, and returns the campaign hash.
 */
std::string
ServeSession::runCampaign(
    const JsonValue &request, const char *schema,
    const std::vector<CampaignJob> &jobs, const char *job_event,
    const std::function<void(JsonValue &, const SweepJobReport &)>
        &identify)
{
    SweepServiceOptions options;
    options.cacheDir = serveOptions.cacheDir;
    options.jobs = static_cast<unsigned>(
        countField(request, "jobs", serveOptions.jobs, kUnsignedMax));

    std::vector<std::string> hashes;
    for (const CampaignJob &job : jobs)
        hashes.push_back(job.hash);
    const std::string campaign = sweepHash(hashes);
    if (!serveOptions.journalDir.empty()) {
        std::error_code error;
        std::filesystem::create_directories(serveOptions.journalDir,
                                            error);
        options.journalPath =
            (std::filesystem::path(serveOptions.journalDir) /
             (campaign + ".jsonl"))
                .string();
    }

    SweepService service(options);
    service.run(schema, jobs,
                [&](const SweepJobReport &report, const JsonValue &run) {
                    JsonValue event = JsonValue::object();
                    event.set("event", job_event);
                    event.set("index", std::uint64_t(report.index));
                    event.set("jobs", std::uint64_t(jobs.size()));
                    identify(event, report);
                    event.set("source", jobSourceName(report.source));
                    event.set("wall_seconds", report.wallSeconds);
                    event.set("run", run);
                    emitEvent(std::move(event));
                });
    campaignStats = service.stats();
    return campaign;
}

void
ServeSession::handleRequest(const JsonValue &request)
{
    if (!request.isObject())
        throw ServeError("request must be a JSON object");
    const std::string op = stringField(request, "op");

    if (op == "ping") {
        JsonValue event = JsonValue::object();
        event.set("event", "pong");
        emitEvent(std::move(event));
    } else if (op == "list") {
        JsonValue event = JsonValue::object();
        event.set("event", "catalog");
        JsonValue benchmarks = JsonValue::array();
        for (const std::string &name : ProfileRegistry::names())
            benchmarks.push(name);
        event.set("benchmarks", std::move(benchmarks));
        JsonValue schemes = JsonValue::array();
        for (const std::string &name :
             SchemeRegistry::global().names())
            schemes.push(name);
        event.set("schemes", std::move(schemes));
        emitEvent(std::move(event));
    } else if (op == "sweep" || op == "run") {
        handleSweep(request);
    } else if (op == "scenario") {
        handleScenario(request);
    } else if (op == "stats") {
        JsonValue event = JsonValue::object();
        event.set("event", "stats");
        event.set("stats", statsJson());
        emitEvent(std::move(event));
    } else if (op == "shutdown") {
        JsonValue event = JsonValue::object();
        event.set("event", "bye");
        emitEvent(std::move(event));
        shuttingDown = true;
    } else {
        throw ServeError("unknown op '" + op + "'");
    }
}

std::size_t
ServeSession::runToCompletion()
{
    JsonValue ready = JsonValue::object();
    ready.set("event", "ready");
    ready.set("jobs", std::uint64_t(serveOptions.jobs));
    ready.set("cache_dir", serveOptions.cacheDir);
    emitEvent(std::move(ready));

    std::size_t handled = 0;
    std::string line;
    while (!shuttingDown && std::getline(input, line)) {
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        ++handled;
        try {
            handleRequest(JsonValue::parse(line));
        } catch (const std::exception &error) {
            JsonValue event = JsonValue::object();
            event.set("event", "error");
            event.set("message", std::string(error.what()));
            emitEvent(std::move(event));
        }
    }
    return handled;
}

} // namespace pomtlb
