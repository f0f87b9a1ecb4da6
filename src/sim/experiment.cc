#include "sim/experiment.hh"

#include "common/log.hh"
#include "sim/perf_model.hh"
#include "sim/sweep_cache.hh"

namespace pomtlb
{

SchemeRunSummary
runScheme(const BenchmarkProfile &profile, const std::string &scheme,
          const ExperimentConfig &config)
{
    return runExperiment(
               ExperimentRequest::of(profile.name, scheme, config))
        .summary;
}

namespace
{

/** Translation-cost ratio of a scheme run vs. the baseline run. */
double
costRatio(const SchemeRunSummary &scheme,
          const SchemeRunSummary &baseline)
{
    if (baseline.translationCycles == 0)
        return 1.0;
    return static_cast<double>(scheme.translationCycles) /
           static_cast<double>(baseline.translationCycles);
}

} // namespace

SchemeDelta
schemeDelta(const SchemeRunSummary &scheme,
            const SchemeRunSummary &baseline)
{
    SchemeDelta delta;
    delta.costRatio = costRatio(scheme, baseline);
    delta.improvementPct = PerfModel::improvementPct(
        ProfileRegistry::byName(baseline.benchmark), baseline.mode,
        delta.costRatio);
    return delta;
}

const SchemeRunSummary &
BenchmarkComparison::summary(const std::string &scheme) const
{
    for (const auto &entry : runs)
        if (entry.first == scheme)
            return entry.second;
    fatal("comparison for '", benchmark, "' has no ", scheme,
          " run");
}

const SchemeDelta &
BenchmarkComparison::delta(const std::string &scheme) const
{
    const auto it = deltas.find(scheme);
    if (it == deltas.end()) {
        fatal("comparison for '", benchmark, "' has no ", scheme,
              " delta");
    }
    return it->second;
}

BenchmarkComparison
compareSchemes(const BenchmarkProfile &profile,
               const ExperimentConfig &config, unsigned jobs)
{
    SweepServiceOptions options;
    options.jobs = jobs;
    const JsonValue document = SweepService(options).run(
        SweepSpec()
            .withBase(config)
            .withBenchmarks({profile.name})
            .withAllSchemes());

    BenchmarkComparison comparison;
    comparison.benchmark = profile.name;
    for (const JsonValue &entry : document.at("runs").elements()) {
        const ExperimentResult result =
            SweepResultWriter::entryFromJson(entry);
        comparison.runs.emplace_back(result.request.scheme,
                                     result.summary);
    }

    const SchemeRunSummary &baseline = comparison.baseline();
    for (const auto &[scheme, summary] : comparison.runs)
        comparison.deltas.emplace(scheme,
                                  schemeDelta(summary, baseline));
    return comparison;
}

} // namespace pomtlb
