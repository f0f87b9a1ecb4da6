#include "sim/figures.hh"

#include <cmath>
#include <ostream>

#include "analysis/cacti.hh"
#include "analysis/report.hh"
#include "common/log.hh"
#include "sim/scheme_registry.hh"
#include "trace/generator.hh"

namespace pomtlb
{

FigureTable::FigureTable(std::vector<std::string> value_columns)
    : columns(std::move(value_columns))
{
}

void
FigureTable::add(std::string name, std::vector<double> values)
{
    simAssert(values.size() == columns.size(),
              "figure row width does not match its columns");
    rows.push_back({std::move(name), std::move(values)});
}

double
FigureTable::at(const FigureRow &row, const std::string &column) const
{
    for (std::size_t c = 0; c < columns.size(); ++c)
        if (columns[c] == column)
            return row.values[c];
    fatal("figure table has no column '", column, "'");
}

double
FigureTable::mean(const std::string &column) const
{
    // Summed in row order, exactly like the printed average row.
    double sum = 0.0;
    for (const FigureRow &row : rows)
        sum += at(row, column);
    return rows.empty() ? 0.0 : sum / rows.size();
}

namespace
{

using Summaries = std::vector<SchemeRunSummary>;
using Tweak = std::function<void(ExperimentConfig &)>;

/** Which side of its limit a checked value must fall on. */
enum class Bound { Above, AtLeast, Below, AtMost };

/**
 * Check @p metric against @p limit on every row. A pass reports the
 * row nearest the limit; a failure names every failing row.
 */
VerdictOutcome
checkEveryRow(const FigureTable &table,
              const std::function<double(const FigureRow &)> &metric,
              Bound bound, double limit, int precision)
{
    const bool lower = bound == Bound::Above || bound == Bound::AtLeast;
    std::string failures;
    std::string nearest = "no rows";
    double nearest_value = 0.0;
    for (const FigureRow &row : table.rows) {
        const double value = metric(row);
        const std::string number = ResultTable::num(value, precision);
        if (!(bound == Bound::Above     ? value > limit
              : bound == Bound::AtLeast ? value >= limit
              : bound == Bound::Below   ? value < limit
                                        : value <= limit))
            failures += (failures.empty() ? "" : ", ") + row.name +
                        " (" + number + ")";
        if (&row == &table.rows.front() ||
            (lower ? value < nearest_value : value > nearest_value)) {
            nearest = (lower ? "min " : "max ") + number + " (" +
                      row.name + ")";
            nearest_value = value;
        }
    }
    if (!failures.empty())
        return {false, "fails on " + failures};
    return {!table.rows.empty(), nearest};
}

/** Verdict: column @p column is within @p bound of @p limit. */
FigureVerdict
everyRow(std::string claim, std::string column, Bound bound,
         double limit, int precision)
{
    return {std::move(claim), [=](const FigureTable &table) {
                const auto value = [&](const FigureRow &row) {
                    return table.at(row, column);
                };
                return checkEveryRow(table, value, bound, limit,
                                     precision);
            }};
}

/** One run per workload: a scheme at the (tweaked) base config. */
struct Run
{
    std::string scheme;
    Tweak tweak = nullptr;
};

/** Adds one workload's rows from its runs' summaries. */
using Rows = std::function<void(FigureTable &, const BenchmarkProfile &,
                                const ExperimentConfig &base,
                                const Summaries &)>;

/** A table whose rows come workload by workload, from @p runs. */
FigureEntry
perWorkload(std::string id, std::string title, std::string description,
            int precision, std::vector<std::string> workloads,
            std::vector<std::string> columns, std::vector<Run> runs,
            Rows rows, std::vector<FigureVerdict> verdicts = {})
{
    FigureEntry entry{std::move(id), std::move(title),
                      std::move(description), precision, nullptr,
                      nullptr, std::move(verdicts)};
    entry.requests = [=](const ExperimentConfig &base) {
        std::vector<ExperimentRequest> requests;
        for (const std::string &workload : workloads) {
            for (const Run &run : runs) {
                ExperimentConfig config = base;
                if (run.tweak)
                    run.tweak(config);
                requests.push_back(
                    ExperimentRequest::of(workload, run.scheme, config));
            }
        }
        return requests;
    };
    entry.reduce = [=](const ExperimentConfig &base,
                       const Summaries &summaries) {
        simAssert(summaries.size() == workloads.size() * runs.size(),
                  "figure reduced with the wrong number of runs");
        FigureTable table(columns);
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            const auto first = summaries.begin() + w * runs.size();
            rows(table, ProfileRegistry::byName(workloads[w]), base,
                 Summaries(first, first + runs.size()));
        }
        return table;
    };
    return entry;
}

Tweak
mode(ExecMode value)
{
    return [value](ExperimentConfig &c) { c.system.mode = value; };
}

/**
 * A Baseline + POM-TLB pair per tweak: the tweak applies to both
 * machines, or with @p pom_only set to the POM-TLB machine only
 * (the baseline stays the base Table 1 machine).
 */
std::vector<Run>
pairs(const std::vector<Tweak> &tweaks, bool pom_only)
{
    std::vector<Run> runs;
    for (const Tweak &tweak : tweaks) {
        runs.push_back({"Baseline", pom_only ? nullptr : tweak});
        runs.push_back({"POM-TLB", tweak});
    }
    return runs;
}

/** Figure 8's improvement of each pairs() POM-TLB run, in %. */
std::vector<double>
pairImprovements(const Summaries &runs)
{
    std::vector<double> values;
    for (std::size_t i = 0; i + 1 < runs.size(); i += 2)
        values.push_back(
            schemeDelta(runs[i + 1], runs[i]).improvementPct);
    return values;
}

/**
 * The scheme-side service points a breakdown row reports, in stack
 * order. SramL1/SramL2 are one "sram_tlb" column: the MMU's exact
 * split reports their share together.
 */
const std::vector<ServicePoint> kBreakdownPoints = {
    ServicePoint::CacheL2D,   ServicePoint::CacheL3D,
    ServicePoint::PomDram,    ServicePoint::SharedTlb,
    ServicePoint::TsbBuffer,  ServicePoint::CoalescedTlb,
    ServicePoint::VictimaL2D, ServicePoint::VictimaL3D,
    ServicePoint::PageWalk};

/** Table 2's simulated large-page share of the mapped footprint. */
double
largePagePct(const BenchmarkProfile &profile,
             const ExperimentConfig &base)
{
    const TraceGenerator generator(profile, 0,
                                   base.engine.seed ^ base.system.seed);
    std::uint64_t large = 0;
    std::uint64_t regions = 0;
    for (Addr off = 0; off < generator.footprintSize();
         off += largePageBytes) {
        ++regions;
        if (generator.pageSizeOf(generator.footprintBase() + off) ==
            PageSize::Large2M)
            ++large;
    }
    return 100.0 * static_cast<double>(large) /
           static_cast<double>(regions);
}

/** Figure 4: a plain function of the CACTI model, with no runs. */
FigureEntry
sramLatencyFigure()
{
    FigureEntry entry{"fig4", "Figure 4",
                      "SRAM Access Latency vs Capacity (normalised to "
                      "16 KB)",
                      2, nullptr, nullptr, {}};
    entry.requests = [](const ExperimentConfig &) {
        return std::vector<ExperimentRequest>{};
    };
    entry.reduce = [](const ExperimentConfig &, const Summaries &) {
        FigureTable table({"access (ns)", "normalized", "cycles @4GHz"});
        table.rowHeader = "capacity";
        table.averageRow = false;
        table.columnPrecision["cycles @4GHz"] = 0;
        for (std::uint64_t kb = 16; kb <= 16384; kb *= 2) {
            const std::uint64_t bytes = kb * 1024;
            table.add(kb >= 1024 ? std::to_string(kb / 1024) + "MB"
                                 : std::to_string(kb) + "KB",
                      {SramLatencyModel::accessTimeNs(bytes),
                       SramLatencyModel::normalizedLatency(bytes),
                       static_cast<double>(
                           SramLatencyModel::accessCycles(bytes, 4.0))});
        }
        return table;
    };
    return entry;
}

std::vector<FigureEntry>
buildEntries()
{
    const std::vector<std::string> all = ProfileRegistry::names();
    const Tweak uncached = [](auto &c) {
        c.system.pomTlb.cacheable = false;
    };
    const auto capacity = [](std::uint64_t mb) -> Tweak {
        return [mb](auto &c) { c.system.pomTlb.capacityBytes = mb << 20; };
    };
    const auto cores = [](unsigned count) -> Tweak {
        return [count](ExperimentConfig &c) {
            c.system.numCores = count;
            // Keep total simulated work bounded at 32 cores.
            if (count == 32) {
                c.engine.refsPerCore /= 2;
                c.engine.warmupRefsPerCore /= 2;
            }
        };
    };
    // Associativity at 4 MB with caching off: a non-64 B set cannot
    // be cached as one line, and at this capacity set conflicts, not
    // sheer capacity, decide the outcome. Equation 1's low-bit
    // indexing means one contiguous footprint never self-collides;
    // the pressure comes from the rate-mode copies' staggered
    // address spaces competing for sets.
    const auto ways = [](unsigned count) -> Tweak {
        return [count](ExperimentConfig &c) {
            c.system.pomTlb.associativity = count;
            c.system.pomTlb.cacheable = false;
            c.system.pomTlb.capacityBytes = 4 << 20;
        };
    };
    const auto predictors = [](bool size, bool bypass) -> Tweak {
        return [size, bypass](ExperimentConfig &c) {
            c.system.pomTlb.sizePredictor = size;
            c.system.pomTlb.bypassPredictor = bypass;
        };
    };
    const auto shootdowns = [](std::uint64_t n) -> Tweak {
        return [n](auto &c) { c.engine.shootdownIntervalRefs = n; };
    };
    const auto extensions = [](bool tlb_aware, bool prefetch,
                               bool unified) -> Tweak {
        return [=](ExperimentConfig &c) {
            c.system.tlbAwareCaching = tlb_aware;
            c.system.pomTlb.prefetchNextSet = prefetch;
            c.system.pomTlb.unifiedOrganization = unified;
        };
    };
    const auto penaltyRow = [](auto &table, auto &profile, auto &,
                               auto &runs) {
        std::vector<double> values;
        for (const SchemeRunSummary &run : runs)
            values.push_back(run.avgPenaltyPerMiss);
        table.add(profile.name, std::move(values));
    };
    // Registry rank order: Baseline, POM-TLB, then the contenders.
    std::vector<Run> schemes;
    std::vector<std::string> fig8_columns;
    for (const std::string &scheme : SchemeRegistry::global().names()) {
        schemes.push_back({scheme});
        if (scheme != "Baseline")
            fig8_columns.push_back(scheme + " (%)");
    }
    fig8_columns.push_back("pom_cost_ratio");
    std::vector<std::string> breakdown_columns = {"sram_tlb %"};
    for (const ServicePoint point : kBreakdownPoints)
        breakdown_columns.push_back(servicePointName(point) +
                                    std::string(" %"));

    std::vector<FigureEntry> entries;
    // The measured columns are the paper's constants (the workload
    // models' calibration targets); the simulated ones audit the
    // models against them.
    entries.push_back(perWorkload(
        "table2", "Table 2",
        "Benchmark Characteristics Related to TLB Misses", 1, all,
        {"ovh native % (paper)", "ovh virtual % (paper)",
         "cyc/miss virt (paper)", "cyc/miss virt (sim)",
         "large pages % (paper)", "large pages % (sim)",
         "L2TLB MPKI (sim)"},
        {{"Baseline"}},
        [](auto &table, auto &profile, auto &base, auto &runs) {
            const RunTotals &totals = runs[0].run.totals();
            table.add(profile.name,
                      {profile.overheadNativePct,
                       profile.overheadVirtualPct,
                       profile.cyclesPerMissVirtual,
                       runs[0].avgPenaltyPerMiss,
                       profile.fracLargePagesPct,
                       largePagePct(profile, base),
                       1000.0 *
                           static_cast<double>(totals.lastLevelMisses) /
                           static_cast<double>(totals.instructions)});
        }));
    entries.push_back(perWorkload(
        "fig2", "Figure 2",
        "Average Translation Cycles per L2 TLB Miss (virtualized "
        "baseline)",
        1, all, {"simulated cycles/miss", "paper (Table 2)"},
        {{"Baseline", mode(ExecMode::Virtualized)}},
        [](auto &table, auto &profile, auto &, auto &runs) {
            table.add(profile.name, {runs[0].avgPenaltyPerMiss,
                                     profile.cyclesPerMissVirtual});
        }));
    entries.push_back(perWorkload(
        "fig3", "Figure 3",
        "Ratio of Virtualized to Native Translation Costs", 2, all,
        {"virt cycles/miss", "native cycles/miss", "ratio",
         "paper ratio"},
        {{"Baseline", mode(ExecMode::Virtualized)},
         {"Baseline", mode(ExecMode::Native)}},
        [](auto &table, auto &profile, auto &, auto &runs) {
            const double virt = runs[0].avgPenaltyPerMiss;
            const double native = runs[1].avgPenaltyPerMiss;
            table.add(profile.name,
                      {virt, native, native > 0.0 ? virt / native : 0.0,
                       profile.cyclesPerMissNative > 0.0
                           ? profile.cyclesPerMissVirtual /
                                 profile.cyclesPerMissNative
                           : 0.0});
        }));
    entries.push_back(sramLatencyFigure());
    // Eqs. 2-5 with the measured Table 2 overheads and the simulated
    // cost ratios, one column per registered contender.
    entries.push_back(perWorkload(
        "fig8", "Figure 8",
        "Performance Improvement of POM-TLB (8 core), % over the "
        "measured baseline",
        2, all, fig8_columns, schemes,
        [](auto &table, auto &profile, auto &, auto &runs) {
            std::vector<double> values;
            for (std::size_t i = 1; i < runs.size(); ++i)
                values.push_back(
                    schemeDelta(runs[i], runs[0]).improvementPct);
            values.push_back(schemeDelta(runs[1], runs[0]).costRatio);
            table.add(profile.name, std::move(values));
        },
        {everyRow("POM-TLB improves every workload (improvement > 0%)",
                  "POM-TLB (%)", Bound::Above, 0.0, 2),
         {"on average POM-TLB > Shared_L2 > TSB",
          [](const FigureTable &table) {
              const double pom = table.mean("POM-TLB (%)");
              const double shared = table.mean("Shared_L2 (%)");
              const double tsb = table.mean("TSB (%)");
              return VerdictOutcome{
                  pom > shared && shared > tsb,
                  "means " + ResultTable::num(pom) + ", " +
                      ResultTable::num(shared) + ", " +
                      ResultTable::num(tsb)};
          }}}));
    // Each cell is a percentage of that run's translation cycles.
    entries.push_back(perWorkload(
        "fig8-breakdown", "Figure 8 (cycle breakdown)",
        "Translation-cycle share per serving level, % of each run's "
        "total translation cycles",
        1, all, breakdown_columns, schemes,
        [](auto &table, auto &profile, auto &, auto &runs) {
            for (const SchemeRunSummary &run : runs) {
                const double total =
                    run.translationCycles
                        ? static_cast<double>(run.translationCycles)
                        : 1.0;
                std::vector<double> values = {100.0 * run.sramCycles /
                                              total};
                for (const ServicePoint point : kBreakdownPoints) {
                    double cycles = 0.0;
                    for (const auto &[at, value] : run.cycleBreakdown)
                        if (at == point)
                            cycles = static_cast<double>(value);
                    values.push_back(100.0 * cycles / total);
                }
                table.add(profile.name + "/" + run.scheme,
                          std::move(values));
            }
        }));
    entries.push_back(perWorkload(
        "fig9", "Figure 9",
        "Hit Ratio of POM-TLB Requests by Serving Level (8 core)", 3,
        all,
        {"L2D$ hit", "L3D$ hit (of rest)", "POM-TLB hit (of rest)",
         "walk fraction"},
        {{"POM-TLB"}},
        [](auto &table, auto &profile, auto &, auto &runs) {
            table.add(profile.name, {runs[0].pomL2CacheServiceRate,
                                     runs[0].pomL3CacheServiceRate,
                                     runs[0].pomDramServiceRate,
                                     runs[0].walkFraction});
        },
        {everyRow("POM-TLB removes >= 99% of page walks (walk fraction "
                  "<= 0.01)",
                  "walk fraction", Bound::AtMost, 0.01, 3)}));
    entries.push_back(perWorkload(
        "fig10", "Figure 10", "Predictor Accuracy (8 core)", 3, all,
        {"size predictor", "bypass predictor"}, {{"POM-TLB"}},
        [](auto &table, auto &profile, auto &, auto &runs) {
            table.add(profile.name, {runs[0].sizePredictorAccuracy,
                                     runs[0].bypassPredictorAccuracy});
        },
        {{"the size predictor is accurate (mean >= 0.94, every "
          "workload >= 0.90)",
          [](const FigureTable &table) {
              VerdictOutcome outcome =
                  everyRow("", "size predictor", Bound::AtLeast, 0.90, 3)
                      .check(table);
              const double mean = table.mean("size predictor");
              outcome.passed = outcome.passed && mean >= 0.94;
              outcome.detail = "mean " + ResultTable::num(mean, 3) +
                               ", " + outcome.detail;
              return outcome;
          }}}));
    entries.push_back(perWorkload(
        "fig11", "Figure 11",
        "Row Buffer Hits in the L3 TLB die-stacked DRAM (8 core)", 3,
        all, {"row-buffer hit rate", "POM DRAM share of requests"},
        {{"POM-TLB"}},
        [](auto &table, auto &profile, auto &, auto &runs) {
            table.add(profile.name,
                      {runs[0].dieStackedRowBufferHitRate,
                       (1.0 - runs[0].pomL2CacheServiceRate) *
                           (1.0 - runs[0].pomL3CacheServiceRate)});
        }));
    entries.push_back(perWorkload(
        "fig12", "Figure 12",
        "POM-TLB With and Without Data Caching (8 core)", 2, all,
        {"with data caching (%)", "without data caching (%)",
         "caching benefit (pp)"},
        pairs({nullptr, uncached}, true),
        [](auto &table, auto &profile, auto &, auto &runs) {
            std::vector<double> values = pairImprovements(runs);
            values.push_back(values[0] - values[1]);
            table.add(profile.name, std::move(values));
        }));
    entries.push_back(perWorkload(
        "sens-capacity", "Section 4.6 (capacity)",
        "POM-TLB improvement vs capacity: 8/16/32 MB", 2,
        {"mcf", "gups", "canneal", "streamcluster", "ccomponent"},
        {"8MB (%)", "16MB (%)", "32MB (%)", "max delta (pp)"},
        pairs({capacity(8), capacity(16), capacity(32)}, true),
        [](auto &table, auto &profile, auto &, auto &runs) {
            std::vector<double> values = pairImprovements(runs);
            values.push_back(std::abs(values[2] - values[0]));
            table.add(profile.name, std::move(values));
        },
        {everyRow("an 8-32 MB capacity change moves the improvement < "
                  "1 pp",
                  "max delta (pp)", Bound::Below, 1.0, 2)}));
    entries.push_back(perWorkload(
        "sens-cores", "Section 4.6 (cores)",
        "POM-TLB improvement vs core count: 4/8/32", 2,
        {"mcf", "gups", "astar", "canneal"},
        {"4 cores (%)", "8 cores (%)", "32 cores (%)"},
        pairs({cores(4), cores(8), cores(32)}, false),
        [](auto &table, auto &profile, auto &, auto &runs) {
            table.add(profile.name, pairImprovements(runs));
        }));
    entries.push_back(perWorkload(
        "abl-associativity", "Ablation (Section 2.1.1)",
        "POM-TLB conflict misses vs associativity (walk fraction, 4 "
        "MB)",
        4, {"mcf", "astar", "soplex", "GemsFDTD", "gcc"},
        {"1-way walk frac", "2-way walk frac", "4-way walk frac"},
        {{"POM-TLB", ways(1)}, {"POM-TLB", ways(2)},
         {"POM-TLB", ways(4)}},
        [](auto &table, auto &profile, auto &, auto &runs) {
            table.add(profile.name,
                      {runs[0].walkFraction, runs[1].walkFraction,
                       runs[2].walkFraction});
        }));
    // "both" is the paper's design: Figure 9's POM-TLB run.
    entries.push_back(perWorkload(
        "abl-predictors", "Ablation (Sections 2.1.4-2.1.5)",
        "Average miss penalty under predictor configurations", 1,
        {"mcf", "zeusmp", "gups", "soplex"},
        {"both (cyc/miss)", "no-bypass", "no-size", "neither"},
        {{"POM-TLB", predictors(true, true)},
         {"POM-TLB", predictors(true, false)},
         {"POM-TLB", predictors(false, true)},
         {"POM-TLB", predictors(false, false)}},
        penaltyRow));
    // A shootdown every N references (a page dropped machine-wide
    // plus an IPI/handler charge), as N shrinks.
    entries.push_back(perWorkload(
        "abl-shootdown", "Ablation (Section 2.2)",
        "POM-TLB miss penalty vs TLB-shootdown rate", 1,
        {"mcf", "canneal", "gups"},
        {"no shootdowns (cyc/miss)", "1 per 50k refs", "1 per 5k refs",
         "1 per 500 refs"},
        {{"POM-TLB", shootdowns(0)}, {"POM-TLB", shootdowns(50000)},
         {"POM-TLB", shootdowns(5000)}, {"POM-TLB", shootdowns(500)}},
        penaltyRow,
        {{"1 shootdown per 50k refs costs within 1% of none "
          "(|penalty change| <= 1%)",
          [](const FigureTable &table) {
              const auto change = [&](const FigureRow &row) {
                  return 100.0 * std::abs(row.values[1] / row.values[0] -
                                          1.0);
              };
              return checkEveryRow(table, change, Bound::AtMost, 1.0, 2);
          }}}));
    entries.push_back(perWorkload(
        "abl-extensions", "Ablation (Sections 5.1, 6, footnote 1)",
        "Average miss penalty with the paper's proposed extensions", 1,
        {"mcf", "lbm", "gups", "astar", "zeusmp", "canneal"},
        {"paper (cyc/miss)", "+tlb-aware", "+prefetch", "unified",
         "all"},
        {{"POM-TLB", extensions(false, false, false)},
         {"POM-TLB", extensions(true, false, false)},
         {"POM-TLB", extensions(false, true, false)},
         {"POM-TLB", extensions(false, false, true)},
         {"POM-TLB", extensions(true, true, false)}},
        penaltyRow));
    // Total simulated cycles on identical traces: an L4 data cache
    // changes data-path time too, which Eqs. 2-5 cannot project.
    entries.push_back(perWorkload(
        "abl-l4-cache", "Ablation (Section 2.2, stacked-DRAM use)",
        "16 MB of die-stacked DRAM: L4 data cache vs L3 TLB "
        "(total-cycle speedup over baseline)",
        2, {"mcf", "gups", "astar", "lbm", "canneal"},
        {"16MB as L4 data cache (%)", "16MB as POM-TLB (%)",
         "TLB advantage (pp)"},
        {{"Baseline"},
         {"Baseline", [](auto &c) { c.system.dieStackedL4Cache = true; }},
         {"POM-TLB"}},
        [](auto &table, auto &profile, auto &, auto &runs) {
            const auto cycles = [&](std::size_t i) {
                return static_cast<double>(runs[i].run.totals().cycles);
            };
            const double l4 = (cycles(0) / cycles(1) - 1.0) * 100.0;
            const double pom = (cycles(0) / cycles(2) - 1.0) * 100.0;
            table.add(profile.name, {l4, pom, pom - l4});
        },
        {everyRow("16 MB earns more as a TLB than as an L4 cache (TLB "
                  "advantage > 0 pp)",
                  "TLB advantage (pp)", Bound::Above, 0.0, 2)}));
    entries.push_back(perWorkload(
        "abl-native", "Ablation (Section 1, native mode)",
        "POM-TLB improvement under native vs virtualized execution", 2,
        all,
        {"native improvement (%)", "virtualized improvement (%)",
         "native cyc/miss (sim)", "native cyc/miss (paper)"},
        {{"Baseline", mode(ExecMode::Native)},
         {"Baseline", mode(ExecMode::Native)},
         {"POM-TLB", mode(ExecMode::Native)},
         {"Baseline"},
         {"POM-TLB"}},
        [](auto &table, auto &profile, auto &, auto &runs) {
            const Summaries improved(runs.begin() + 1, runs.end());
            std::vector<double> values = pairImprovements(improved);
            values.push_back(runs[0].avgPenaltyPerMiss);
            values.push_back(profile.cyclesPerMissNative);
            table.add(profile.name, std::move(values));
        }));
    return entries;
}

} // namespace

const std::vector<FigureEntry> &
figureEntries()
{
    static const std::vector<FigureEntry> entries = buildEntries();
    return entries;
}

const FigureEntry *
findFigure(const std::string &id)
{
    for (const FigureEntry &entry : figureEntries())
        if (entry.id == id)
            return &entry;
    return nullptr;
}

std::size_t
printFigure(std::ostream &os, const FigureEntry &entry,
            const FigureTable &table)
{
    printExperimentHeader(os, entry.title, entry.description);
    const auto cell = [&](double value, const std::string &column) {
        const auto it = table.columnPrecision.find(column);
        return ResultTable::num(value, it == table.columnPrecision.end()
                                           ? entry.precision
                                           : it->second);
    };
    std::vector<std::string> headers = {table.rowHeader};
    headers.insert(headers.end(), table.columns.begin(),
                   table.columns.end());
    ResultTable printed(headers);
    for (const FigureRow &row : table.rows) {
        std::vector<std::string> cells = {row.name};
        for (std::size_t c = 0; c < row.values.size(); ++c)
            cells.push_back(cell(row.values[c], table.columns[c]));
        printed.addRow(std::move(cells));
    }
    if (table.averageRow) {
        std::vector<std::string> cells = {"average"};
        for (const std::string &column : table.columns)
            cells.push_back(cell(table.mean(column), column));
        printed.addRow(std::move(cells));
    }
    printed.print(os);

    std::size_t failed = 0;
    if (!entry.verdicts.empty())
        os << "\n";
    for (const FigureVerdict &verdict : entry.verdicts) {
        const VerdictOutcome outcome = verdict.check(table);
        failed += outcome.passed ? 0 : 1;
        os << "verdict " << (outcome.passed ? "PASS" : "FAIL") << " ["
           << entry.id << "] " << verdict.claim << ": "
           << outcome.detail << "\n";
    }
    os.flush();
    return failed;
}

FiguresReport
runFigures(const std::vector<const FigureEntry *> &entries,
           const ExperimentConfig &base,
           const SweepServiceOptions &service, std::ostream &out,
           const SweepService::Emit &progress)
{
    std::vector<std::size_t> counts;
    std::vector<ExperimentRequest> requests;
    for (const FigureEntry *entry : entries) {
        const std::vector<ExperimentRequest> mine = entry->requests(base);
        counts.push_back(mine.size());
        requests.insert(requests.end(), mine.begin(), mine.end());
    }

    SweepService campaign(service);
    const JsonValue document = campaign.run(requests, progress);
    FiguresReport report;
    report.campaign = campaign.stats();
    std::size_t next = 0;
    for (std::size_t e = 0; e < entries.size(); ++e) {
        // Reducers see exactly what a cached entry holds, so a cold
        // and a warm campaign print the same bytes.
        Summaries summaries;
        for (std::size_t i = 0; i < counts[e]; ++i)
            summaries.push_back(SweepResultWriter::entryFromJson(
                                    document.at("runs").at(next++))
                                    .summary);
        report.verdicts += entries[e]->verdicts.size();
        report.failed += printFigure(
            out, *entries[e], entries[e]->reduce(base, summaries));
    }
    return report;
}

} // namespace pomtlb
