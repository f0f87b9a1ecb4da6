/**
 * @file
 * The paper's tables and figures as one declarative, memoized
 * campaign.
 *
 * Each FigureEntry holds the runs one table needs, a reducer that
 * turns their summaries into the printed table, and the paper's
 * verdicts on that table with their tolerance bands. runFigures()
 * runs the union of the selected entries' runs as one SweepService
 * campaign, so a cell several tables share is simulated once and a
 * campaign with a cache directory costs nothing to rerun. Reducers
 * see only what a `pomtlb-sweep-v1` run entry holds, so a cold and a
 * warm campaign print the same bytes. `pomtlb figures` is the front
 * end; the `paper` ctest label runs it at full and half run length.
 */

#ifndef POMTLB_SIM_FIGURES_HH
#define POMTLB_SIM_FIGURES_HH

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/sweep_cache.hh"

namespace pomtlb
{

/** One row of a figure table: a name and one value per column. */
struct FigureRow
{
    std::string name;           /**< First cell: a workload, ... */
    std::vector<double> values; /**< One value per value column. */
};

/** A table's numbers before formatting; verdicts read them too. */
struct FigureTable
{
    /** Start a table with the given value-column headers. */
    explicit FigureTable(std::vector<std::string> value_columns);

    std::string rowHeader = "benchmark"; /**< First column header. */
    std::vector<std::string> columns;    /**< Value-column headers. */
    std::vector<FigureRow> rows;         /**< Rows in print order. */
    bool averageRow = true; /**< Print a closing "average" row. */
    /** Decimals of a value column, overriding the entry's. */
    std::map<std::string, int> columnPrecision;

    /** Append a row; @p values follow @c columns. */
    void add(std::string name, std::vector<double> values);
    /** The value of @p column in @p row (fatal if no such column). */
    double at(const FigureRow &row, const std::string &column) const;
    /** Arithmetic mean of @p column: the "average" row's cell. */
    double mean(const std::string &column) const;
};

/** The outcome of checking one verdict against a table. */
struct VerdictOutcome
{
    bool passed = false; /**< Whether the claim holds. */
    std::string detail;  /**< The deciding numbers; names failures. */
};

/** One of the paper's claims, checked against a reduced table. */
struct FigureVerdict
{
    std::string claim; /**< The claim with its tolerance band. */
    /** Decide the claim on a table. */
    std::function<VerdictOutcome(const FigureTable &)> check;
};

/** One table or figure of the evaluation. */
struct FigureEntry
{
    std::string id;          /**< `--only` selector ("fig8"). */
    std::string title;       /**< Banner name ("Figure 8"). */
    std::string description; /**< Banner description. */
    int precision = 2;       /**< Decimals of the printed values. */
    /** The runs the table needs at base configuration `base`. */
    std::function<std::vector<ExperimentRequest>(
        const ExperimentConfig &base)>
        requests;
    /** The table, from the summaries of requests(base) in order. */
    std::function<FigureTable(const ExperimentConfig &base,
                              const std::vector<SchemeRunSummary> &)>
        reduce;
    std::vector<FigureVerdict> verdicts; /**< Claims it pins. */
};

/** Every entry, in print order (Table 2 first, ablations last). */
const std::vector<FigureEntry> &figureEntries();

/** The entry called @p id, or nullptr when there is none. */
const FigureEntry *findFigure(const std::string &id);

/**
 * Print @p table under @p entry's banner, then one verdict line per
 * verdict. Returns the number of verdicts that failed.
 */
std::size_t printFigure(std::ostream &os, const FigureEntry &entry,
                        const FigureTable &table);

/** Accounting of one runFigures() call. */
struct FiguresReport
{
    SweepServiceStats campaign; /**< The campaign's job accounting. */
    std::size_t verdicts = 0;   /**< Verdicts checked. */
    std::size_t failed = 0;     /**< Verdicts that failed. */
};

/**
 * Run @p entries as one SweepService campaign at @p base, printing
 * each table and its verdict lines to @p out in @p entries order.
 * @p progress sees every job as the completed prefix grows.
 */
FiguresReport
runFigures(const std::vector<const FigureEntry *> &entries,
           const ExperimentConfig &base,
           const SweepServiceOptions &service, std::ostream &out,
           const SweepService::Emit &progress = SweepService::Emit());

} // namespace pomtlb

#endif // POMTLB_SIM_FIGURES_HH
