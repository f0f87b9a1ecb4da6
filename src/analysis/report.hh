/**
 * @file
 * Result-table formatting: the aligned console tables the CLI and
 * `pomtlb figures` (sim/figures.hh) print. Cells are separated by at
 * least two spaces and no cell contains two, which is how
 * scripts/plot_results.py splits a printed table back into cells.
 */

#ifndef POMTLB_ANALYSIS_REPORT_HH
#define POMTLB_ANALYSIS_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace pomtlb
{

/** A simple column-aligned table builder. */
class ResultTable
{
  public:
    explicit ResultTable(std::vector<std::string> column_headers);

    /** Append one row (must match the header count). */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format a double with @p precision decimals. */
    static std::string num(double value, int precision = 2);

    /** Print the aligned table. */
    void print(std::ostream &os) const;

    std::size_t rowCount() const { return rows.size(); }

  private:
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

/** Print a figure/table banner matching the experiment index. */
void printExperimentHeader(std::ostream &os, const std::string &id,
                           const std::string &description);

} // namespace pomtlb

#endif // POMTLB_ANALYSIS_REPORT_HH
