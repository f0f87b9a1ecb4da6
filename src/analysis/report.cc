#include "analysis/report.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/log.hh"

namespace pomtlb
{

ResultTable::ResultTable(std::vector<std::string> column_headers)
    : headers(std::move(column_headers))
{
    simAssert(!headers.empty(), "result table needs columns");
}

void
ResultTable::addRow(std::vector<std::string> cells)
{
    simAssert(cells.size() == headers.size(),
              "row width does not match header count");
    rows.push_back(std::move(cells));
}

std::string
ResultTable::num(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return oss.str();
}

void
ResultTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        widths[c] = headers[c].size();
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto print_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            os << (c == 0 ? "" : "  ") << std::left
               << std::setw(static_cast<int>(widths[c])) << cells[c];
        }
        os << "\n";
    };

    print_row(headers);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c == 0 ? 0 : 2);
    os << std::string(total, '-') << "\n";
    for (const auto &row : rows)
        print_row(row);
}

void
printExperimentHeader(std::ostream &os, const std::string &id,
                      const std::string &description)
{
    os << "\n=== " << id << ": " << description << " ===\n";
}

} // namespace pomtlb
