/**
 * @file
 * Result-table formatter tests.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/report.hh"

namespace pomtlb
{
namespace
{

TEST(Report, AlignedTable)
{
    ResultTable table({"Benchmark", "Improvement (%)"});
    table.addRow({"mcf", ResultTable::num(17.5, 1)});
    table.addRow({"streamcluster", ResultTable::num(1.0, 1)});

    std::ostringstream oss;
    table.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("Benchmark"), std::string::npos);
    EXPECT_NE(out.find("mcf"), std::string::npos);
    EXPECT_NE(out.find("17.5"), std::string::npos);
    EXPECT_NE(out.find("streamcluster"), std::string::npos);
    // Separator line present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Report, NumFormatting)
{
    EXPECT_EQ(ResultTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(ResultTable::num(3.0, 0), "3");
    EXPECT_EQ(ResultTable::num(-1.5, 1), "-1.5");
}

TEST(Report, RowWidthMismatchPanics)
{
    ResultTable table({"a", "b"});
    EXPECT_THROW(table.addRow({"only-one"}), std::logic_error);
}

TEST(Report, ExperimentHeader)
{
    std::ostringstream oss;
    printExperimentHeader(oss, "Figure 8", "Performance Improvement");
    EXPECT_NE(oss.str().find("Figure 8"), std::string::npos);
    EXPECT_NE(oss.str().find("Performance Improvement"),
              std::string::npos);
}

TEST(Report, RowCount)
{
    ResultTable table({"x"});
    EXPECT_EQ(table.rowCount(), 0u);
    table.addRow({"1"});
    EXPECT_EQ(table.rowCount(), 1u);
}

} // namespace
} // namespace pomtlb
