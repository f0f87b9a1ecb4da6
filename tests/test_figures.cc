/**
 * @file
 * The paper's tables as one campaign (sim/figures.hh): the entry
 * list, the campaign's deduplication, the analytical Figure 4, and
 * how a failing verdict reports itself. The verdicts themselves run
 * at full and half length under the `paper` ctest label.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "sim/figures.hh"

namespace pomtlb
{
namespace
{

TEST(Figures, EntriesAreTheEighteenTablesInPrintOrder)
{
    std::string ids;
    for (const FigureEntry &entry : figureEntries())
        ids += (findFigure(entry.id) == &entry ? " " : " !") + entry.id;
    EXPECT_EQ(ids, " table2 fig2 fig3 fig4 fig8 fig8-breakdown fig9 "
                   "fig10 fig11 fig12 sens-capacity sens-cores "
                   "abl-associativity abl-predictors abl-shootdown "
                   "abl-extensions abl-l4-cache abl-native");
    EXPECT_EQ(findFigure("nosuch"), nullptr);
}

TEST(Figures, OneCampaignRunsEachSharedCellOnce)
{
    // Most tables reuse Figure 8's Baseline and POM-TLB cells, and
    // fig8-breakdown repeats all of Figure 8: 562 requests at the
    // default configuration are 226 distinct jobs.
    const ExperimentConfig base = defaultExperimentConfig();
    std::size_t requests = 0;
    std::set<std::string> jobs;
    for (const FigureEntry &entry : figureEntries()) {
        for (const ExperimentRequest &request : entry.requests(base)) {
            ++requests;
            jobs.insert(jobHash(request));
        }
    }
    EXPECT_EQ(requests, 562u);
    EXPECT_EQ(jobs.size(), 226u);
}

TEST(Figures, SramLatencyIsAPlainFunctionOfTheModel)
{
    const FigureEntry &fig4 = *findFigure("fig4");
    EXPECT_TRUE(fig4.requests(ExperimentConfig{}).empty());
    std::ostringstream out;
    EXPECT_EQ(printFigure(out, fig4, fig4.reduce(ExperimentConfig{}, {})),
              0u);
    // Integer cycles, eleven capacities, no average row.
    EXPECT_NE(out.str().find("\n16KB      0.69         1.00        3 "),
              std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("\n16MB "), std::string::npos);
    EXPECT_EQ(out.str().find("average"), std::string::npos);
}

/**
 * Synthetic Figure 8 runs: every scheme costs 1000 translation
 * cycles except Shared_L2 (700), TSB (900) and POM-TLB (500), which
 * costs more than Baseline on @p loser.
 */
std::vector<SchemeRunSummary>
syntheticFig8Runs(const FigureEntry &fig8, const std::string &loser)
{
    std::vector<SchemeRunSummary> runs;
    for (const ExperimentRequest &request :
         fig8.requests(defaultExperimentConfig())) {
        SchemeRunSummary summary;
        summary.benchmark = request.benchmark;
        summary.scheme = request.scheme;
        summary.translationCycles =
            request.scheme == "POM-TLB"
                ? (request.benchmark == loser ? 1100 : 500)
            : request.scheme == "Shared_L2" ? 700
            : request.scheme == "TSB"       ? 900
                                            : 1000;
        runs.push_back(summary);
    }
    return runs;
}

TEST(Figures, Fig8VerdictFailsAndNamesTheWorkloadPomTlbLoses)
{
    const FigureEntry &fig8 = *findFigure("fig8");
    const ExperimentConfig base = defaultExperimentConfig();
    std::ostringstream good;
    EXPECT_EQ(printFigure(good, fig8,
                          fig8.reduce(base, syntheticFig8Runs(fig8, ""))),
              0u);

    // One failed verdict, which makes `pomtlb figures` exit 1; its
    // line names the one workload that fails.
    std::ostringstream bad;
    EXPECT_EQ(printFigure(bad, fig8,
                          fig8.reduce(base,
                                      syntheticFig8Runs(fig8, "soplex"))),
              1u);
    const std::string line = "verdict FAIL [fig8] POM-TLB improves "
                             "every workload (improvement > 0%): "
                             "fails on soplex (-";
    const std::size_t at = bad.str().find(line);
    ASSERT_NE(at, std::string::npos) << bad.str();
    EXPECT_GT(bad.str().find(',', at), bad.str().find('\n', at))
        << "the failing line names soplex only";
}

} // namespace
} // namespace pomtlb
