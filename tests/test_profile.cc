/**
 * @file
 * Benchmark-profile registry tests: the fifteen workloads, Table 2
 * constants, and model-parameter sanity.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "trace/profile.hh"

namespace pomtlb
{
namespace
{

TEST(Profiles, FifteenWorkloadsInFigureOrder)
{
    const auto &all = ProfileRegistry::all();
    ASSERT_EQ(all.size(), 15u);
    EXPECT_EQ(all.front().name, "astar");
    EXPECT_EQ(all.back().name, "zeusmp");
}

TEST(Profiles, Table2ValuesMatchPaper)
{
    const BenchmarkProfile &mcf = ProfileRegistry::byName("mcf");
    EXPECT_DOUBLE_EQ(mcf.overheadNativePct, 10.32);
    EXPECT_DOUBLE_EQ(mcf.overheadVirtualPct, 19.01);
    EXPECT_DOUBLE_EQ(mcf.cyclesPerMissNative, 66);
    EXPECT_DOUBLE_EQ(mcf.cyclesPerMissVirtual, 169);
    EXPECT_DOUBLE_EQ(mcf.fracLargePagesPct, 60.7);

    const BenchmarkProfile &cc =
        ProfileRegistry::byName("ccomponent");
    EXPECT_DOUBLE_EQ(cc.cyclesPerMissVirtual, 1158);

    const BenchmarkProfile &sc =
        ProfileRegistry::byName("streamcluster");
    EXPECT_DOUBLE_EQ(sc.overheadVirtualPct, 2.11);
    EXPECT_DOUBLE_EQ(sc.fracLargePagesPct, 87.2);
}

TEST(Profiles, VirtualOverheadAtLeastNative)
{
    for (const auto &profile : ProfileRegistry::all()) {
        EXPECT_GE(profile.overheadVirtualPct,
                  profile.overheadNativePct)
            << profile.name;
        EXPECT_GE(profile.cyclesPerMissVirtual,
                  profile.cyclesPerMissNative)
            << profile.name;
    }
}

TEST(Profiles, ModelParametersAreSane)
{
    for (const auto &profile : ProfileRegistry::all()) {
        EXPECT_GE(profile.footprintBytes, Addr{16} << 20)
            << profile.name;
        EXPECT_GE(profile.runLength, 1.0) << profile.name;
        EXPECT_GE(profile.instGapMean, 1.0) << profile.name;
        EXPECT_GE(profile.writeFraction, 0.0) << profile.name;
        EXPECT_LE(profile.writeFraction, 1.0) << profile.name;
        EXPECT_GE(profile.largePageProbability(), 0.0)
            << profile.name;
        EXPECT_LE(profile.largePageProbability(), 1.0)
            << profile.name;
        EXPECT_GE(profile.conflictProbability, 0.0) << profile.name;
        EXPECT_LE(profile.hotProbability, 1.0) << profile.name;
    }
}

TEST(Profiles, WorkloadClassesMatchPaper)
{
    // Multithreaded: PARSEC and the graph/big-data workloads.
    EXPECT_TRUE(ProfileRegistry::byName("canneal").multithreaded);
    EXPECT_TRUE(ProfileRegistry::byName("streamcluster").multithreaded);
    EXPECT_TRUE(ProfileRegistry::byName("gups").multithreaded);
    EXPECT_TRUE(ProfileRegistry::byName("graph500").multithreaded);
    EXPECT_TRUE(ProfileRegistry::byName("pagerank").multithreaded);
    EXPECT_TRUE(ProfileRegistry::byName("ccomponent").multithreaded);
    // SPEC CPU runs in rate mode.
    EXPECT_FALSE(ProfileRegistry::byName("mcf").multithreaded);
    EXPECT_FALSE(ProfileRegistry::byName("astar").multithreaded);
    EXPECT_FALSE(ProfileRegistry::byName("lbm").multithreaded);
}

TEST(Profiles, PatternAssignments)
{
    EXPECT_EQ(ProfileRegistry::byName("gups").pattern,
              AccessPattern::UniformRandom);
    EXPECT_EQ(ProfileRegistry::byName("lbm").pattern,
              AccessPattern::Streaming);
    EXPECT_EQ(ProfileRegistry::byName("mcf").pattern,
              AccessPattern::PointerChase);
    EXPECT_EQ(ProfileRegistry::byName("gcc").pattern,
              AccessPattern::ZipfHotspot);
    EXPECT_EQ(ProfileRegistry::byName("soplex").pattern,
              AccessPattern::MixedPhases);
}

TEST(Profiles, UnknownNameIsFatal)
{
    EXPECT_THROW(ProfileRegistry::byName("nonexistent"), FatalError);
}

TEST(Profiles, NamesHelperMatchesRegistry)
{
    const auto names = ProfileRegistry::names();
    const auto &all = ProfileRegistry::all();
    ASSERT_EQ(names.size(), all.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(names[i], all[i].name);
}

TEST(Profiles, PatternNames)
{
    EXPECT_STREQ(accessPatternName(AccessPattern::UniformRandom),
                 "uniform-random");
    EXPECT_STREQ(accessPatternName(AccessPattern::Streaming),
                 "streaming");
    EXPECT_STREQ(accessPatternName(AccessPattern::PointerChase),
                 "pointer-chase");
}

} // namespace
} // namespace pomtlb
