/**
 * @file
 * Unit tests for the statistics framework.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/stats.hh"

namespace pomtlb
{
namespace
{

TEST(Counter, IncrementAndReset)
{
    Counter counter;
    EXPECT_EQ(counter.value(), 0u);
    ++counter;
    counter += 5;
    counter.increment(2);
    EXPECT_EQ(counter.value(), 8u);
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
}

TEST(Average, MeanOfSamples)
{
    Average avg;
    EXPECT_DOUBLE_EQ(avg.mean(), 0.0);
    avg.sample(2.0);
    avg.sample(4.0);
    avg.sample(6.0);
    EXPECT_DOUBLE_EQ(avg.mean(), 4.0);
    EXPECT_EQ(avg.sampleCount(), 3u);
    EXPECT_DOUBLE_EQ(avg.sum(), 12.0);
    avg.reset();
    EXPECT_DOUBLE_EQ(avg.mean(), 0.0);
    EXPECT_EQ(avg.sampleCount(), 0u);
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram hist(10, 5); // buckets [0,10) ... [40,50), overflow
    hist.sample(0);
    hist.sample(9);
    hist.sample(10);
    hist.sample(49);
    hist.sample(50);
    hist.sample(1000);
    EXPECT_EQ(hist.bucket(0), 2u);
    EXPECT_EQ(hist.bucket(1), 1u);
    EXPECT_EQ(hist.bucket(4), 1u);
    EXPECT_EQ(hist.overflow(), 2u);
    EXPECT_EQ(hist.sampleCount(), 6u);
    EXPECT_EQ(hist.maxValue(), 1000u);
    EXPECT_NEAR(hist.mean(), (0 + 9 + 10 + 49 + 50 + 1000) / 6.0, 1e-9);

    hist.reset();
    EXPECT_EQ(hist.sampleCount(), 0u);
    EXPECT_EQ(hist.overflow(), 0u);
}

TEST(Log2Histogram, ZeroHasItsOwnBucket)
{
    Log2Histogram hist;
    hist.sample(0);
    EXPECT_EQ(Log2Histogram::bucketIndex(0), 0u);
    EXPECT_EQ(hist.bucket(0), 1u);
    EXPECT_EQ(Log2Histogram::bucketLow(0), 0u);
    EXPECT_EQ(Log2Histogram::bucketHigh(0), 0u);
    EXPECT_EQ(hist.sampleCount(), 1u);
    EXPECT_EQ(hist.maxValue(), 0u);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(Log2Histogram, PowerOfTwoBoundaries)
{
    // Bucket b >= 1 holds [2^(b-1), 2^b - 1]: a power of two opens a
    // new bucket, the value below it closes the previous one.
    EXPECT_EQ(Log2Histogram::bucketIndex(1), 1u);
    EXPECT_EQ(Log2Histogram::bucketIndex(2), 2u);
    EXPECT_EQ(Log2Histogram::bucketIndex(3), 2u);
    EXPECT_EQ(Log2Histogram::bucketIndex(4), 3u);
    EXPECT_EQ(Log2Histogram::bucketIndex(255), 8u);
    EXPECT_EQ(Log2Histogram::bucketIndex(256), 9u);
    for (std::size_t b = 1; b < 64; ++b) {
        EXPECT_EQ(Log2Histogram::bucketIndex(
                      Log2Histogram::bucketLow(b)),
                  b);
        EXPECT_EQ(Log2Histogram::bucketIndex(
                      Log2Histogram::bucketHigh(b)),
                  b);
        EXPECT_EQ(Log2Histogram::bucketHigh(b) + 1,
                  Log2Histogram::bucketLow(b + 1));
    }
}

TEST(Log2Histogram, MaxUint64HasNoOverflow)
{
    // The top bucket holds [2^63, 2^64 - 1]; there is no overflow
    // bucket to lose samples to.
    const std::uint64_t max =
        std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(Log2Histogram::bucketIndex(max), 64u);
    EXPECT_EQ(Log2Histogram::bucketHigh(64), max);
    Log2Histogram hist;
    hist.sample(max);
    hist.sample(std::uint64_t{1} << 63);
    EXPECT_EQ(hist.bucket(64), 2u);
    EXPECT_EQ(hist.sampleCount(), 2u);
    EXPECT_EQ(hist.maxValue(), max);
}

TEST(Log2Histogram, PercentileUpperBound)
{
    Log2Histogram hist;
    EXPECT_EQ(hist.percentileUpperBound(99.0), 0u);
    for (int i = 0; i < 99; ++i)
        hist.sample(10); // bucket 4: [8, 15]
    hist.sample(1000); // bucket 10: [512, 1023]
    EXPECT_EQ(hist.percentileUpperBound(50.0), 15u);
    EXPECT_EQ(hist.percentileUpperBound(99.0), 15u);
    EXPECT_EQ(hist.percentileUpperBound(100.0), 1023u);
}

TEST(Log2Histogram, JsonShape)
{
    Log2Histogram hist;
    hist.sample(0);
    hist.sample(12);
    hist.sample(12);
    const JsonValue json = hist.toJson();
    EXPECT_EQ(json.at("kind").asString(), "log2_histogram");
    EXPECT_EQ(json.at("samples").asUint(), 3u);
    EXPECT_EQ(json.at("max").asUint(), 12u);
    const JsonValue &buckets = json.at("buckets");
    ASSERT_EQ(buckets.size(), 2u); // zero bucket + [8,15]
    EXPECT_EQ(buckets.at(std::size_t{0}).at("lo").asUint(), 0u);
    EXPECT_EQ(buckets.at(std::size_t{1}).at("lo").asUint(), 8u);
    EXPECT_EQ(buckets.at(std::size_t{1}).at("hi").asUint(), 15u);
    EXPECT_EQ(buckets.at(std::size_t{1}).at("count").asUint(), 2u);

    // Round trip through text: the document parses back identical.
    EXPECT_EQ(JsonValue::parse(json.dump()), json);
}

TEST(Log2Histogram, ResetClearsEverything)
{
    Log2Histogram hist;
    hist.sample(77);
    hist.reset();
    EXPECT_EQ(hist.sampleCount(), 0u);
    EXPECT_EQ(hist.maxValue(), 0u);
    EXPECT_EQ(hist.bucket(Log2Histogram::bucketIndex(77)), 0u);
    EXPECT_EQ(hist.toJson().at("buckets").size(), 0u);
}

TEST(StatGroup, DumpContainsRegisteredStats)
{
    Counter hits;
    Average latency;
    StatGroup group("l1");
    group.addCounter("hits", hits);
    group.addAverage("latency", latency);
    group.addDerived("two", [] { return 2.0; });

    hits += 7;
    latency.sample(3.0);

    std::ostringstream oss;
    group.dump(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("l1.hits"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("l1.latency"), std::string::npos);
    EXPECT_NE(out.find("l1.two"), std::string::npos);
}

TEST(StatGroup, NestedChildren)
{
    Counter c;
    StatGroup parent("machine");
    StatGroup child("core0");
    child.addCounter("events", c);
    parent.addChild(child);
    c += 3;

    std::vector<std::pair<std::string, double>> flat;
    parent.collect(flat);
    ASSERT_EQ(flat.size(), 1u);
    EXPECT_EQ(flat[0].first, "machine.core0.events");
    EXPECT_DOUBLE_EQ(flat[0].second, 3.0);
}

TEST(StatGroup, JsonTreeMirrorsHierarchy)
{
    Counter hits;
    Log2Histogram lat;
    StatGroup parent("mmu");
    StatGroup child("l1tlb4k");
    parent.addCounter("hits", hits);
    parent.addHistogram("lat_hist", lat);
    parent.addChild(child);
    child.addCounter("hits", hits);
    hits += 2;
    lat.sample(5);

    const JsonValue json = parent.toJson();
    EXPECT_EQ(json.at("hits").asUint(), 2u);
    EXPECT_EQ(json.at("lat_hist").at("samples").asUint(), 1u);
    EXPECT_EQ(json.at("l1tlb4k").at("hits").asUint(), 2u);
    EXPECT_EQ(JsonValue::parse(json.dump()), json);
}

TEST(StatsRegistry, CollectsAndSerialisesEveryGroup)
{
    Counter a;
    Counter b;
    StatGroup first("alpha");
    StatGroup second("beta");
    first.addCounter("events", a);
    second.addCounter("events", b);
    a += 1;
    b += 2;

    StatsRegistry registry;
    registry.add(first);
    registry.add(second);
    EXPECT_EQ(registry.groupCount(), 2u);
    EXPECT_EQ(registry.topLevel()[0], &first);

    std::vector<std::pair<std::string, double>> flat;
    registry.collect(flat);
    ASSERT_EQ(flat.size(), 2u);
    EXPECT_EQ(flat[0].first, "alpha.events");
    EXPECT_EQ(flat[1].first, "beta.events");

    const JsonValue json = registry.toJson();
    EXPECT_EQ(json.at("alpha").at("events").asUint(), 1u);
    EXPECT_EQ(json.at("beta").at("events").asUint(), 2u);
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

} // namespace
} // namespace pomtlb
