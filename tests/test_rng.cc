/**
 * @file
 * Unit and statistical tests for the deterministic RNG and the Zipf
 * generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hh"

namespace pomtlb
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(1234);
    Rng b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_EQ(equal, 0);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(99);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, InRangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.inRange(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIsRoughlyUniform)
{
    Rng rng(42);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceFrequencyMatchesProbability)
{
    Rng rng(5);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, GeometricGapMeanApproximatesTarget)
{
    Rng rng(8);
    const double target = 6.0;
    const GeometricGap gaps(target);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t gap = gaps(rng);
        EXPECT_GE(gap, 1u);
        sum += static_cast<double>(gap);
    }
    EXPECT_NEAR(sum / n, target, 0.5);
}

TEST(Rng, GeometricGapDegenerateMean)
{
    Rng rng(8);
    Rng untouched(8);
    const GeometricGap gaps(1.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(gaps(rng), 1u);
    // A mean of at most 1 consumes no draw.
    EXPECT_EQ(rng.next(), untouched.next());
}

/** The per-draw formula GeometricGap precomputes the half of. */
std::uint64_t
referenceGap(Rng &rng, double mean)
{
    if (mean <= 1.0)
        return 1;
    const double u = rng.uniform();
    const double p = 1.0 / mean;
    const double draw = std::log1p(-u) / std::log1p(-p);
    const auto gap = static_cast<std::uint64_t>(draw) + 1;
    return gap > 100000 ? 100000 : gap;
}

TEST(Rng, GeometricGapIsBitIdenticalToThePerDrawFormula)
{
    // Means below and at 1, the generator's usual range, and one
    // large enough that the 100000 clamp fires.
    for (const double mean : {0.5, 1.0, 1.5, 4.0, 6.0, 1.0e6}) {
        SCOPED_TRACE(mean);
        Rng rng(17);
        Rng reference(17);
        const GeometricGap gaps(mean);
        std::uint64_t clamped = 0;
        std::uint64_t mismatches = 0;
        for (int i = 0; i < 1000000; ++i) {
            const std::uint64_t gap = gaps(rng);
            mismatches += gap != referenceGap(reference, mean) ? 1 : 0;
            clamped += gap == 100000 ? 1 : 0;
        }
        EXPECT_EQ(mismatches, 0u);
        EXPECT_EQ(rng.next(), reference.next());
        if (mean > 100000.0) {
            EXPECT_GT(clamped, 0u);
        }
    }
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(11);
    Rng child = parent.fork(1);
    Rng parent2(11);
    Rng child2 = parent2.fork(2);
    // Different stream ids should produce different sequences.
    EXPECT_NE(child.next(), child2.next());
}

TEST(Zipf, HeadIsHot)
{
    Rng rng(3);
    ZipfGenerator zipf(10000, 0.8);
    std::vector<std::uint64_t> counts(10000, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.next(rng)];
    // Item 0 must be the hottest by a wide margin over the median.
    EXPECT_GT(counts[0], counts[5000] * 10);
    // The head should carry a sizable fraction of the mass.
    std::uint64_t head = 0;
    for (int i = 0; i < 100; ++i)
        head += counts[i];
    EXPECT_GT(static_cast<double>(head) / n, 0.15);
}

TEST(Zipf, StaysInRange)
{
    Rng rng(4);
    ZipfGenerator zipf(37, 0.6);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.next(rng), 37u);
}

TEST(Zipf, SingleItem)
{
    Rng rng(4);
    ZipfGenerator zipf(1, 0.5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.next(rng), 0u);
}

} // namespace
} // namespace pomtlb
