/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**).
 *
 * Every stochastic component of the simulator (trace generators,
 * random replacement, page allocation jitter) draws from an Rng seeded
 * explicitly, so any experiment is reproducible bit-for-bit. We avoid
 * std::mt19937 both for speed and because libstdc++ makes no
 * cross-version reproducibility promise for distributions.
 */

#ifndef POMTLB_COMMON_RNG_HH
#define POMTLB_COMMON_RNG_HH

#include <cmath>
#include <cstdint>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace pomtlb
{

/**
 * xoshiro256** generator with explicit splitmix64 seeding.
 * Satisfies enough of UniformRandomBitGenerator for our own helpers.
 */
class Rng
{
  public:
    /** Seed the four state words from one 64-bit seed via splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t x = seed;
        for (auto &word : state) {
            x += 0x9e3779b97f4a7c15ULL;
            word = mix64(x);
        }
        // xoshiro must not start from the all-zero state.
        if ((state[0] | state[1] | state[2] | state[3]) == 0)
            state[0] = 0x9e3779b97f4a7c15ULL;
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound) — bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        simAssert(bound != 0, "Rng::below(0) is undefined");
        // Lemire-style multiply-shift rejection-free mapping is fine
        // for simulation purposes (bias < 2^-64 * bound).
        const unsigned __int128 product =
            static_cast<unsigned __int128>(next()) * bound;
        return static_cast<std::uint64_t>(product >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    inRange(std::uint64_t lo, std::uint64_t hi)
    {
        simAssert(lo <= hi, "Rng::inRange with lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p probability of true. */
    bool
    chance(double probability)
    {
        if (probability <= 0.0)
            return false;
        if (probability >= 1.0)
            return true;
        return uniform() < probability;
    }

    /** Derive an independent child generator for a sub-stream. */
    Rng
    fork(std::uint64_t stream)
    {
        return Rng(mix64(next() ^ mix64(stream)));
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t value, int amount)
    {
        return (value << amount) | (value >> (64 - amount));
    }

    std::uint64_t state[4];
};

/**
 * Geometric-ish gaps: integers >= 1 with mean @p mean, drawn by the
 * inverse CDF of a geometric distribution and clamped to 100000. The
 * denominator of the inverse CDF depends only on the mean, so it is
 * computed once here rather than on every draw; the division is the
 * same, so every gap is bit-identical to the per-draw formula. A
 * mean of at most 1 always gives 1 and consumes no draw.
 */
class GeometricGap
{
  public:
    explicit GeometricGap(double mean)
        : unit(mean <= 1.0),
          denominator(unit ? 0.0 : std::log1p(-(1.0 / mean)))
    {
    }

    /** The next gap, drawn from @p rng. */
    std::uint64_t
    operator()(Rng &rng) const
    {
        if (unit)
            return 1;
        const double draw = std::log1p(-rng.uniform()) / denominator;
        const auto gap = static_cast<std::uint64_t>(draw) + 1;
        return gap > 100000 ? 100000 : gap;
    }

  private:
    bool unit;
    double denominator;
};

/**
 * Zipfian integer generator over [0, count) with skew @p theta.
 * Uses the Gray/Jim-Gray "quick and dirty" approximation from the YCSB
 * generator: constant-time draws after O(1) setup.
 */
class ZipfGenerator
{
  public:
    ZipfGenerator(std::uint64_t count, double theta)
        : items(count), skew(theta)
    {
        simAssert(count >= 1, "ZipfGenerator needs at least one item");
        simAssert(theta > 0.0 && theta < 1.0,
                  "ZipfGenerator theta must be in (0,1)");
        zetaN = zeta(items, skew);
        zeta2 = zeta(2, skew);
        alpha = 1.0 / (1.0 - skew);
        eta = (1.0 - std::pow(2.0 / static_cast<double>(items),
                              1.0 - skew)) /
              (1.0 - zeta2 / zetaN);
    }

    /** Draw the next item index (0 is the hottest item). */
    std::uint64_t
    next(Rng &rng) const
    {
        const double u = rng.uniform();
        const double uz = u * zetaN;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + std::pow(0.5, skew))
            return 1;
        const double fraction =
            std::pow(eta * u - eta + 1.0, alpha);
        auto index = static_cast<std::uint64_t>(
            static_cast<double>(items) * fraction);
        return index >= items ? items - 1 : index;
    }

  private:
    static double
    zeta(std::uint64_t n, double theta)
    {
        // Exact for small n; a standard integral approximation beyond,
        // which is plenty accurate for trace-generation purposes.
        constexpr std::uint64_t exactLimit = 10000;
        double sum = 0.0;
        const std::uint64_t limit = n < exactLimit ? n : exactLimit;
        for (std::uint64_t i = 1; i <= limit; ++i)
            sum += std::pow(1.0 / static_cast<double>(i), theta);
        if (n > exactLimit) {
            const double a = static_cast<double>(exactLimit);
            const double b = static_cast<double>(n);
            sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
                   (1.0 - theta);
        }
        return sum;
    }

    std::uint64_t items;
    double skew;
    double zetaN;
    double zeta2;
    double alpha;
    double eta;
};

} // namespace pomtlb

#endif // POMTLB_COMMON_RNG_HH
