/**
 * @file
 * The statistics framework behind the simulator's observability layer.
 *
 * Components own a StatGroup; they register named counters, averaged
 * samples, derived ratios, and log2-bucketed latency histograms
 * against it. Groups nest, and a Machine attaches every component's
 * group to one root group, so a full machine flattens (or
 * JSON-exports) a single hierarchical tree of statistics — the
 * `components` section of the versioned `pomtlb-stats-v1` document
 * (see docs/metrics.md for the full schema reference). Registration
 * is the only list of a component's statistics: resetting the root
 * at the warmup boundary zeroes everything registered anywhere in
 * the tree.
 *
 * Everything is plain uint64/double — no atomics, the simulator core
 * is single-threaded by design (sweep workers each own a whole
 * machine, and therefore a whole tree).
 */

#ifndef POMTLB_COMMON_STATS_HH
#define POMTLB_COMMON_STATS_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <variant>
#include <vector>

namespace pomtlb
{

class JsonValue;

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    /** Add @p amount to the count. */
    void increment(std::uint64_t amount = 1) { count += amount; }
    /** Zero the count. */
    void reset() { count = 0; }
    /** Current count. */
    std::uint64_t value() const { return count; }

    /** Pre-increment by one. */
    Counter &operator++() { ++count; return *this; }
    /** Add @p amount. */
    Counter &operator+=(std::uint64_t amount) { count += amount; return *this; }

  private:
    std::uint64_t count = 0;
};

/** An accumulating sample average (sum / sample count). */
class Average
{
  public:
    /** Record one sample. */
    void
    sample(double value)
    {
        total += value;
        ++samples;
    }

    /** Zero the accumulator. */
    void
    reset()
    {
        total = 0.0;
        samples = 0;
    }

    /** Mean of all samples (0 when empty). */
    double mean() const { return samples ? total / samples : 0.0; }
    /** Number of samples recorded. */
    std::uint64_t sampleCount() const { return samples; }
    /** Sum of all samples. */
    double sum() const { return total; }

  private:
    double total = 0.0;
    std::uint64_t samples = 0;
};

/**
 * A fixed-bucket histogram over [0, bucketWidth * bucketCount); samples
 * beyond the last bucket land in an overflow bucket.
 */
class Histogram
{
  public:
    /** @param width bucket width; @param buckets bucket count. */
    Histogram(std::uint64_t width, std::size_t buckets)
        : bucketWidth(width), counts(buckets + 1, 0)
    {
    }

    /** Record one sample. */
    void
    sample(std::uint64_t value)
    {
        std::size_t index = value / bucketWidth;
        if (index >= counts.size() - 1)
            index = counts.size() - 1;
        ++counts[index];
        total += value;
        ++samples;
        if (value > maxSeen)
            maxSeen = value;
    }

    /** Zero every bucket and accumulator. */
    void
    reset()
    {
        for (auto &c : counts)
            c = 0;
        total = 0;
        samples = 0;
        maxSeen = 0;
    }

    /** Number of regular (non-overflow) buckets. */
    std::uint64_t bucketCount() const { return counts.size() - 1; }
    /** Count in bucket @p index. */
    std::uint64_t bucket(std::size_t index) const { return counts[index]; }
    /** Count of samples beyond the last regular bucket. */
    std::uint64_t overflow() const { return counts.back(); }
    /** Number of samples recorded. */
    std::uint64_t sampleCount() const { return samples; }
    /** Largest sample seen. */
    std::uint64_t maxValue() const { return maxSeen; }
    /** Mean of all samples (0 when empty). */
    double mean() const
    {
        return samples ? static_cast<double>(total) / samples : 0.0;
    }
    /** Configured bucket width. */
    std::uint64_t width() const { return bucketWidth; }

  private:
    std::uint64_t bucketWidth;
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    std::uint64_t samples = 0;
    std::uint64_t maxSeen = 0;
};

/**
 * A log2-bucketed histogram covering the whole uint64 range with 65
 * buckets and no overflow bucket: bucket 0 holds exactly the value 0,
 * bucket b >= 1 holds [2^(b-1), 2^b - 1]. Sampling is one bit_width
 * plus two increments — cheap enough for translation-latency
 * distributions on the miss path.
 */
class Log2Histogram
{
  public:
    /** Bucket count: one zero bucket plus one per bit position. */
    static constexpr std::size_t numBuckets = 65;

    /** Bucket index @p value lands in (0 for 0, else bit_width). */
    static std::size_t
    bucketIndex(std::uint64_t value)
    {
        return static_cast<std::size_t>(std::bit_width(value));
    }

    /** Smallest value bucket @p index holds. */
    static std::uint64_t
    bucketLow(std::size_t index)
    {
        return index == 0 ? 0
                          : std::uint64_t{1} << (index - 1);
    }

    /** Largest value bucket @p index holds. */
    static std::uint64_t
    bucketHigh(std::size_t index)
    {
        if (index == 0)
            return 0;
        if (index >= 64)
            return ~std::uint64_t{0};
        return (std::uint64_t{1} << index) - 1;
    }

    /** Record one sample. */
    void
    sample(std::uint64_t value)
    {
        ++counts[bucketIndex(value)];
        total += static_cast<double>(value);
        ++samples;
        if (value > maxSeen)
            maxSeen = value;
    }

    /** Zero every bucket and accumulator. */
    void
    reset()
    {
        for (auto &c : counts)
            c = 0;
        total = 0.0;
        samples = 0;
        maxSeen = 0;
    }

    /** Count in bucket @p index. */
    std::uint64_t bucket(std::size_t index) const
    {
        return counts[index];
    }
    /** Number of samples recorded. */
    std::uint64_t sampleCount() const { return samples; }
    /** Largest sample seen. */
    std::uint64_t maxValue() const { return maxSeen; }
    /** Mean of all samples (0 when empty). */
    double mean() const { return samples ? total / samples : 0.0; }

    /**
     * Upper bound of the bucket containing the @p percent-th
     * percentile sample (0 when empty). @p percent in [0, 100].
     */
    std::uint64_t percentileUpperBound(double percent) const;

    /**
     * Serialise as a JSON object: kind, samples, mean, max, and the
     * non-empty buckets as {lo, hi, count} triples.
     */
    JsonValue toJson() const;

  private:
    std::uint64_t counts[numBuckets] = {};
    double total = 0.0;
    std::uint64_t samples = 0;
    std::uint64_t maxSeen = 0;
};

/**
 * A named collection of statistics belonging to one component.
 * Registration stores a name plus an accessor closure, and remembers
 * the statistic itself so reset() can zero it: what a component
 * registers is exactly what the warmup boundary resets. toJson()
 * renders the group tree as nested objects for the `pomtlb-stats-v1`
 * document, and collect() flattens it into dotted names.
 */
class StatGroup
{
  public:
    /** A statistic reset() zeroes: one of the kinds above. */
    using Resettable =
        std::variant<Counter *, Average *, Histogram *, Log2Histogram *>;

    /** @param group_name dotted-path segment this group contributes. */
    explicit StatGroup(std::string group_name);

    /** Non-copyable: registered closures capture component pointers. */
    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    /** Register a counter under @p name (the counter outlives us). */
    void addCounter(const std::string &name, Counter &counter);

    /** Register an averaged sample statistic. */
    void addAverage(const std::string &name, Average &average);

    /**
     * Register a derived value computed on demand at export time.
     * @p inputs lists the statistics it reads that are not exported
     * themselves, so reset() zeroes them too. A value over registered
     * counters needs none, and a gauge over component state (an
     * occupancy, a live entry count) has none: it does not reset.
     */
    void addDerived(const std::string &name,
                    std::function<double()> compute,
                    std::initializer_list<Resettable> inputs = {});

    /**
     * Register @p stat for reset() without exporting it: state a
     * component keeps for its own accessors and exports only in
     * part, or not at all.
     */
    void addResettable(Resettable stat);

    /** Register a log2 latency histogram (must outlive the group). */
    void addHistogram(const std::string &name, Log2Histogram &histogram);

    /** Attach @p child as a nested group (child must outlive us). */
    void addChild(StatGroup &child);

    /**
     * Zero every counter, average and histogram registered here
     * (derived inputs included), then reset every child.
     */
    void reset();

    /** Collect (flat-name, value) pairs for programmatic checks. */
    void collect(std::vector<std::pair<std::string, double>> &out,
                 const std::string &prefix = "") const;

    /**
     * Serialise this group (scalars, histograms, children) as one
     * JSON object; the caller keys it by name().
     */
    JsonValue toJson() const;

    /** The group's dotted-path segment. */
    const std::string &name() const { return groupName; }

  private:
    struct Entry
    {
        std::string name;
        std::function<double()> value;
    };

    std::string groupName;
    std::vector<Entry> entries;
    std::vector<std::pair<std::string, const Log2Histogram *>>
        histograms;
    std::vector<StatGroup *> children;
    /** Everything reset() zeroes, in registration order. */
    std::vector<Resettable> registered;
};

} // namespace pomtlb

#endif // POMTLB_COMMON_STATS_HH
