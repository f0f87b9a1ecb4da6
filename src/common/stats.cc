#include "common/stats.hh"

#include <cmath>

#include "common/json.hh"
#include "common/log.hh"

namespace pomtlb
{

std::uint64_t
Log2Histogram::percentileUpperBound(double percent) const
{
    if (samples == 0)
        return 0;
    const double target =
        percent / 100.0 * static_cast<double>(samples);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < numBuckets; ++b) {
        seen += counts[b];
        if (static_cast<double>(seen) >= target && seen > 0)
            return bucketHigh(b);
    }
    return maxSeen;
}

JsonValue
Log2Histogram::toJson() const
{
    JsonValue object = JsonValue::object();
    object.set("kind", "log2_histogram");
    object.set("samples", samples);
    object.set("mean", mean());
    object.set("max", maxSeen);
    JsonValue buckets = JsonValue::array();
    for (std::size_t b = 0; b < numBuckets; ++b) {
        if (counts[b] == 0)
            continue;
        JsonValue bucket = JsonValue::object();
        bucket.set("lo", bucketLow(b));
        bucket.set("hi", bucketHigh(b));
        bucket.set("count", counts[b]);
        buckets.push(std::move(bucket));
    }
    object.set("buckets", std::move(buckets));
    return object;
}

StatGroup::StatGroup(std::string group_name)
    : groupName(std::move(group_name))
{
}

void
StatGroup::addCounter(const std::string &name, Counter &counter)
{
    const Counter *ptr = &counter;
    entries.push_back(
        {name, [ptr] { return static_cast<double>(ptr->value()); }});
    registered.emplace_back(&counter);
}

void
StatGroup::addAverage(const std::string &name, Average &average)
{
    const Average *ptr = &average;
    entries.push_back({name, [ptr] { return ptr->mean(); }});
    registered.emplace_back(&average);
}

void
StatGroup::addDerived(const std::string &name,
                      std::function<double()> compute,
                      std::initializer_list<Resettable> inputs)
{
    entries.push_back({name, std::move(compute)});
    registered.insert(registered.end(), inputs);
}

void
StatGroup::addResettable(Resettable stat)
{
    registered.push_back(stat);
}

void
StatGroup::addHistogram(const std::string &name,
                        Log2Histogram &histogram)
{
    histograms.emplace_back(name, &histogram);
    registered.emplace_back(&histogram);
}

void
StatGroup::addChild(StatGroup &child)
{
    children.push_back(&child);
}

void
StatGroup::reset()
{
    for (const Resettable &stat : registered)
        std::visit([](auto *s) { s->reset(); }, stat);
    for (StatGroup *child : children)
        child->reset();
}

void
StatGroup::collect(std::vector<std::pair<std::string, double>> &out,
                   const std::string &prefix) const
{
    const std::string full =
        prefix.empty() ? groupName : prefix + "." + groupName;
    for (const auto &entry : entries)
        out.emplace_back(full + "." + entry.name, entry.value());
    for (const auto &[name, hist] : histograms) {
        const std::string base = full + "." + name;
        out.emplace_back(base + ".samples",
                         static_cast<double>(hist->sampleCount()));
        out.emplace_back(base + ".mean", hist->mean());
        out.emplace_back(base + ".max",
                         static_cast<double>(hist->maxValue()));
    }
    for (const auto *child : children)
        child->collect(out, full);
}

JsonValue
StatGroup::toJson() const
{
    // JSON numbers are doubles, so a counter and a derived value
    // write through the same formatter.
    JsonValue object = JsonValue::object();
    for (const auto &entry : entries)
        object.set(entry.name, entry.value());
    for (const auto &[name, hist] : histograms)
        object.set(name, hist->toJson());
    for (const auto *child : children)
        object.set(child->name(), child->toJson());
    return object;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        simAssert(v > 0.0, "geomean requires positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace pomtlb
