#include "common/stats.hh"

#include <cmath>
#include <iomanip>
#include <ostream>

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
StatGroup::addCounter(const std::string &name, const Counter &counter)
{
    const Counter *ptr = &counter;
    entries.push_back({name,
                       [ptr] { return static_cast<double>(ptr->value()); },
                       true});
}

void
StatGroup::addAverage(const std::string &name, const Average &average)
{
    const Average *ptr = &average;
    entries.push_back({name, [ptr] { return ptr->mean(); }, false});
}

void
StatGroup::addDerived(const std::string &name,
                      std::function<double()> compute)
{
    entries.push_back({name, std::move(compute), false});
}

void
StatGroup::addHistogram(const std::string &name,
                        const Log2Histogram &histogram)
{
    histograms.emplace_back(name, &histogram);
}

void
StatGroup::addChild(const StatGroup &child)
{
    children.push_back(&child);
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    const std::string full =
        prefix.empty() ? groupName : prefix + "." + groupName;
    for (const auto &entry : entries) {
        os << std::left << std::setw(48) << (full + "." + entry.name)
           << " ";
        const double value = entry.value();
        if (entry.integral) {
            os << static_cast<std::uint64_t>(value);
        } else {
            os << std::fixed << std::setprecision(4) << value;
        }
        os << "\n";
    }
    for (const auto &[name, hist] : histograms) {
        const std::string base = full + "." + name;
        os << std::left << std::setw(48) << (base + ".samples") << " "
           << hist->sampleCount() << "\n";
        os << std::left << std::setw(48) << (base + ".mean") << " "
           << std::fixed << std::setprecision(4) << hist->mean()
           << "\n";
        os << std::left << std::setw(48) << (base + ".max") << " "
           << hist->maxValue() << "\n";
    }
    for (const auto *child : children)
        child->dump(os, full);
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
    JsonValue object = JsonValue::object();
    for (const auto &entry : entries) {
        const double value = entry.value();
        if (entry.integral) {
            object.set(entry.name,
                       static_cast<std::uint64_t>(value));
        } else {
            object.set(entry.name, value);
        }
    }
    for (const auto &[name, hist] : histograms)
        object.set(name, hist->toJson());
    for (const auto *child : children)
        object.set(child->name(), child->toJson());
    return object;
}

void
StatsRegistry::add(const StatGroup &group)
{
    groups.push_back(&group);
}

void
StatsRegistry::dump(std::ostream &os) const
{
    for (const auto *group : groups)
        group->dump(os);
}

void
StatsRegistry::collect(
    std::vector<std::pair<std::string, double>> &out) const
{
    for (const auto *group : groups)
        group->collect(out);
}

JsonValue
StatsRegistry::toJson() const
{
    JsonValue object = JsonValue::object();
    for (const auto *group : groups)
        object.set(group->name(), group->toJson());
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
