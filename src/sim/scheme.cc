#include "sim/scheme.hh"

namespace pomtlb
{

const char *
servicePointName(ServicePoint point)
{
    switch (point) {
      case ServicePoint::SramL1:
        return "sram_l1_tlb";
      case ServicePoint::SramL2:
        return "sram_l2_tlb";
      case ServicePoint::CacheL2D:
        return "pom_l2d_cache";
      case ServicePoint::CacheL3D:
        return "pom_l3d_cache";
      case ServicePoint::PomDram:
        return "pom_dram";
      case ServicePoint::SharedTlb:
        return "shared_l2_tlb";
      case ServicePoint::TsbBuffer:
        return "tsb_buffer";
      case ServicePoint::PageWalk:
        return "page_walk";
      case ServicePoint::CoalescedTlb:
        return "coalesced_tlb";
      case ServicePoint::VictimaL2D:
        return "victima_l2d_cache";
      case ServicePoint::VictimaL3D:
        return "victima_l3d_cache";
    }
    return "?";
}

const std::vector<ServicePoint> &
allServicePoints()
{
    static const std::vector<ServicePoint> points = {
        ServicePoint::SramL1,       ServicePoint::SramL2,
        ServicePoint::CacheL2D,     ServicePoint::CacheL3D,
        ServicePoint::PomDram,      ServicePoint::SharedTlb,
        ServicePoint::TsbBuffer,    ServicePoint::PageWalk,
        ServicePoint::CoalescedTlb, ServicePoint::VictimaL2D,
        ServicePoint::VictimaL3D};
    return points;
}

std::optional<ServicePoint>
servicePointFromName(const std::string &name)
{
    for (ServicePoint point : allServicePoints()) {
        if (name == servicePointName(point))
            return point;
    }
    return std::nullopt;
}

TranslationScheme::TranslationScheme()
{
    // The whole ledger resets at the warmup boundary, exported or not.
    statGroup.addResettable(&misses);
    for (std::size_t point = 0; point < pointCount; ++point) {
        statGroup.addResettable(&served[point]);
        statGroup.addResettable(&cycles[point]);
    }
    statGroup.addResettable(&missCycles);
    statGroup.addResettable(&missCycleHist);
}

void
TranslationScheme::exportMissCount(const std::string &stat)
{
    statGroup.addCounter(stat, misses);
}

void
TranslationScheme::exportServedCount(const std::string &stat,
                                     ServicePoint point)
{
    statGroup.addCounter(stat, served[static_cast<std::size_t>(point)]);
}

void
TranslationScheme::exportServedCycles(const std::string &stat,
                                      ServicePoint point)
{
    statGroup.addCounter(stat, cycles[static_cast<std::size_t>(point)]);
    breakdownPoints.push_back(point);
}

void
TranslationScheme::exportMissCycles(const std::string &mean_stat,
                                    const std::string &histogram_stat)
{
    statGroup.addAverage(mean_stat, missCycles);
    statGroup.addHistogram(histogram_stat, missCycleHist);
}

std::vector<std::pair<ServicePoint, std::uint64_t>>
TranslationScheme::cycleBreakdown() const
{
    std::vector<std::pair<ServicePoint, std::uint64_t>> breakdown;
    for (const ServicePoint point : breakdownPoints) {
        breakdown.emplace_back(
            point, cycles[static_cast<std::size_t>(point)].value());
    }
    return breakdown;
}

} // namespace pomtlb
