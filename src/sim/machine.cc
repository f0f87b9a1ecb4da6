#include "sim/machine.hh"
#include <stdexcept>

#include "common/log.hh"
#include "sim/scheme_registry.hh"

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

Machine::Machine(const SystemConfig &config, const std::string &scheme)
    : systemConfig(config)
{
    systemConfig.dieStacked.coreFreqGhz = systemConfig.coreFreqGhz;
    systemConfig.mainMemory.coreFreqGhz = systemConfig.coreFreqGhz;
    systemConfig.validate();

    mainMem = std::make_unique<DramController>(systemConfig.mainMemory);
    dieStacked =
        std::make_unique<DramController>(systemConfig.dieStacked);

    MemoryMapConfig map_config;
    map_config.mode = systemConfig.mode;
    memMap = std::make_unique<MemoryMap>(map_config);

    if (systemConfig.dieStackedL4Cache) {
        // The HBM standard provides multiple channels (Section 2.2);
        // the L4 cache gets its own so it never contends with
        // POM-TLB traffic.
        DramConfig l4_config = systemConfig.dieStacked;
        l4_config.name = "die-stacked-l4";
        l4Channel = std::make_unique<DramController>(l4_config);
    }
    dataHierarchy = std::make_unique<DataHierarchy>(
        systemConfig, *mainMem, l4Channel.get());

    walkers.reserve(systemConfig.numCores);
    for (unsigned core = 0; core < systemConfig.numCores; ++core) {
        walkers.push_back(std::make_unique<PageWalker>(
            core, *memMap, *dataHierarchy, systemConfig.psc));
    }

    const SchemeRegistry::Info *info =
        SchemeRegistry::global().find(scheme);
    if (info == nullptr) {
        throw std::invalid_argument("unknown translation scheme '" +
                                    scheme + "'");
    }
    schemeKey = info->name;
    translationScheme = info->factory(systemConfig, *this);

    mmus.reserve(systemConfig.numCores);
    for (unsigned core = 0; core < systemConfig.numCores; ++core) {
        mmus.push_back(std::make_unique<Mmu>(systemConfig, core,
                                             *translationScheme));
    }

    // Attachment order is the export order; keep it stable so
    // documents and golden outputs stay diffable. Every group
    // attached here is owned by the machine, directly or through a
    // component.
    for (auto &mmu : mmus)
        statsRoot.addChild(mmu->stats());
    for (auto &walker : walkers)
        statsRoot.addChild(walker->stats());
    statsRoot.addChild(translationScheme->stats());
    for (unsigned core = 0; core < systemConfig.numCores; ++core) {
        statsRoot.addChild(dataHierarchy->l1d(core).stats());
        statsRoot.addChild(dataHierarchy->l2d(core).stats());
    }
    statsRoot.addChild(dataHierarchy->l3d().stats());
    statsRoot.addChild(dataHierarchy->stats());
    if (DramCache *l4 = dataHierarchy->l4Cache())
        statsRoot.addChild(l4->stats());
    statsRoot.addChild(mainMem->stats());
    statsRoot.addChild(dieStacked->stats());
    if (l4Channel)
        statsRoot.addChild(l4Channel->stats());
}

TranslationTracer &
Machine::enableTracing(std::size_t capacity,
                       std::uint64_t sample_interval)
{
    eventTracer =
        std::make_unique<TranslationTracer>(capacity, sample_interval);
    for (auto &mmu : mmus)
        mmu->setTracer(eventTracer.get());
    return *eventTracer;
}

PomTlb &
Machine::ensurePomTlbDevice()
{
    if (!pomTlb) {
        pomTlb = std::make_unique<PomTlb>(systemConfig.pomTlb,
                                          *dieStacked);
    }
    return *pomTlb;
}

PomTlbScheme *
Machine::pomTlbScheme()
{
    return dynamic_cast<PomTlbScheme *>(translationScheme.get());
}

void
Machine::shootdownVm(VmId vm)
{
    for (auto &mmu : mmus)
        mmu->invalidateVm(vm);
    for (auto &walker : walkers)
        walker->invalidateVm(vm);
    translationScheme->invalidateVm(vm);
}

void
Machine::shootdownPage(Addr vaddr, PageSize size, VmId vm,
                       ProcessId pid)
{
    const PageNum vpn = pageNumber(vaddr, size);
    for (auto &mmu : mmus)
        mmu->tlbs().invalidatePage(vpn, size, vm, pid);
    translationScheme->invalidatePage(vaddr, size, vm, pid);
}

void
Machine::resetStats()
{
    statsRoot.reset();
    if (eventTracer)
        eventTracer->reset();
}

} // namespace pomtlb
