#include "sim/mmu.hh"

#include "sim/translation_trace.hh"

namespace pomtlb
{

Mmu::Mmu(const SystemConfig &config, CoreId core,
         TranslationScheme &scheme)
    : coreId(core), translationScheme(scheme),
      statGroup("mmu." + std::to_string(core))
{
    coreTlbs = std::make_unique<CoreTlbs>(
        config, core, !scheme.providesSecondLevel());
    statGroup.addCounter("translations", translations);
    statGroup.addCounter("l1_hits", l1Hits);
    statGroup.addCounter("l2_hits", l2Hits);
    statGroup.addCounter("last_level_misses", l2Misses);
    statGroup.addCounter("translation_cycles", translationCycles);
    statGroup.addCounter("sram_cycles", sramCycles);
    statGroup.addCounter("scheme_cycles", schemeCycles);
    statGroup.addAverage("avg_penalty_per_miss", missPenalty);
    statGroup.addHistogram("penalty_cycle_hist", penaltyCycleHist);
    statGroup.addChild(coreTlbs->l1SmallTlb().stats());
    statGroup.addChild(coreTlbs->l1LargeTlb().stats());
    if (coreTlbs->hasPrivateL2())
        statGroup.addChild(coreTlbs->l2Tlb().stats());
    statGroup.addDerived("penalty_p99_bucket", [this] {
        // Upper edge of the bucket containing the 99th percentile.
        const std::uint64_t total = penaltyHist.sampleCount();
        if (total == 0)
            return 0.0;
        std::uint64_t seen = 0;
        for (std::size_t b = 0; b < penaltyHist.bucketCount(); ++b) {
            seen += penaltyHist.bucket(b);
            if (seen * 100 >= total * 99) {
                return static_cast<double>((b + 1) *
                                           penaltyHist.width());
            }
        }
        return static_cast<double>(penaltyHist.maxValue());
    });
}

MmuResult
Mmu::translate(Addr vaddr, PageSize size, VmId vm, ProcessId pid,
               Cycles now)
{
    ++translations;
    MmuResult result;

    // Sampling decision first, so every translation advances the
    // tracer's 1-in-N counter whether or not this one is recorded.
    const bool traced = tracer != nullptr && tracer->shouldSample();

    const PageNum vpn = pageNumber(vaddr, size);
    const CoreTlbResult tlb = coreTlbs->lookup(vpn, size, vm, pid);
    result.cycles = tlb.cycles;
    result.level = tlb.level;

    if (tlb.level != TlbLevel::Miss) {
        if (tlb.level == TlbLevel::L1) {
            ++l1Hits;
            result.servedBy = ServicePoint::SramL1;
        } else {
            ++l2Hits;
            result.servedBy = ServicePoint::SramL2;
        }
        result.hpa = (tlb.pfn << pageShift(size)) |
                     pageOffset(vaddr, size);
        translationCycles.increment(result.cycles);
        sramCycles.increment(result.cycles);
        if (traced) {
            TranslationEvent event;
            event.seq = tracer->seenCount() - 1;
            event.core = coreId;
            event.vaddr = vaddr;
            event.size = size;
            event.vm = vm;
            event.pid = pid;
            event.start = now;
            event.cycles = result.cycles;
            event.sramCycles = result.cycles;
            event.tlbLevel = tlb.level;
            event.servedBy = result.servedBy;
            tracer->record(event);
        }
        return result;
    }

    ++l2Misses;
    const SchemeResult scheme = translationScheme.translateMiss(
        coreId, vaddr, size, vm, pid, now + result.cycles);
    result.cycles += scheme.cycles;
    result.hpa =
        (scheme.pfn << pageShift(size)) | pageOffset(vaddr, size);
    result.walked = scheme.walked;
    result.servedBy = scheme.servedBy;

    coreTlbs->insert(vpn, size, vm, pid, scheme.pfn);

    translationCycles.increment(result.cycles);
    sramCycles.increment(tlb.cycles);
    schemeCycles.increment(scheme.cycles);
    missPenalty.sample(static_cast<double>(scheme.cycles));
    penaltyHist.sample(scheme.cycles);
    penaltyCycleHist.sample(scheme.cycles);
    if (traced) {
        TranslationEvent event;
        event.seq = tracer->seenCount() - 1;
        event.core = coreId;
        event.vaddr = vaddr;
        event.size = size;
        event.vm = vm;
        event.pid = pid;
        event.start = now;
        event.cycles = result.cycles;
        event.sramCycles = tlb.cycles;
        event.schemeCycles = scheme.cycles;
        event.tlbLevel = TlbLevel::Miss;
        event.servedBy = scheme.servedBy;
        event.probes = scheme.probes;
        event.firstTryServed = scheme.firstTryServed;
        event.walked = scheme.walked;
        tracer->record(event);
    }
    return result;
}

void
Mmu::invalidateVm(VmId vm)
{
    coreTlbs->invalidateVm(vm);
}

void
Mmu::resetStats()
{
    translations.reset();
    l1Hits.reset();
    l2Hits.reset();
    l2Misses.reset();
    translationCycles.reset();
    sramCycles.reset();
    schemeCycles.reset();
    missPenalty.reset();
    penaltyHist.reset();
    penaltyCycleHist.reset();
    coreTlbs->resetStats();
}

} // namespace pomtlb
