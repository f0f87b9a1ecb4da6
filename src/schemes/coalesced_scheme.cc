#include "schemes/coalesced_scheme.hh"

#include <bit>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"

namespace pomtlb
{

CoalescedTlbScheme::CoalescedTlbScheme(
    const CoalescedTlbConfig &config, unsigned total_entries,
    std::vector<std::unique_ptr<PageWalker>> &walkers)
    : tlbConfig(config), pageWalkers(walkers)
{
    tlbConfig.validate();
    simAssert(total_entries >= tlbConfig.associativity,
              "coalesced: fewer entries than ways");
    sets = std::bit_floor<std::size_t>(total_entries /
                                       tlbConfig.associativity);
    entries.resize(sets * tlbConfig.associativity);

    statGroup.addCounter("hits", hits);
    statGroup.addCounter("walks", walks);
    statGroup.addCounter("merges", merges);
    statGroup.addCounter("splits", splits);
    statGroup.addCounter("coalesced_hit_cycles", coalescedHitCycles);
    statGroup.addCounter("walk_path_cycles", walkPathCycles);
    statGroup.addAverage("avg_miss_cycles", missCycles);
    statGroup.addDerived("coalesced_hit_rate",
                         [this] { return hitRate(); });
    statGroup.addDerived("avg_pages_per_entry",
                         [this] { return avgPagesPerEntry(); });
    statGroup.addHistogram("miss_cycle_hist", missCycleHist);
}

std::size_t
CoalescedTlbScheme::setIndex(PageNum base_vpn, PageSize size, VmId vm,
                             ProcessId pid) const
{
    const std::uint64_t key =
        (base_vpn << 3) ^ (static_cast<std::uint64_t>(vm) << 48) ^
        (static_cast<std::uint64_t>(pid) << 32) ^
        static_cast<std::uint64_t>(size);
    return mix64(key) & (sets - 1);
}

CoalescedTlbScheme::Entry *
CoalescedTlbScheme::findEntry(PageNum base_vpn, PageSize size,
                              VmId vm, ProcessId pid)
{
    const std::size_t set = setIndex(base_vpn, size, vm, pid);
    Entry *base = &entries[set * tlbConfig.associativity];
    for (unsigned way = 0; way < tlbConfig.associativity; ++way) {
        Entry &entry = base[way];
        if (entry.valid && entry.baseVpn == base_vpn &&
            entry.size == size && entry.vm == vm &&
            entry.pid == pid) {
            return &entry;
        }
    }
    return nullptr;
}

void
CoalescedTlbScheme::install(PageNum base_vpn, unsigned offset,
                            PageNum pfn, PageSize size, VmId vm,
                            ProcessId pid)
{
    const std::uint64_t bit = std::uint64_t{1} << offset;
    if (Entry *entry = findEntry(base_vpn, size, vm, pid)) {
        entry->stamp = ++tick;
        if (entry->basePfn + offset == pfn) {
            // The observed frame extends the run's contiguity.
            if (!(entry->present & bit)) {
                entry->present |= bit;
                ++merges;
            }
        } else {
            // Contiguity broke: re-anchor the run on the new frame
            // and drop everything merged under the old base.
            entry->basePfn = pfn - offset;
            entry->present = bit;
            ++splits;
        }
        return;
    }

    const std::size_t set = setIndex(base_vpn, size, vm, pid);
    Entry *base = &entries[set * tlbConfig.associativity];
    Entry *victim = base;
    for (unsigned way = 0; way < tlbConfig.associativity; ++way) {
        Entry &entry = base[way];
        if (!entry.valid) {
            victim = &entry;
            break;
        }
        if (entry.stamp < victim->stamp)
            victim = &entry;
    }
    victim->valid = true;
    victim->vm = vm;
    victim->pid = pid;
    victim->size = size;
    victim->baseVpn = base_vpn;
    victim->basePfn = pfn - offset;
    victim->present = bit;
    victim->stamp = ++tick;
}

SchemeResult
CoalescedTlbScheme::translateMiss(CoreId core, Addr vaddr,
                                  PageSize size, VmId vm,
                                  ProcessId pid, Cycles now)
{
    simAssert(core < pageWalkers.size(), "core id out of range");
    SchemeResult result;

    const PageNum vpn = pageNumber(vaddr, size);
    const PageNum base_vpn = vpn & ~PageNum{tlbConfig.rangePages - 1};
    const unsigned offset = static_cast<unsigned>(vpn - base_vpn);

    result.cycles += tlbConfig.accessLatency;
    Entry *entry = findEntry(base_vpn, size, vm, pid);
    if (entry && (entry->present & (std::uint64_t{1} << offset))) {
        entry->stamp = ++tick;
        result.pfn = entry->basePfn + offset;
        result.servedBy = ServicePoint::CoalescedTlb;
        result.probes = 1;
        ++hits;
        coalescedHitCycles += result.cycles;
        missCycles.sample(static_cast<double>(result.cycles));
        missCycleHist.sample(result.cycles);
        return result;
    }

    const WalkResult walk = pageWalkers[core]->walk(
        vaddr, vm, pid, size, now + result.cycles);
    result.cycles += walk.cycles;
    result.pfn = walk.hostPfn;
    result.walked = true;
    result.servedBy = ServicePoint::PageWalk;
    result.probes = 2;
    result.firstTryServed = false;
    ++walks;
    walkPathCycles += result.cycles;

    install(base_vpn, offset, walk.hostPfn, size, vm, pid);
    missCycles.sample(static_cast<double>(result.cycles));
    missCycleHist.sample(result.cycles);
    return result;
}

std::vector<std::pair<ServicePoint, std::uint64_t>>
CoalescedTlbScheme::cycleBreakdown() const
{
    return {{ServicePoint::CoalescedTlb, coalescedHitCycles.value()},
            {ServicePoint::PageWalk, walkPathCycles.value()}};
}

void
CoalescedTlbScheme::invalidatePage(Addr vaddr, PageSize size, VmId vm,
                                   ProcessId pid)
{
    const PageNum vpn = pageNumber(vaddr, size);
    const PageNum base_vpn = vpn & ~PageNum{tlbConfig.rangePages - 1};
    const unsigned offset = static_cast<unsigned>(vpn - base_vpn);
    if (Entry *entry = findEntry(base_vpn, size, vm, pid)) {
        entry->present &= ~(std::uint64_t{1} << offset);
        if (entry->present == 0)
            entry->valid = false;
    }
}

void
CoalescedTlbScheme::invalidateVm(VmId vm)
{
    for (Entry &entry : entries) {
        if (entry.valid && entry.vm == vm) {
            entry.valid = false;
            entry.present = 0;
        }
    }
    for (auto &walker : pageWalkers)
        walker->invalidateVm(vm);
}

double
CoalescedTlbScheme::hitRate() const
{
    const std::uint64_t total = hits.value() + walks.value();
    return total ? static_cast<double>(hits.value()) / total : 0.0;
}

double
CoalescedTlbScheme::avgPagesPerEntry() const
{
    std::uint64_t live = 0;
    std::uint64_t pages = 0;
    for (const Entry &entry : entries) {
        if (!entry.valid)
            continue;
        ++live;
        pages += static_cast<std::uint64_t>(
            std::popcount(entry.present));
    }
    return live ? static_cast<double>(pages) /
                      static_cast<double>(live)
                : 0.0;
}

POMTLB_REGISTER_SCHEME(registerCoalesced, {
    .name = "Coalesced",
    .description = "pooled second-level SRAM TLB with SVNAPOT/CoLT-"
                   "style coalesced entries covering contiguous runs",
    .aliases = {"coalesced", "coalesced-tlb"},
    .rank = 4,
    .factory = [](const SystemConfig &config, Machine &machine)
        -> std::unique_ptr<TranslationScheme> {
        // Pool the private L2 TLB entry budget, like Shared_L2; each
        // coalesced entry then stretches that budget over a run.
        const unsigned total = config.l2Tlb.entries * config.numCores;
        return std::make_unique<CoalescedTlbScheme>(
            config.coalesced, total, machine.walkerPool());
    },
});

} // namespace pomtlb
