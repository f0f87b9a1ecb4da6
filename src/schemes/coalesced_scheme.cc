#include "schemes/coalesced_scheme.hh"

#include <bit>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"

namespace pomtlb
{

namespace
{

/** Power-of-two set count of a pool of @p total_entries. */
std::size_t
poolSets(const CoalescedTlbConfig &config, unsigned total_entries)
{
    config.validate();
    simAssert(total_entries >= config.associativity,
              "coalesced: fewer entries than ways");
    return std::bit_floor<std::size_t>(total_entries /
                                       config.associativity);
}

} // namespace

CoalescedTlbScheme::CoalescedTlbScheme(
    const CoalescedTlbConfig &config, unsigned total_entries,
    std::vector<std::unique_ptr<PageWalker>> &walkers)
    : tlbConfig(config),
      pageWalkers(walkers),
      sets(poolSets(config, total_entries)),
      entries(sets, config.associativity)
{
    exportServedCount("hits", ServicePoint::CoalescedTlb);
    exportServedCount("walks", ServicePoint::PageWalk);
    statGroup.addCounter("merges", merges);
    statGroup.addCounter("splits", splits);
    exportServedCycles("coalesced_hit_cycles",
                       ServicePoint::CoalescedTlb);
    exportServedCycles("walk_path_cycles", ServicePoint::PageWalk);
    exportMissCycles("avg_miss_cycles", "miss_cycle_hist");
    statGroup.addDerived("coalesced_hit_rate",
                         [this] { return hitRate(); });
    statGroup.addDerived("avg_pages_per_entry",
                         [this] { return avgPagesPerEntry(); });
}

std::uint64_t
CoalescedTlbScheme::digestOf(PageNum base_vpn, PageSize size, VmId vm,
                             ProcessId pid)
{
    return mix64((base_vpn << 3) ^
                 (static_cast<std::uint64_t>(vm) << 48) ^
                 (static_cast<std::uint64_t>(pid) << 32) ^
                 static_cast<std::uint64_t>(size));
}

CoalescedTlbScheme::Entries::Slot
CoalescedTlbScheme::find(PageNum base_vpn, PageSize size, VmId vm,
                         ProcessId pid) const
{
    const std::uint64_t digest = digestOf(base_vpn, size, vm, pid);
    return entries.find(
        digest & (sets - 1), digest | 1, [&](const Entry &entry) {
            return entry.baseVpn == base_vpn && entry.size == size &&
                   entry.vm == vm && entry.pid == pid;
        });
}

void
CoalescedTlbScheme::install(PageNum base_vpn, unsigned offset,
                            PageNum pfn, PageSize size, VmId vm,
                            ProcessId pid)
{
    const std::uint64_t bit = std::uint64_t{1} << offset;
    const Entries::Slot slot = find(base_vpn, size, vm, pid);
    if (slot != Entries::none) {
        Entry &entry = entries.payload(slot);
        entries.touch(slot);
        if (entry.basePfn + offset == pfn) {
            // The observed frame extends the run's contiguity.
            if (!(entry.present & bit)) {
                entry.present |= bit;
                ++merges;
            }
        } else {
            // Contiguity broke: re-anchor the run on the new frame
            // and drop everything merged under the old base.
            entry.basePfn = pfn - offset;
            entry.present = bit;
            ++splits;
        }
        return;
    }

    const std::uint64_t digest = digestOf(base_vpn, size, vm, pid);
    entries.install(entries.victim(digest & (sets - 1)), digest | 1) = {
        vm, pid, size, base_vpn, pfn - offset, bit};
}

SchemeResult
CoalescedTlbScheme::resolve(CoreId core, Addr vaddr, PageSize size,
                            VmId vm, ProcessId pid, Cycles now)
{
    simAssert(core < pageWalkers.size(), "core id out of range");
    SchemeResult result;

    const PageNum vpn = pageNumber(vaddr, size);
    const PageNum base_vpn = vpn & ~PageNum{tlbConfig.rangePages - 1};
    const unsigned offset = static_cast<unsigned>(vpn - base_vpn);

    result.cycles += tlbConfig.accessLatency;
    const Entries::Slot slot = find(base_vpn, size, vm, pid);
    if (slot != Entries::none &&
        (entries.payload(slot).present & (std::uint64_t{1} << offset))) {
        entries.touch(slot);
        result.pfn = entries.payload(slot).basePfn + offset;
        result.servedBy = ServicePoint::CoalescedTlb;
        result.probes = 1;
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

    install(base_vpn, offset, walk.hostPfn, size, vm, pid);
    return result;
}

void
CoalescedTlbScheme::invalidatePage(Addr vaddr, PageSize size, VmId vm,
                                   ProcessId pid)
{
    const PageNum vpn = pageNumber(vaddr, size);
    const PageNum base_vpn = vpn & ~PageNum{tlbConfig.rangePages - 1};
    const unsigned offset = static_cast<unsigned>(vpn - base_vpn);
    const Entries::Slot slot = find(base_vpn, size, vm, pid);
    if (slot == Entries::none)
        return;
    Entry &entry = entries.payload(slot);
    entry.present &= ~(std::uint64_t{1} << offset);
    if (entry.present == 0)
        entries.erase(slot);
}

void
CoalescedTlbScheme::invalidateVm(VmId vm)
{
    entries.eraseIf([vm](const Entry &entry) { return entry.vm == vm; });
}

double
CoalescedTlbScheme::hitRate() const
{
    const std::uint64_t total = missCount();
    const std::uint64_t hits = servedCount(ServicePoint::CoalescedTlb);
    return total ? static_cast<double>(hits) / total : 0.0;
}

double
CoalescedTlbScheme::avgPagesPerEntry() const
{
    std::uint64_t pages = 0;
    entries.forEach([&](const Entry &entry) {
        pages += static_cast<std::uint64_t>(
            std::popcount(entry.present));
    });
    return entries.size() ? static_cast<double>(pages) /
                                static_cast<double>(entries.size())
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
