#include "schemes/victima_scheme.hh"

#include "common/bitutil.hh"
#include "common/log.hh"
#include "sim/machine.hh"
#include "sim/scheme_registry.hh"

namespace pomtlb
{

namespace
{
constexpr std::uint64_t kBlockBytes = 64;
} // namespace

VictimaScheme::VictimaScheme(
    const VictimaConfig &config, DataHierarchy &hierarchy,
    std::vector<std::unique_ptr<PageWalker>> &walkers)
    : victimaConfig(config),
      dataHierarchy(hierarchy),
      pageWalkers(walkers),
      numBlocks(config.regionBytes / kBlockBytes),
      slotsPerBlock(config.entriesPerBlock),
      vmBlocks([this](std::uint64_t block, VmId vm) {
          return blockHoldsVm(block, vm);
      })
{
    victimaConfig.validate();
    simAssert(numBlocks < (std::uint64_t{1} << 32),
              "victima: block region too large to index");
    poolPosition = ZeroedArray<std::uint32_t>(numBlocks);
    pool = ZeroedArray<Slot>(numBlocks * slotsPerBlock);
    exportMissCount("requests");
    exportServedCount("served_l2d_cache", ServicePoint::VictimaL2D);
    exportServedCount("served_l3d_cache", ServicePoint::VictimaL3D);
    exportServedCount("served_page_walk", ServicePoint::PageWalk);
    exportServedCycles("l2d_cache_cycles", ServicePoint::VictimaL2D);
    exportServedCycles("l3d_cache_cycles", ServicePoint::VictimaL3D);
    exportServedCycles("walk_path_cycles", ServicePoint::PageWalk);
    exportMissCycles("avg_miss_cycles", "miss_cycle_hist");
    statGroup.addDerived("cached_line_hit_rate",
                         [this] { return cachedLineHitRate(); });
}

std::uint64_t
VictimaScheme::blockOf(PageNum vpn, PageSize size, VmId vm,
                       ProcessId pid) const
{
    const std::uint64_t key =
        (vpn << 3) ^ (static_cast<std::uint64_t>(vm) << 48) ^
        (static_cast<std::uint64_t>(pid) << 32) ^
        static_cast<std::uint64_t>(size);
    return mix64(key) & (numBlocks - 1);
}

Addr
VictimaScheme::blockAddress(std::uint64_t block) const
{
    return victimaConfig.baseAddress + block * kBlockBytes;
}

const VictimaScheme::Slot &
VictimaScheme::slot(std::uint64_t block, unsigned index) const
{
    static const Slot unwritten;
    const std::uint64_t position = poolPosition[block];
    return position == 0
               ? unwritten
               : pool[(position - 1) * slotsPerBlock + index];
}

VictimaScheme::Slot *
VictimaScheme::writableBlock(std::uint64_t block)
{
    if (poolPosition[block] == 0)
        poolPosition[block] = ++poolBlocks;
    return blockSlots(block);
}

VictimaScheme::Slot *
VictimaScheme::findSlot(Slot *block, PageNum vpn, PageSize size,
                        VmId vm, ProcessId pid)
{
    for (unsigned i = 0; i < slotsPerBlock; ++i) {
        Slot &slot = block[i];
        if (slot.valid && slot.vpn == vpn && slot.size == size &&
            slot.vm == vm && slot.pid == pid) {
            return &slot;
        }
    }
    return nullptr;
}

bool
VictimaScheme::blockHoldsVm(std::uint64_t block, VmId vm) const
{
    for (unsigned i = 0; i < slotsPerBlock; ++i) {
        const Slot &entry = slot(block, i);
        if (entry.valid && entry.vm == vm)
            return true;
    }
    return false;
}

void
VictimaScheme::installSlot(std::uint64_t block, PageNum vpn,
                           PageSize size, VmId vm, ProcessId pid,
                           PageNum pfn)
{
    Slot *base = writableBlock(block);
    if (Slot *slot = findSlot(base, vpn, size, vm, pid)) {
        slot->pfn = pfn;
        slot->stamp = ++tick;
        return;
    }
    Slot *victim = base;
    for (unsigned i = 0; i < slotsPerBlock; ++i) {
        Slot &slot = base[i];
        if (!slot.valid) {
            victim = &slot;
            break;
        }
        if (slot.stamp < victim->stamp)
            victim = &slot;
    }
    const bool evicted = victim->valid;
    const VmId evicted_vm = victim->vm;
    victim->valid = true;
    victim->vm = vm;
    victim->pid = pid;
    victim->size = size;
    victim->vpn = vpn;
    victim->pfn = pfn;
    victim->stamp = ++tick;
    vmBlocks.installed(vm, block, evicted, evicted_vm);
}

SchemeResult
VictimaScheme::resolve(CoreId core, Addr vaddr, PageSize size, VmId vm,
                       ProcessId pid, Cycles now)
{
    simAssert(core < pageWalkers.size(), "core id out of range");
    SchemeResult result;

    const PageNum vpn = pageNumber(vaddr, size);
    const std::uint64_t block = blockOf(vpn, size, vm, pid);
    const Addr block_addr = blockAddress(block);
    const CacheProbeResult probe =
        dataHierarchy.probeTlbLine(core, block_addr, now);
    result.cycles += probe.latency;
    Slot *base = blockSlots(block);
    if (probe.hit && base != nullptr) {
        if (Slot *slot = findSlot(base, vpn, size, vm, pid)) {
            slot->stamp = ++tick;
            result.pfn = slot->pfn;
            result.probes = 1;
            result.servedBy = probe.level == MemLevel::L2D
                                  ? ServicePoint::VictimaL2D
                                  : ServicePoint::VictimaL3D;
            return result;
        }
    }

    const WalkResult walk = pageWalkers[core]->walk(
        vaddr, vm, pid, size, now + result.cycles);
    result.cycles += walk.cycles;
    result.pfn = walk.hostPfn;
    result.walked = true;
    result.servedBy = ServicePoint::PageWalk;
    result.probes = 2;
    result.firstTryServed = false;

    installSlot(block, vpn, size, vm, pid, walk.hostPfn);
    dataHierarchy.fillTlbLine(core, block_addr);
    return result;
}

void
VictimaScheme::prewarm(CoreId core, Addr vaddr, PageSize size,
                       VmId vm, ProcessId pid, PageNum pfn)
{
    const PageNum vpn = pageNumber(vaddr, size);
    const std::uint64_t block = blockOf(vpn, size, vm, pid);
    installSlot(block, vpn, size, vm, pid, pfn);
    dataHierarchy.fillTlbLine(core, blockAddress(block));
}

void
VictimaScheme::invalidatePage(Addr vaddr, PageSize size, VmId vm,
                              ProcessId pid)
{
    const PageNum vpn = pageNumber(vaddr, size);
    const std::uint64_t block = blockOf(vpn, size, vm, pid);
    Slot *base = blockSlots(block);
    // A block never written was never cached either.
    if (base == nullptr)
        return;
    if (Slot *slot = findSlot(base, vpn, size, vm, pid)) {
        slot->valid = false;
        vmBlocks.removed(vm);
    }
    // Drop the cached copy too: the block's payload changed.
    dataHierarchy.invalidateTlbLine(blockAddress(block));
}

void
VictimaScheme::invalidateVm(VmId vm)
{
    // Each listed block is a distinct cache line, so the order of the
    // invalidateTlbLine calls cannot change any cache state.
    for (const std::uint64_t block : vmBlocks.release(vm)) {
        Slot *base = blockSlots(block);
        bool touched = false;
        for (unsigned i = 0; i < slotsPerBlock; ++i) {
            if (base[i].valid && base[i].vm == vm) {
                base[i].valid = false;
                touched = true;
            }
        }
        if (touched)
            dataHierarchy.invalidateTlbLine(blockAddress(block));
    }
}

double
VictimaScheme::cachedLineHitRate() const
{
    const std::uint64_t served =
        servedCount(ServicePoint::VictimaL2D) +
        servedCount(ServicePoint::VictimaL3D);
    const std::uint64_t total = missCount();
    return total ? static_cast<double>(served) / total : 0.0;
}

POMTLB_REGISTER_SCHEME(registerVictima, {
    .name = "Victima",
    .description = "translations stashed in underutilized L2/L3 "
                   "data-cache blocks (Kanellopoulos et al.)",
    .aliases = {"victima"},
    .rank = 5,
    .factory = [](const SystemConfig &config, Machine &machine)
        -> std::unique_ptr<TranslationScheme> {
        return std::make_unique<VictimaScheme>(config.victima,
                                               machine.hierarchy(),
                                               machine.walkerPool());
    },
});

} // namespace pomtlb
