/**
 * @file
 * The "Victima" contender (after Kanellopoulos et al., MICRO'23):
 * translations are stashed in ordinary L2/L3 *data-cache* blocks
 * instead of a dedicated structure, so TLB reach scales with the
 * cache hierarchy's capacity — an alternative to the paper's answer
 * of putting the capacity in die-stacked DRAM.
 *
 * The model reuses the hierarchy's POM-TLB line plumbing
 * (DataHierarchy::probeTlbLine / fillTlbLine / invalidateTlbLine):
 * each translation hashes to one 64-byte "translation block" address;
 * a block cached in the L2D/L3D serves at that cache's latency, and
 * a block absent from the hierarchy falls through to a page walk,
 * after which the block is (re)filled. Entry payloads live in a
 * shadow store indexed by block — the caches model *where* the block
 * is, the shadow models *what* is in it. The shadow is a lazily
 * backed zeroed array whose blocks are packed in the order they are
 * first written, plus a per-VM index of the blocks each VM has
 * entries in, so host memory and VM shootdowns cost what is
 * resident, not the block region's size.
 *
 * Registered with the scheme registry as "Victima"; constructed only
 * through SchemeRegistry (sim/scheme_registry.hh).
 */

#ifndef POMTLB_SCHEMES_VICTIMA_SCHEME_HH
#define POMTLB_SCHEMES_VICTIMA_SCHEME_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/hierarchy.hh"
#include "common/config.hh"
#include "common/vm_index.hh"
#include "common/zeroed_array.hh"
#include "pagetable/walker.hh"
#include "sim/scheme.hh"

namespace pomtlb
{

/** Translations installed into underutilized data-cache blocks. */
class VictimaScheme : public TranslationScheme
{
  public:
    /**
     * @param config    Victima geometry (block region + packing).
     * @param hierarchy The data-cache hierarchy translation blocks
     *                  live in.
     * @param walkers   Per-core walkers for block misses.
     */
    VictimaScheme(const VictimaConfig &config,
                  DataHierarchy &hierarchy,
                  std::vector<std::unique_ptr<PageWalker>> &walkers);

    // The per-VM index and the stats hold callbacks into the object.
    VictimaScheme(const VictimaScheme &) = delete;
    VictimaScheme &operator=(const VictimaScheme &) = delete;

    /**
     * Victima's translation store (the data caches) persists across
     * the warmup boundary, so prewarm installs the entry untimed.
     */
    void prewarm(CoreId core, Addr vaddr, PageSize size, VmId vm,
                 ProcessId pid, PageNum pfn) override;

    void invalidatePage(Addr vaddr, PageSize size, VmId vm,
                        ProcessId pid) override;
    void invalidateVm(VmId vm) override;

    /** Fraction of requests served from a cached block. */
    double cachedLineHitRate() const;

    /** One packed translation entry inside a block. */
    struct Slot
    {
        bool valid = false;
        VmId vm = 0;
        ProcessId pid = 0;
        PageSize size = PageSize::Small4K;
        PageNum vpn = 0;
        PageNum pfn = 0;
        std::uint64_t stamp = 0; /**< LRU stamp within the block. */
    };

    /** Translation blocks in the shadow store. */
    std::uint64_t blockCount() const { return numBlocks; }
    /** Slot @p index of block @p block (for inspection). */
    const Slot &slot(std::uint64_t block, unsigned index) const;
    /** Blocks listed per VM, with each VM's resident entries. */
    const VmSlotIndex &vmIndex() const { return vmBlocks; }
    /** Address naming block @p block in the data caches. */
    Addr blockAddress(std::uint64_t block) const;

  private:
    SchemeResult resolve(CoreId core, Addr vaddr, PageSize size,
                         VmId vm, ProcessId pid, Cycles now) override;
    /** Block a translation hashes to. */
    std::uint64_t blockOf(PageNum vpn, PageSize size, VmId vm,
                          ProcessId pid) const;
    /** The slots of block @p block; nullptr if never written. */
    Slot *
    blockSlots(std::uint64_t block)
    {
        const std::uint64_t position = poolPosition[block];
        return position == 0 ? nullptr
                             : &pool[(position - 1) * slotsPerBlock];
    }
    /** The slots of block @p block, placed in the pool if new. */
    Slot *writableBlock(std::uint64_t block);
    Slot *findSlot(Slot *block, PageNum vpn, PageSize size, VmId vm,
                   ProcessId pid);
    void installSlot(std::uint64_t block, PageNum vpn, PageSize size,
                     VmId vm, ProcessId pid, PageNum pfn);
    /** Does block @p block hold a valid entry of @p vm? */
    bool blockHoldsVm(std::uint64_t block, VmId vm) const;

    VictimaConfig victimaConfig;
    DataHierarchy &dataHierarchy;
    std::vector<std::unique_ptr<PageWalker>> &pageWalkers;
    std::uint64_t numBlocks;
    unsigned slotsPerBlock;
    /**
     * Per block, 1 + its position in the pool; 0 = never written.
     * Block indices are hashes, so placing blocks in first-write
     * order keeps the pool's touched pages proportional to the
     * blocks in use rather than spread over the whole region.
     */
    ZeroedArray<std::uint32_t> poolPosition;
    /** Slot payloads, slotsPerBlock per block, in first-write order. */
    ZeroedArray<Slot> pool;
    /** Blocks placed in the pool so far. */
    std::uint32_t poolBlocks = 0;
    VmSlotIndex vmBlocks;
    std::uint64_t tick = 0;
};

} // namespace pomtlb

#endif // POMTLB_SCHEMES_VICTIMA_SCHEME_HH
