/**
 * @file
 * A 4-level x86-style radix page table living in a simulated physical
 * address space.
 *
 * Two instances per VM dimension exist in a virtualized machine:
 * guest tables (one per process) map gVA -> gPA and their node frames
 * are themselves guest-physical; the host (EPT) table maps gPA -> hPA
 * and its frames are host-physical. The walker only needs the
 * *addresses* of the PTEs it reads — the table hands back the full
 * per-level read list for a walk.
 */

#ifndef POMTLB_PAGETABLE_RADIX_TABLE_HH
#define POMTLB_PAGETABLE_RADIX_TABLE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace pomtlb
{

/** Allocates page frames sequentially from a base address. */
class FrameAllocator
{
  public:
    /**
     * @param base  First byte this allocator may hand out.
     * @param limit One past the last byte (fatal on exhaustion).
     */
    FrameAllocator(Addr base, Addr limit);

    /** Allocate one naturally-aligned frame of @p size. */
    Addr allocate(PageSize size);

    /** Allocate one 4 KB frame for a page-table node. */
    Addr allocateTableNode();

    Addr bytesAllocated() const { return next - baseAddr; }

  private:
    Addr baseAddr;
    Addr next;
    Addr limit;
};

/** The per-level PTE reads a radix walk performs. */
struct RadixWalkPath
{
    /** Table-space addresses of the PTEs read, root first. */
    std::array<Addr, 4> pteAddr{};
    /** Page-table level of each read (4 = PML4 ... 1 = PT). */
    std::array<unsigned, 4> pteLevel{};
    /** Number of valid reads (4 for 4 KB leaves, 3 for 2 MB). */
    unsigned reads = 0;
    /** Whether a translation exists. */
    bool present = false;
    /** Leaf translation (valid when present). */
    PageNum pfn = 0;
    PageSize size = PageSize::Small4K;
};

/** A 4-level radix page table. */
class RadixPageTable
{
  public:
    /**
     * @param name      For diagnostics.
     * @param allocator Frame allocator for table nodes (must outlive
     *                  the table).
     */
    RadixPageTable(std::string name, FrameAllocator &allocator);

    /**
     * Install the translation vpn -> pfn at @p size, creating
     * intermediate nodes as needed. Remapping an existing page to a
     * new frame is allowed; changing a region's page size is not.
     */
    void map(PageNum vpn, PageSize size, PageNum pfn);

    /** Is the page containing @p vaddr mapped (at any size)? */
    bool isMapped(Addr vaddr) const;

    /**
     * Produce the PTE reads required to translate @p vaddr,
     * starting at @p first_level (4 normally; lower after a PSC hit).
     */
    RadixWalkPath walk(Addr vaddr, unsigned first_level = 4) const;

    /** Remove a translation; returns false if it was absent. */
    bool unmap(Addr vaddr);

    /** Table-space address of the root (CR3/EPTP analogue). */
    Addr rootAddr() const { return root->frame; }

    std::uint64_t mappedPageCount() const { return mappedPages; }
    std::uint64_t nodeCount() const { return nodes; }

  private:
    static constexpr unsigned entriesPerNode = 512;
    static constexpr unsigned entryBytes = 8;

    struct Node;

    /**
     * Table slots are packed into one 64-bit word each, so the walk
     * descent touches a single 8-byte slot per level (the previous
     * {state, pfn, unique_ptr} layout spread a node over three cache
     * lines' worth of slots per line — packing keeps the hot upper
     * levels resident). Encoding:
     *  - 0: not present;
     *  - low tag bits == slotChildTag: upper bits hold the child
     *    Node pointer (8-byte aligned, so the tag bits are free);
     *  - low tag bits == slotLeafTag: upper bits hold pfn << 2.
     */
    static constexpr std::uint64_t slotTagMask = 3;
    static constexpr std::uint64_t slotChildTag = 1;
    static constexpr std::uint64_t slotLeafTag = 2;

    static bool
    isChild(std::uint64_t slot)
    {
        return (slot & slotTagMask) == slotChildTag;
    }
    static bool
    isLeaf(std::uint64_t slot)
    {
        return (slot & slotTagMask) == slotLeafTag;
    }
    static Node *
    childOf(std::uint64_t slot)
    {
        return reinterpret_cast<Node *>(slot & ~slotTagMask);
    }
    static PageNum
    pfnOf(std::uint64_t slot)
    {
        return slot >> 2;
    }

    struct Node
    {
        explicit Node(Addr frame_addr) : frame(frame_addr) {}
        ~Node();
        Node(const Node &) = delete;
        Node &operator=(const Node &) = delete;

        Addr frame;
        std::array<std::uint64_t, entriesPerNode> slots{};
    };

    /** Index into the node at @p level for virtual address bits. */
    static unsigned levelIndex(Addr vaddr, unsigned level);

    std::string tableName;
    FrameAllocator &frames;
    std::unique_ptr<Node> root;
    std::uint64_t mappedPages = 0;
    std::uint64_t nodes = 0;
};

} // namespace pomtlb

#endif // POMTLB_PAGETABLE_RADIX_TABLE_HH
