/**
 * @file
 * The in-DRAM POM-TLB entry array: two 4-way associative partitions
 * (4 KB and 2 MB pages) whose replacement state is the 2-bit LRU field
 * carried in each entry's attribute byte (Section 2.2, "Entry
 * Replacement") — fetched with the set in a single 64 B burst, so the
 * victim choice costs no extra DRAM access.
 *
 * The array holds the entries themselves; DRAM timing lives in the
 * PomTlb device that wraps it. Entries live in lazily backed zeroed
 * storage and a per-VM index lists the sets each VM has entries in,
 * so both host memory and VM shootdowns cost what is resident, not
 * the modelled capacity (docs/internals.md §3).
 */

#ifndef POMTLB_POMTLB_ARRAY_HH
#define POMTLB_POMTLB_ARRAY_HH

#include "common/stats.hh"
#include "common/types.hh"
#include "common/vm_index.hh"
#include "common/zeroed_array.hh"
#include "tlb/entry.hh"

namespace pomtlb
{

/** Result of an associative search of one POM-TLB set. */
struct PomTlbArrayResult
{
    bool hit = false;
    PageNum pfn = 0;
};

/** Entry storage for one partition of the POM-TLB. */
class PomTlbPartition
{
  public:
    PomTlbPartition(std::string name, std::uint64_t sets,
                    unsigned ways);

    // The per-VM index and the stats hold callbacks into the object.
    PomTlbPartition(const PomTlbPartition &) = delete;
    PomTlbPartition &operator=(const PomTlbPartition &) = delete;

    /** Associative search of set @p set; refreshes 2-bit LRU on hit. */
    PomTlbArrayResult lookup(std::uint64_t set, PageNum vpn, VmId vm,
                             ProcessId pid, PageSize size);

    /** Install a translation, evicting via the in-attr LRU bits. */
    void insert(std::uint64_t set, PageNum vpn, VmId vm, ProcessId pid,
                PageSize size, PageNum pfn);

    /** Drop one page's entry; true if found. */
    bool invalidatePage(std::uint64_t set, PageNum vpn, VmId vm,
                        ProcessId pid, PageSize size);

    /**
     * Drop all entries of @p vm; returns the count. Visits only the
     * sets the per-VM index lists for @p vm.
     */
    std::uint64_t invalidateVm(VmId vm);

    /** Lookups that matched an entry since the stats reset. */
    std::uint64_t hits() const { return hitCount.value(); }
    /** Lookups that matched no entry since the stats reset. */
    std::uint64_t misses() const { return missCount.value(); }
    /** Fraction of lookups that hit (0 when no lookups happened). */
    double hitRate() const;
    /** Entries currently valid in the array. */
    std::uint64_t validEntryCount() const { return validEntries; }
    /** Number of sets in this partition. */
    std::uint64_t setCount() const { return sets; }
    /** Zero all partition counters. */
    void resetStats();

    /** The partition's statistics group (named after the partition). */
    const StatGroup &stats() const { return statGroup; }

    /** Entry in way @p way of set @p set (for inspection). */
    const TlbEntry &
    entry(std::uint64_t set, unsigned way) const
    {
        return entries[set * ways + way];
    }
    /** Sets listed per VM, with each VM's resident entry count. */
    const VmSlotIndex &vmIndex() const { return vmSets; }

  private:
    /** Age every other valid entry in the set; set way's age to 0. */
    void makeYoungest(TlbEntry *base, unsigned way);
    /** Does @p set hold a valid entry of @p vm? */
    bool holdsVm(std::uint64_t set, VmId vm) const;

    std::string partitionName;
    std::uint64_t sets;
    unsigned ways;
    ZeroedArray<TlbEntry> entries;
    VmSlotIndex vmSets;
    std::uint64_t validEntries = 0;

    Counter hitCount;
    Counter missCount;
    Counter insertions;
    Counter evictions;
    StatGroup statGroup;
};

} // namespace pomtlb

#endif // POMTLB_POMTLB_ARRAY_HH
