/**
 * @file
 * A set-associative SRAM TLB with VM-ID/ASID tagging.
 *
 * Used for the per-core L1 TLBs (one per page size), the unified
 * per-core L2 TLB, and the Shared_L2 baseline's large shared TLB.
 */

#ifndef POMTLB_TLB_TLB_HH
#define POMTLB_TLB_TLB_HH

#include <string>

#include "common/bitutil.hh"
#include "common/config.hh"
#include "common/lru_sets.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/entry.hh"

namespace pomtlb
{

/** Result of a TLB lookup. */
struct TlbLookupResult
{
    bool hit = false;
    /** Valid only on hit. */
    PageNum pfn = 0;
};

/** One level of set-associative SRAM TLB. */
class SetAssocTlb
{
  public:
    /** @param config Geometry, latency and stat-group name. */
    explicit SetAssocTlb(const TlbConfig &config);

    /** Look up (vpn, vm, pid) at @p size; updates LRU on hit. */
    TlbLookupResult lookup(PageNum vpn, PageSize size, VmId vm,
                           ProcessId pid);

    /** State-preserving membership check. */
    bool contains(PageNum vpn, PageSize size, VmId vm,
                  ProcessId pid) const;

    /** Install a translation, evicting the set's LRU entry if full. */
    void insert(PageNum vpn, PageSize size, VmId vm, ProcessId pid,
                PageNum pfn);

    /** Drop one page's translation (single-page shootdown). */
    bool invalidatePage(PageNum vpn, PageSize size, VmId vm,
                        ProcessId pid);

    /** Drop every entry belonging to @p vm (VM-wide shootdown). */
    std::uint64_t invalidateVm(VmId vm);

    double hitRate() const;
    std::uint64_t hits() const { return hitCount.value(); }
    std::uint64_t misses() const { return missCount.value(); }
    std::uint64_t validEntryCount() const { return entries.size(); }

    const TlbConfig &config() const { return tlbConfig; }
    StatGroup &stats() { return statGroup; }

  private:
    using Entries = LruSets<TlbEntry>;

    std::uint64_t setIndex(PageNum vpn, VmId vm) const;

    /**
     * Match key of an entry: a mixed digest of (vpn, vm, pid, size),
     * forced non-zero so 0 stays the empty key. find() confirms each
     * candidate against the full entry fields, so a rare digest
     * collision costs a compare, never a wrong hit.
     */
    static std::uint64_t
    entryKey(PageNum vpn, VmId vm, ProcessId pid, PageSize size)
    {
        const std::uint64_t packed =
            vpn ^ (static_cast<std::uint64_t>(vm) << 44) ^
            (static_cast<std::uint64_t>(pid) << 28) ^
            (static_cast<std::uint64_t>(
                 static_cast<unsigned>(size))
             << 60);
        return mix64(packed) | 1;
    }

    /** The slot holding (vpn, vm, pid, size), or none. */
    Entries::Slot
    find(PageNum vpn, PageSize size, VmId vm, ProcessId pid) const
    {
        return entries.find(setIndex(vpn, vm),
                            entryKey(vpn, vm, pid, size),
                            [&](const TlbEntry &entry) {
                                return entry.matches(vpn, vm, pid,
                                                     size);
                            });
    }

    TlbConfig tlbConfig;
    std::uint64_t sets;
    Entries entries;

    Counter hitCount;
    Counter missCount;
    Counter insertions;
    Counter evictions;
    Counter shootdowns;
    StatGroup statGroup;
};

} // namespace pomtlb

#endif // POMTLB_TLB_TLB_HH
