/**
 * @file
 * Per-VM index of the slots a translation store holds entries in.
 *
 * A VM shootdown (tenant departure) must drop every entry tagged with
 * the VM. The in-memory stores are far larger than what a run keeps
 * resident, so instead of scanning their whole capacity they record,
 * for each VM, the slots (sets, rows or blocks) they installed one of
 * its entries in since its last shootdown, and visit only those.
 *
 * A slot stays listed after its entry is evicted or invalidated, and
 * may be listed twice, so a list is compacted — stale and duplicate
 * slots dropped — whenever it grows past bound() of the VM's resident
 * entries. Compaction leaves at most one slot per resident entry, so
 * the list stays proportional to what the VM keeps resident and each
 * install or removal costs amortised O(log n).
 */

#ifndef POMTLB_COMMON_VM_INDEX_HH
#define POMTLB_COMMON_VM_INDEX_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace pomtlb
{

/** Which slots may hold entries of each VM, and how many it has. */
class VmSlotIndex
{
  public:
    /**
     * The owning store's answer to "does this slot still hold an
     * entry of this VM?", asked only while compacting a list.
     */
    using Holds = std::function<bool(std::uint64_t slot, VmId vm)>;

    /** Slots a VM's list may exceed twice its resident entries by. */
    static constexpr std::size_t slack = 64;

    /** Longest list compaction leaves alone at @p resident entries. */
    static constexpr std::size_t
    bound(std::uint64_t resident)
    {
        return 2 * resident + slack;
    }

    /** @param slot_holds The owning store's slot test (see Holds). */
    explicit VmSlotIndex(Holds slot_holds) : holds(std::move(slot_holds))
    {
    }

    /** A new entry of @p vm is resident in @p slot. */
    void
    added(VmId vm, std::uint64_t slot)
    {
        PerVm &state = at(vm);
        ++state.resident;
        state.slots.push_back(slot);
        trim(vm, state);
    }

    /**
     * An entry of @p vm was installed in @p slot, replacing an entry
     * of @p old_vm when @p replaced. A slot whose old entry was the
     * VM's own stays listed and the count holds; otherwise the old
     * VM loses an entry and @p vm gains the slot.
     */
    void
    installed(VmId vm, std::uint64_t slot, bool replaced, VmId old_vm)
    {
        if (replaced && old_vm == vm)
            return;
        if (replaced)
            removed(old_vm);
        added(vm, slot);
    }

    /** An entry of @p vm was evicted or invalidated. */
    void
    removed(VmId vm)
    {
        PerVm &state = at(vm);
        --state.resident;
        trim(vm, state);
    }

    /**
     * Every slot that may hold an entry of @p vm, for a shootdown
     * that drops them all; the VM's list and count restart empty.
     */
    std::vector<std::uint64_t>
    release(VmId vm)
    {
        if (vm >= perVm.size())
            return {};
        PerVm &state = perVm[vm];
        state.resident = 0;
        return std::exchange(state.slots, {});
    }

    /** Entries of @p vm resident in the store. */
    std::uint64_t
    resident(VmId vm) const
    {
        return vm < perVm.size() ? perVm[vm].resident : 0;
    }

    /** Slots listed for @p vm (stale and duplicate ones included). */
    const std::vector<std::uint64_t> &
    slots(VmId vm) const
    {
        static const std::vector<std::uint64_t> none;
        return vm < perVm.size() ? perVm[vm].slots : none;
    }

  private:
    struct PerVm
    {
        std::vector<std::uint64_t> slots;
        std::uint64_t resident = 0;
    };

    PerVm &
    at(VmId vm)
    {
        if (vm >= perVm.size())
            perVm.resize(std::size_t{vm} + 1);
        return perVm[vm];
    }

    /** Compact the VM's list once it outgrows bound(). */
    void
    trim(VmId vm, PerVm &state)
    {
        if (state.slots.size() <= bound(state.resident))
            return;
        auto &list = state.slots;
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
        std::erase_if(list, [&](std::uint64_t slot) {
            return !holds(slot, vm);
        });
    }

    Holds holds;
    /** Indexed by VM id; grown on first use of an id. */
    std::vector<PerVm> perVm;
};

} // namespace pomtlb

#endif // POMTLB_COMMON_VM_INDEX_HH
