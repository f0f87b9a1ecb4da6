/**
 * @file
 * The logical TLB entry shared by SRAM TLBs and the POM-TLB.
 *
 * Carries the fields of Figure 5's entry format: valid bit, VM ID,
 * process ID, virtual and physical page numbers, and an attribute
 * field whose low two bits the POM-TLB uses as its in-DRAM LRU state.
 * Figure 5's 16-byte packing is the *modelled* DRAM format (the
 * configured entryBytes decides set addresses and sizes); this host
 * struct keeps the fields at natural widths in 24 bytes, widest
 * first so there is no interior padding.
 */

#ifndef POMTLB_TLB_ENTRY_HH
#define POMTLB_TLB_ENTRY_HH

#include "common/types.hh"

namespace pomtlb
{

/** A guest-virtual to host-physical translation record. */
struct TlbEntry
{
    PageNum vpn = 0;
    PageNum pfn = 0;
    VmId vmId = 0;
    ProcessId pid = 0;
    bool valid = false;
    PageSize pageSize = PageSize::Small4K;
    /** Replacement/protection attribute bits (Figure 5 "Attr"). */
    std::uint8_t attr = 0;

    /** Does this entry translate (vpn, vmId, pid) at this page size? */
    bool
    matches(PageNum lookup_vpn, VmId lookup_vm, ProcessId lookup_pid,
            PageSize lookup_size) const
    {
        return valid && vpn == lookup_vpn && vmId == lookup_vm &&
               pid == lookup_pid && pageSize == lookup_size;
    }

    /** Translate a full virtual address using this entry. */
    Addr
    translate(Addr virt_addr) const
    {
        return (pfn << pageShift(pageSize)) |
               pageOffset(virt_addr, pageSize);
    }
};

static_assert(sizeof(TlbEntry) == 24,
              "TlbEntry is packed widest-field first into 24 bytes");

} // namespace pomtlb

#endif // POMTLB_TLB_ENTRY_HH
