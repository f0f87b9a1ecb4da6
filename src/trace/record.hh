/**
 * @file
 * The memory-trace record format (Section 3.2).
 *
 * The paper traces workloads with PIN plus the Linux pagemap; each
 * record carries the virtual address, the count of abstracted
 * non-memory instructions preceding it (which advance the core's
 * clock), a read/write flag, the thread, and the OS-reported page
 * size.
 */

#ifndef POMTLB_TRACE_RECORD_HH
#define POMTLB_TRACE_RECORD_HH

#include "common/types.hh"

namespace pomtlb
{

/** One traced memory reference. */
struct TraceRecord
{
    /** Guest-virtual address referenced. */
    Addr vaddr = 0;
    /** Non-memory instructions executed since the previous record. */
    std::uint32_t instGap = 1;
    /** Load or store. */
    AccessType type = AccessType::Read;
    /** OS-assigned page size of the containing page. */
    PageSize pageSize = PageSize::Small4K;
};

} // namespace pomtlb

#endif // POMTLB_TRACE_RECORD_HH
