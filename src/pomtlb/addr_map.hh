/**
 * @file
 * POM-TLB set addressing (Section 2.1.3, Equation 1).
 *
 * The POM-TLB is mapped into the host-physical address space: the
 * small-page partition at the configured base, the large-page
 * partition right after it. A virtual address is converted to a set
 * index by extracting log2(N) bits of its VPN after XOR-ing with the
 * VM ID (to spread multiple VMs across sets), and each set is one
 * 64-byte line holding four 16-byte entries.
 *
 * Extracting contiguous low VPN bits — rather than hashing — is what
 * preserves the spatial locality that yields the high DRAM row-buffer
 * hit rates of Section 4.4.
 */

#ifndef POMTLB_POMTLB_ADDR_MAP_HH
#define POMTLB_POMTLB_ADDR_MAP_HH

#include <optional>

#include "common/bitutil.hh"
#include "common/config.hh"
#include "common/types.hh"

namespace pomtlb
{

/** Computes set indices and physical addresses for both partitions. */
class PomTlbAddressMap
{
  public:
    explicit PomTlbAddressMap(const PomTlbConfig &config);

    /** Number of sets in the partition for @p size. */
    std::uint64_t numSets(PageSize size) const
    {
        return size == PageSize::Small4K ? smallSets : largeSets;
    }

    /**
     * Set index for a VPN of the given page size. In the paper's
     * partitioned design this is Equation 1 (low VPN bits XOR VM id)
     * for both partitions. In the unified organisation (footnote 1)
     * both sizes share one array: 4 KB pages keep the Equation 1
     * index (preserving spatial locality and row-buffer hits) while
     * 2 MB pages use a skewed hash so the two sizes do not collide
     * systematically in the shared sets.
     */
    std::uint64_t
    setIndex(PageNum vpn, VmId vm, PageSize size) const
    {
        if (unified && size == PageSize::Large2M) {
            return (mix64(vpn) ^ vm) & (largeSets - 1);
        }
        return (vpn ^ vm) & (numSets(size) - 1);
    }

    /** Whether both sizes share one array (footnote 1 extension). */
    bool isUnified() const { return unified; }

    /** Host-physical address of the set's 64-byte line. */
    Addr
    setAddress(PageNum vpn, VmId vm, PageSize size) const
    {
        return partitionBase(size) +
               setIndex(vpn, vm, size) * setBytes;
    }

    /** Base host-physical address of a partition. */
    Addr
    partitionBase(PageSize size) const
    {
        return size == PageSize::Small4K ? smallBase : largeBase;
    }

    /** Which partition (if any) owns host-physical address @p addr. */
    std::optional<PageSize> partitionOf(Addr addr) const;

    /** One past the last byte of the POM-TLB's address range. */
    Addr rangeEnd() const { return largeBase + largeSets * setBytes; }

    unsigned associativity() const { return ways; }

  private:
    unsigned setBytes;
    bool unified;
    std::uint64_t smallSets;
    std::uint64_t largeSets;
    Addr smallBase;
    Addr largeBase;
    unsigned ways;
};

} // namespace pomtlb

#endif // POMTLB_POMTLB_ADDR_MAP_HH
