/**
 * @file
 * The "Coalesced" contender: a pooled second-level SRAM TLB with
 * coalesced entries, in the spirit of CoLT (Pham et al., MICRO'12)
 * and RISC-V SVNAPOT. Each entry covers an aligned run of
 * `rangePages` virtually-contiguous small pages and remembers one
 * base frame plus a presence bitmap; when the OS allocated the run
 * physically contiguously (which the simulator's frame allocator
 * often does), one entry stands in for up to `rangePages` classic
 * TLB entries, multiplying reach at SRAM latency.
 *
 * Coalescing is purely passive: the scheme only merges frames it has
 * actually observed from completed page walks, and never probes the
 * page tables for speculative neighbours — so it is translation-
 * for-translation identical to every other scheme (the
 * tests/test_scheme_consistency.cc invariant).
 *
 * Registered with the scheme registry as "Coalesced"; constructed
 * only through SchemeRegistry (sim/scheme_registry.hh).
 */

#ifndef POMTLB_SCHEMES_COALESCED_SCHEME_HH
#define POMTLB_SCHEMES_COALESCED_SCHEME_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/lru_sets.hh"
#include "common/stats.hh"
#include "pagetable/walker.hh"
#include "sim/scheme.hh"

namespace pomtlb
{

/** Coalesced-entry shared second-level TLB. */
class CoalescedTlbScheme : public TranslationScheme
{
  public:
    /**
     * @param config        Coalescing geometry and latency.
     * @param total_entries Coalesced entries in the pooled array
     *                      (rounded down to a power-of-two set
     *                      count).
     * @param walkers       Per-core walkers for misses.
     */
    CoalescedTlbScheme(
        const CoalescedTlbConfig &config, unsigned total_entries,
        std::vector<std::unique_ptr<PageWalker>> &walkers);

    /** Like Shared_L2, this pooled array replaces the private L2s. */
    bool providesSecondLevel() const override { return true; }

    void invalidatePage(Addr vaddr, PageSize size, VmId vm,
                        ProcessId pid) override;
    void invalidateVm(VmId vm) override;

    /** Fraction of requests the coalesced array served. */
    double hitRate() const;
    /** Mean pages covered per live coalesced entry, right now. */
    double avgPagesPerEntry() const;

  private:
    SchemeResult resolve(CoreId core, Addr vaddr, PageSize size,
                         VmId vm, ProcessId pid, Cycles now) override;

    /** One coalesced entry: an aligned run of rangePages pages. */
    struct Entry
    {
        VmId vm = 0;
        ProcessId pid = 0;
        PageSize size = PageSize::Small4K;
        /** First VPN of the aligned run. */
        PageNum baseVpn = 0;
        /**
         * Frame of the run's first page — page i of the run is only
         * representable while it maps to basePfn + i (modular
         * arithmetic, so basePfn may wrap when page 0 was never
         * observed).
         */
        PageNum basePfn = 0;
        /** Which pages of the run this entry currently covers. */
        std::uint64_t present = 0;
    };
    using Entries = LruSets<Entry>;

    /**
     * mix64 of a run's identity, which does not fit 64 bits: its low
     * bits pick the set, and with bit 0 forced on it is the key.
     */
    static std::uint64_t digestOf(PageNum base_vpn, PageSize size,
                                  VmId vm, ProcessId pid);
    /** The slot holding the run, or none. */
    Entries::Slot find(PageNum base_vpn, PageSize size, VmId vm,
                       ProcessId pid) const;
    void install(PageNum base_vpn, unsigned offset, PageNum pfn,
                 PageSize size, VmId vm, ProcessId pid);

    CoalescedTlbConfig tlbConfig;
    std::vector<std::unique_ptr<PageWalker>> &pageWalkers;
    std::size_t sets;
    Entries entries; /**< sets × associativity runs. */

    /** Walk results merged into an existing entry's run. */
    Counter merges;
    /** Runs re-anchored because observed contiguity broke. */
    Counter splits;
};

} // namespace pomtlb

#endif // POMTLB_SCHEMES_COALESCED_SCHEME_HH
