/**
 * @file
 * The shared page-size / cache-bypass predictor (Sections 2.1.4-2.1.5).
 *
 * One table of 512 two-bit entries per core (128 bytes of SRAM):
 * bit 0 predicts the page size of the next translation to the indexed
 * region (0 = 4 KB, 1 = 2 MB); bit 1 predicts whether probing the data
 * caches for the POM-TLB line is useless and should be bypassed.
 * The table is indexed with 9 bits of the virtual address above the
 * 4 KB page offset. Mispredictions simply overwrite the bit — the
 * paper notes hysteresis as a possible refinement, left off by
 * default but available for the ablation benches.
 */

#ifndef POMTLB_POMTLB_PREDICTOR_HH
#define POMTLB_POMTLB_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace pomtlb
{

/** Per-core page-size + cache-bypass predictor. */
class SizeBypassPredictor
{
  public:
    /**
     * @param table_entries Number of predictor slots (512 in paper).
     * @param hysteresis    Use 2-bit saturating counters per
     *                      prediction instead of single bits
     *                      (footnote 2's suggested refinement).
     */
    explicit SizeBypassPredictor(unsigned table_entries = 512,
                                 bool hysteresis = false);

    /** Predict the page size of the translation for @p vaddr. */
    PageSize predictSize(Addr vaddr) const;

    /** Predict whether to bypass the data caches for @p vaddr. */
    bool predictBypass(Addr vaddr) const;

    /**
     * Train with the actual page size. Returns whether the slot
     * predicted it, the outcome Figure 10's size accuracy counts.
     */
    bool updateSize(Addr vaddr, PageSize actual);

    /**
     * Train the bypass bit with what the right decision would have
     * been (@p should_bypass = the caches did not hold the line).
     * Returns whether the decision actually taken (@p predicted) was
     * right, the outcome Figure 10's bypass accuracy counts.
     */
    bool updateBypass(Addr vaddr, bool predicted, bool should_bypass);

  private:
    unsigned indexOf(Addr vaddr) const;

    /** Move a saturating counter toward @p taken. */
    static std::uint8_t train(std::uint8_t counter, bool toward);

    unsigned tableEntries;
    bool useHysteresis;
    /** 2-bit saturating counters; MSB is the prediction. */
    std::vector<std::uint8_t> sizeState;
    std::vector<std::uint8_t> bypassState;
};

} // namespace pomtlb

#endif // POMTLB_POMTLB_PREDICTOR_HH
