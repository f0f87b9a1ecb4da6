#include "pomtlb/predictor.hh"

#include "common/bitutil.hh"
#include "common/log.hh"

namespace pomtlb
{

SizeBypassPredictor::SizeBypassPredictor(unsigned table_entries,
                                         bool hysteresis)
    : tableEntries(table_entries),
      useHysteresis(hysteresis),
      sizeState(table_entries, 0),
      bypassState(table_entries, 0)
{
    simAssert(isPowerOfTwo(table_entries),
              "predictor table must be a power of two");
}

unsigned
SizeBypassPredictor::indexOf(Addr vaddr) const
{
    // 9 bits of the VA above the 4 KB page offset (Section 2.1.4).
    return static_cast<unsigned>((vaddr >> smallPageShift) &
                                 (tableEntries - 1));
}

std::uint8_t
SizeBypassPredictor::train(std::uint8_t counter, bool toward)
{
    if (toward)
        return counter < 3 ? counter + 1 : 3;
    return counter > 0 ? counter - 1 : 0;
}

PageSize
SizeBypassPredictor::predictSize(Addr vaddr) const
{
    const std::uint8_t state = sizeState[indexOf(vaddr)];
    const bool large = useHysteresis ? state >= 2 : state != 0;
    return large ? PageSize::Large2M : PageSize::Small4K;
}

bool
SizeBypassPredictor::predictBypass(Addr vaddr) const
{
    const std::uint8_t state = bypassState[indexOf(vaddr)];
    return useHysteresis ? state >= 2 : state != 0;
}

bool
SizeBypassPredictor::updateSize(Addr vaddr, PageSize actual)
{
    const unsigned index = indexOf(vaddr);
    const bool predicted_large =
        useHysteresis ? sizeState[index] >= 2 : sizeState[index] != 0;
    const bool actual_large = actual == PageSize::Large2M;

    if (useHysteresis)
        sizeState[index] = train(sizeState[index], actual_large);
    else
        sizeState[index] = actual_large ? 1 : 0;
    return predicted_large == actual_large;
}

bool
SizeBypassPredictor::updateBypass(Addr vaddr, bool predicted,
                                  bool should_bypass)
{
    const unsigned index = indexOf(vaddr);
    if (useHysteresis)
        bypassState[index] = train(bypassState[index], should_bypass);
    else
        bypassState[index] = should_bypass ? 1 : 0;
    return predicted == should_bypass;
}

} // namespace pomtlb
