/**
 * @file
 * A fixed-size array in zero-filled, lazily backed memory.
 *
 * The in-memory translation stores (the POM-TLB partitions, the TSB
 * and Victima's block store) model capacities of millions of entries
 * of which a run touches a few percent. Their storage is one
 * anonymous private mapping: construction writes nothing, the kernel
 * supplies zero pages on first touch, and the resident set counts
 * only the pages a run actually wrote. (std::vector value-initialises
 * every element up front; calloc skips its memset only while glibc
 * still serves the chunk by mmap, which its dynamic threshold does
 * not guarantee.)
 */

#ifndef POMTLB_COMMON_ZEROED_ARRAY_HH
#define POMTLB_COMMON_ZEROED_ARRAY_HH

#include <cstddef>
#include <type_traits>
#include <utility>

namespace pomtlb
{

/**
 * Map @p bytes of zero-filled anonymous memory; throws
 * std::bad_alloc when the mapping fails. Returns nullptr for 0 bytes.
 */
void *mapZeroedBytes(std::size_t bytes);

/** Release a mapping made by mapZeroedBytes() (no-op on nullptr). */
void unmapZeroedBytes(void *base, std::size_t bytes);

/**
 * Move-only owner of @c count elements of @p T that start as all-zero
 * bytes. @p T must be trivially copyable and destructible, and its
 * default value must be all-zero bytes (every field zero-initialised).
 */
template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ZeroedArray elements are never constructed or "
                  "destroyed");

  public:
    ZeroedArray() = default;

    /** @param elements Number of elements, all zero until written. */
    explicit ZeroedArray(std::size_t elements)
        : base(static_cast<T *>(mapZeroedBytes(elements * sizeof(T)))),
          count(elements)
    {
    }

    ~ZeroedArray() { unmapZeroedBytes(base, count * sizeof(T)); }

    ZeroedArray(ZeroedArray &&other) noexcept
        : base(std::exchange(other.base, nullptr)),
          count(std::exchange(other.count, 0))
    {
    }

    ZeroedArray &
    operator=(ZeroedArray &&other) noexcept
    {
        if (this != &other) {
            unmapZeroedBytes(base, count * sizeof(T));
            base = std::exchange(other.base, nullptr);
            count = std::exchange(other.count, 0);
        }
        return *this;
    }

    ZeroedArray(const ZeroedArray &) = delete;
    ZeroedArray &operator=(const ZeroedArray &) = delete;

    /** Element @p index (unchecked). */
    T &operator[](std::size_t index) { return base[index]; }
    /** Element @p index (unchecked). */
    const T &operator[](std::size_t index) const { return base[index]; }

    /** Number of elements. */
    std::size_t size() const { return count; }

  private:
    T *base = nullptr;
    std::size_t count = 0;
};

} // namespace pomtlb

#endif // POMTLB_COMMON_ZEROED_ARRAY_HH
