/**
 * @file
 * Minimal open-addressing hash containers over 64-bit keys.
 *
 * The engine's steady-state pre-population pass dedups one key per
 * trace reference, and the memory map memoises one translation per
 * walk, so these probes are on the whole-trace path; open-addressed,
 * linear-probed tables over flat arrays beat std::unordered_* (node
 * allocation, pointer chasing) by a wide margin there. Callers supply
 * already-mixed keys (e.g. via mix64 — a bijection, so pre-mixing
 * loses no information); the tables just mask the low bits for the
 * home slot. Key 0 is the empty-slot sentinel and is tracked out of
 * band, so every 64-bit value is insertable.
 */

#ifndef POMTLB_COMMON_HASH_SET_HH
#define POMTLB_COMMON_HASH_SET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pomtlb
{

/** Open-addressing set of pre-mixed 64-bit keys. */
class U64Set
{
  public:
    /** @param expected Rough number of keys (sizes the first table). */
    explicit U64Set(std::size_t expected = 1024)
    {
        std::size_t cap = 16;
        while (cap < expected * 2)
            cap <<= 1;
        slots.assign(cap, 0);
        mask = cap - 1;
    }

    /** Insert @p key; returns true iff it was not already present. */
    bool
    insert(std::uint64_t key)
    {
        if (key == 0) {
            const bool fresh = !zeroPresent;
            zeroPresent = true;
            return fresh;
        }
        if ((used + 1) * 3 >= slots.size() * 2)
            grow();
        std::size_t i = static_cast<std::size_t>(key) & mask;
        for (;;) {
            const std::uint64_t slot = slots[i];
            if (slot == key)
                return false;
            if (slot == 0) {
                slots[i] = key;
                ++used;
                return true;
            }
            i = (i + 1) & mask;
        }
    }

  private:
    void
    grow()
    {
        std::vector<std::uint64_t> old = std::move(slots);
        slots.assign(old.size() * 2, 0);
        mask = slots.size() - 1;
        for (const std::uint64_t key : old) {
            if (key == 0)
                continue;
            std::size_t i = static_cast<std::size_t>(key) & mask;
            while (slots[i] != 0)
                i = (i + 1) & mask;
            slots[i] = key;
        }
    }

    std::vector<std::uint64_t> slots;
    std::size_t mask = 0;
    std::size_t used = 0;
    bool zeroPresent = false;
};

/** Open-addressing map from pre-mixed 64-bit keys to 64-bit values. */
class U64Map
{
  public:
    /** @param expected Rough number of keys (sizes the first table). */
    explicit U64Map(std::size_t expected = 1024)
    {
        std::size_t cap = 16;
        while (cap < expected * 2)
            cap <<= 1;
        keys.assign(cap, 0);
        vals.assign(cap, 0);
        mask = cap - 1;
    }

    /** Look up @p key; returns a pointer to its value or nullptr. */
    const std::uint64_t *
    find(std::uint64_t key) const
    {
        if (key == 0)
            return zeroPresent ? &zeroValue : nullptr;
        std::size_t i = static_cast<std::size_t>(key) & mask;
        for (;;) {
            const std::uint64_t slot = keys[i];
            if (slot == key)
                return &vals[i];
            if (slot == 0)
                return nullptr;
            i = (i + 1) & mask;
        }
    }

    /** Insert or overwrite (@p key -> @p value). */
    void
    insert(std::uint64_t key, std::uint64_t value)
    {
        if (key == 0) {
            zeroPresent = true;
            zeroValue = value;
            return;
        }
        if ((used + 1) * 3 >= keys.size() * 2)
            grow();
        std::size_t i = static_cast<std::size_t>(key) & mask;
        for (;;) {
            const std::uint64_t slot = keys[i];
            if (slot == key) {
                vals[i] = value;
                return;
            }
            if (slot == 0) {
                keys[i] = key;
                vals[i] = value;
                ++used;
                return;
            }
            i = (i + 1) & mask;
        }
    }

  private:
    void
    grow()
    {
        std::vector<std::uint64_t> old_keys = std::move(keys);
        std::vector<std::uint64_t> old_vals = std::move(vals);
        keys.assign(old_keys.size() * 2, 0);
        vals.assign(old_vals.size() * 2, 0);
        mask = keys.size() - 1;
        for (std::size_t j = 0; j < old_keys.size(); ++j) {
            const std::uint64_t key = old_keys[j];
            if (key == 0)
                continue;
            std::size_t i = static_cast<std::size_t>(key) & mask;
            while (keys[i] != 0)
                i = (i + 1) & mask;
            keys[i] = key;
            vals[i] = old_vals[j];
        }
    }

    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> vals;
    std::size_t mask = 0;
    std::size_t used = 0;
    bool zeroPresent = false;
    std::uint64_t zeroValue = 0;
};

} // namespace pomtlb

#endif // POMTLB_COMMON_HASH_SET_HH
