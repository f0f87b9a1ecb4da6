/**
 * @file
 * The one set-associative LRU array behind every SRAM structure: the
 * data caches, the SRAM TLBs, the page-structure caches and the
 * Coalesced contender's pooled TLB.
 *
 * Three structure-of-arrays lanes hold each slot's 64-bit key (0 =
 * empty), recency stamp and payload; a slot is named by its index,
 * set × ways + way. The one replacement rule: the way holding the
 * key, else the lowest empty way, else the least recently used way.
 * A key is exact (a cache tag + 1) or a non-zero digest whose owner
 * confirms the payload, so a collision costs a compare, never a wrong
 * hit. A set is matched into a 64-bit mask, so it has at most
 * maxSetWays ways. docs/internals.md §3 says why the POM-TLB, the TSB
 * and Victima keep their own replacement.
 */

#ifndef POMTLB_COMMON_LRU_SETS_HH
#define POMTLB_COMMON_LRU_SETS_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/log.hh"

namespace pomtlb
{

/** Sets × ways slots of (key, recency stamp, @p Payload). */
template <typename Payload>
class LruSets
{
  public:
    /** A slot index, set × ways + way. */
    using Slot = std::size_t;
    /** What find() and lruWhere() return when no slot qualifies. */
    static constexpr Slot none = ~Slot{0};

    /** @param sets Set count; @param ways Ways per set. */
    LruSets(std::uint64_t sets, unsigned ways)
        : wayCount(ways), keys(sets * ways, 0), stamps(sets * ways, 0),
          payloads(sets * ways)
    {
        if (ways == 0 || ways > maxSetWays)
            fatal("a set-associative array needs 1 to ", maxSetWays,
                  " ways, not ", ways);
    }

    /** Slots in the array (sets × ways). */
    std::size_t capacity() const { return keys.size(); }
    /** Slots holding an entry. */
    std::uint64_t size() const { return live; }

    /** The lowest way of @p set holding @p key, or none. */
    Slot
    find(std::uint64_t set, std::uint64_t key) const
    {
        const Slot base = set * wayCount;
        const std::uint64_t mask = matchMask(base, key);
        return mask ? base + std::countr_zero(mask) : none;
    }

    /**
     * The lowest way of @p set holding digest @p key whose payload
     * @p confirm accepts, or none.
     */
    template <typename Confirm>
    Slot
    find(std::uint64_t set, std::uint64_t key, Confirm &&confirm) const
    {
        const Slot base = set * wayCount;
        for (std::uint64_t mask = matchMask(base, key); mask != 0;
             mask &= mask - 1) {
            const Slot slot = base + std::countr_zero(mask);
            if (confirm(payloads[slot]))
                return slot;
        }
        return none;
    }

    /** Where a new key goes in @p set: lowest empty way, else LRU. */
    Slot
    victim(std::uint64_t set) const
    {
        const Slot base = set * wayCount;
        if (const std::uint64_t empty = matchMask(base, 0))
            return base + std::countr_zero(empty);
        // A min reduction (vectorizable), then the first way holding
        // it: the lowest way wins a tie.
        const std::uint64_t *lane = stamps.data() + base;
        std::uint64_t oldest = lane[0];
        for (unsigned way = 1; way < wayCount; ++way)
            oldest = lane[way] < oldest ? lane[way] : oldest;
        unsigned way = 0;
        while (lane[way] != oldest)
            ++way;
        return base + way;
    }

    /**
     * The least recently used occupied way of @p set whose payload
     * @p eligible accepts, or none when no way is eligible.
     */
    template <typename Eligible>
    Slot
    lruWhere(std::uint64_t set, Eligible &&eligible) const
    {
        Slot best = none;
        for (Slot slot = set * wayCount; slot < (set + 1) * wayCount;
             ++slot) {
            if (keys[slot] != 0 && eligible(payloads[slot]) &&
                (best == none || stamps[slot] < stamps[best]))
                best = slot;
        }
        return best;
    }

    /** Does @p slot hold an entry? */
    bool occupied(Slot slot) const { return keys[slot] != 0; }
    /** The key @p slot holds (0 when empty). */
    std::uint64_t key(Slot slot) const { return keys[slot]; }
    /** The payload of @p slot. */
    Payload &payload(Slot slot) { return payloads[slot]; }
    /** The payload of @p slot. */
    const Payload &payload(Slot slot) const { return payloads[slot]; }

    /** Make @p slot its set's most recently used way. */
    void touch(Slot slot) { stamps[slot] = ++clock; }

    /**
     * Put non-zero @p key in @p slot, replacing what it held, as the
     * most recently used way; returns the payload to fill in.
     */
    Payload &
    install(Slot slot, std::uint64_t key)
    {
        live += keys[slot] == 0;
        keys[slot] = key;
        touch(slot);
        return payloads[slot];
    }

    /** Empty occupied @p slot. */
    void
    erase(Slot slot)
    {
        keys[slot] = 0;
        --live;
    }

    /** Empty each occupied slot @p doomed accepts; returns how many. */
    template <typename Doomed>
    std::uint64_t
    eraseIf(Doomed &&doomed)
    {
        const std::uint64_t before = live;
        for (Slot slot = 0; slot < keys.size(); ++slot) {
            if (keys[slot] != 0 && doomed(payloads[slot]))
                erase(slot);
        }
        return before - live;
    }

    /** Call @p visit with the payload of every occupied slot. */
    template <typename Visit>
    void
    forEach(Visit &&visit) const
    {
        for (Slot slot = 0; slot < keys.size(); ++slot) {
            if (keys[slot] != 0)
                visit(payloads[slot]);
        }
    }

  private:
    /** Bit w set iff way w of the set at @p base holds @p key. */
    std::uint64_t
    matchMask(Slot base, std::uint64_t key) const
    {
        const std::uint64_t *lane = keys.data() + base;
        std::uint64_t mask = 0;
        for (unsigned way = 0; way < wayCount; ++way)
            mask |= static_cast<std::uint64_t>(lane[way] == key) << way;
        return mask;
    }

    unsigned wayCount;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> stamps;
    std::vector<Payload> payloads;
    std::uint64_t clock = 0;
    std::uint64_t live = 0;
};

} // namespace pomtlb

#endif // POMTLB_COMMON_LRU_SETS_HH
