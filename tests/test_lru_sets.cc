/**
 * @file
 * LruSets tests: the one replacement rule every SRAM structure uses
 * (lowest empty way, else least recently used), digest keys with a
 * confirm, visits that see only occupied ways, and the eligible-LRU
 * choice behind the TLB-aware caching policy.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/lru_sets.hh"

namespace pomtlb
{
namespace
{

using Sets = LruSets<int>;

TEST(LruSets, InstallTakesLowestEmptyWayThenLeastRecentlyUsed)
{
    Sets sets(2, 4); // set 1 is slots 4..7
    EXPECT_EQ(sets.victim(1), 4u);
    for (std::uint64_t key = 1; key <= 4; ++key) {
        const Sets::Slot slot = sets.victim(1);
        EXPECT_EQ(slot, 3 + key) << "the lowest empty way comes first";
        sets.install(slot, key) = static_cast<int>(key);
    }
    EXPECT_EQ(sets.size(), 4u);
    // Full: the first installed way is the least recently used.
    EXPECT_EQ(sets.victim(1), 4u);
    sets.touch(sets.find(1, 1));
    EXPECT_EQ(sets.victim(1), 5u) << "touch reorders";
    sets.touch(5);
    sets.touch(6);
    EXPECT_EQ(sets.victim(1), 7u);
    // An empty way beats the least recently used one.
    sets.erase(sets.find(1, 3));
    EXPECT_EQ(sets.victim(1), 6u);
    EXPECT_EQ(sets.size(), 3u);
    // Replacing an occupied way keeps the count.
    sets.install(sets.victim(1), 9);
    sets.install(sets.victim(1), 10);
    EXPECT_EQ(sets.size(), 4u);
    EXPECT_EQ(sets.find(1, 4), Sets::none) << "key 4 was the LRU way";
    EXPECT_EQ(sets.find(0, 1), Sets::none) << "sets are disjoint";
}

TEST(LruSets, DigestCollisionIsResolvedByTheConfirm)
{
    // Two payloads behind one digest in one set: find() returns the
    // one the confirm accepts, and the other stays findable.
    Sets sets(1, 4);
    const std::uint64_t digest = 0x5151;
    sets.install(sets.victim(0), digest) = 10;
    sets.install(sets.victim(0), digest) = 20;
    const auto is = [](int wanted) {
        return [wanted](int payload) { return payload == wanted; };
    };
    const Sets::Slot ten = sets.find(0, digest, is(10));
    const Sets::Slot twenty = sets.find(0, digest, is(20));
    ASSERT_NE(ten, Sets::none);
    ASSERT_NE(twenty, Sets::none);
    EXPECT_EQ(ten, 0u);
    EXPECT_EQ(twenty, 1u);
    EXPECT_EQ(sets.find(0, digest, is(30)), Sets::none);
    // Without a confirm the lowest way holding the key wins.
    EXPECT_EQ(sets.find(0, digest), 0u);
    sets.erase(ten);
    EXPECT_EQ(sets.find(0, digest, is(10)), Sets::none);
    EXPECT_EQ(sets.find(0, digest, is(20)), twenty);
}

TEST(LruSets, EraseIfAndForEachVisitOnlyOccupiedWays)
{
    Sets sets(2, 4);
    for (int value = 1; value <= 6; ++value)
        sets.install(sets.victim(value % 2), value) = value;
    // An erased way keeps its stale payload, which no visit may see.
    sets.erase(sets.find(1, 3));

    std::vector<int> seen;
    sets.forEach([&](int payload) { seen.push_back(payload); });
    EXPECT_EQ(seen, (std::vector<int>{2, 4, 6, 1, 5}));

    std::vector<int> asked;
    const std::uint64_t erased = sets.eraseIf([&](int payload) {
        asked.push_back(payload);
        return payload % 2 == 0;
    });
    EXPECT_EQ(asked, (std::vector<int>{2, 4, 6, 1, 5}));
    EXPECT_EQ(erased, 3u);
    EXPECT_EQ(sets.size(), 2u);

    seen.clear();
    sets.forEach([&](int payload) { seen.push_back(payload); });
    EXPECT_EQ(seen, (std::vector<int>{1, 5}));
    EXPECT_EQ(sets.clear(), 2u);
    EXPECT_EQ(sets.size(), 0u);
    sets.forEach([](int) { ADD_FAILURE() << "visited an empty way"; });
}

TEST(LruSets, LruWhereSkipsIneligibleAndEmptyWays)
{
    Sets sets(1, 4);
    const auto never = [](int) { return false; };
    const auto odd = [](int payload) { return payload % 2 != 0; };
    EXPECT_EQ(sets.lruWhere(0, [](int) { return true; }), Sets::none)
        << "an empty way is never eligible";
    for (int value = 1; value <= 4; ++value)
        sets.install(sets.victim(0), value) = value;
    // The fall-back of the TLB-aware policy: no eligible way.
    EXPECT_EQ(sets.lruWhere(0, never), Sets::none);
    // Odd payloads sit in ways 0 and 2; way 0 is older.
    EXPECT_EQ(sets.lruWhere(0, odd), 0u);
    sets.touch(0);
    EXPECT_EQ(sets.lruWhere(0, odd), 2u);
    sets.erase(2);
    EXPECT_EQ(sets.lruWhere(0, odd), 0u);
}

TEST(LruSets, SixtyFourWaysUseTheWholeMask)
{
    Sets sets(2, 64);
    for (std::uint64_t key = 1; key <= 64; ++key)
        sets.install(sets.victim(1), key) = static_cast<int>(key);
    EXPECT_EQ(sets.find(1, 64), 127u);
    EXPECT_EQ(sets.victim(1), 64u);
    sets.erase(127);
    EXPECT_EQ(sets.victim(1), 127u);
    EXPECT_EQ(sets.find(1, 64), Sets::none);
}

} // namespace
} // namespace pomtlb
