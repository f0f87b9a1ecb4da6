/**
 * @file
 * Set-associative cache tests: hit/miss behaviour, LRU eviction,
 * dirty-line writeback accounting, and TLB-line occupancy tracking.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"

namespace pomtlb
{
namespace
{

CacheConfig
tinyCache()
{
    CacheConfig config;
    config.name = "test";
    config.sizeBytes = 4 * 1024; // 16 sets x 4 ways x 64 B
    config.associativity = 4;
    config.lineBytes = 64;
    config.accessLatency = 3;
    return config;
}

/** Address mapping to a given (set, tag) in the tiny cache. */
Addr
addrFor(std::uint64_t set, std::uint64_t tag)
{
    return (tag << (6 + 4)) | (set << 6);
}

TEST(Cache, MissThenHit)
{
    SetAssocCache cache(tinyCache());
    const Addr addr = addrFor(3, 7);
    EXPECT_FALSE(
        cache.lookup(addr, AccessType::Read, LineKind::Data).hit);
    cache.fill(addr, LineKind::Data);
    EXPECT_TRUE(
        cache.lookup(addr, AccessType::Read, LineKind::Data).hit);
    EXPECT_TRUE(cache.contains(addr));
}

TEST(Cache, SameLineDifferentOffsets)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(1, 1), LineKind::Data);
    EXPECT_TRUE(cache.lookup(addrFor(1, 1) + 63, AccessType::Read,
                             LineKind::Data)
                    .hit);
}

TEST(Cache, EvictionOnFullSet)
{
    SetAssocCache cache(tinyCache());
    for (std::uint64_t tag = 0; tag < 4; ++tag)
        cache.fill(addrFor(0, tag), LineKind::Data);
    // A fifth line in the same set must evict the LRU (tag 0).
    const CacheFillResult fill =
        cache.fill(addrFor(0, 100), LineKind::Data);
    EXPECT_TRUE(fill.evicted);
    EXPECT_EQ(fill.victimAddr, addrFor(0, 0));
    EXPECT_FALSE(cache.contains(addrFor(0, 0)));
    EXPECT_TRUE(cache.contains(addrFor(0, 100)));
}

TEST(Cache, WriteMarksDirtyAndWritebackCounts)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::Data);
    cache.lookup(addrFor(0, 0), AccessType::Write, LineKind::Data);
    for (std::uint64_t tag = 1; tag <= 4; ++tag)
        cache.fill(addrFor(0, tag), LineKind::Data);
    // The dirty line was evicted: one writeback.
    EXPECT_EQ(cache.writebackCount(), 1u);
}

TEST(Cache, DirtyFillEvictionReportsDirtyVictim)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::Data, /*dirty=*/true);
    for (std::uint64_t tag = 1; tag < 4; ++tag)
        cache.fill(addrFor(0, tag), LineKind::Data);
    const CacheFillResult fill =
        cache.fill(addrFor(0, 9), LineKind::Data);
    EXPECT_TRUE(fill.evicted);
    EXPECT_TRUE(fill.victimDirty);
}

TEST(Cache, TlbLineOccupancyTracked)
{
    SetAssocCache cache(tinyCache());
    EXPECT_EQ(cache.tlbLineCount(), 0u);
    cache.fill(addrFor(0, 0), LineKind::TlbEntry);
    cache.fill(addrFor(1, 0), LineKind::TlbEntry);
    cache.fill(addrFor(2, 0), LineKind::Data);
    EXPECT_EQ(cache.tlbLineCount(), 2u);
    EXPECT_EQ(cache.validLineCount(), 3u);

    cache.invalidate(addrFor(0, 0));
    EXPECT_EQ(cache.tlbLineCount(), 1u);
    EXPECT_EQ(cache.validLineCount(), 2u);
}

TEST(Cache, TlbVictimReported)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::TlbEntry);
    for (std::uint64_t tag = 1; tag < 4; ++tag)
        cache.fill(addrFor(0, tag), LineKind::Data);
    const CacheFillResult fill =
        cache.fill(addrFor(0, 50), LineKind::Data);
    EXPECT_TRUE(fill.evicted);
    EXPECT_EQ(fill.victimKind, LineKind::TlbEntry);
    EXPECT_EQ(cache.tlbLineCount(), 0u);
}

TEST(Cache, RefillInPlaceDoesNotEvict)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::Data);
    const CacheFillResult fill =
        cache.fill(addrFor(0, 0), LineKind::Data, /*dirty=*/true);
    EXPECT_FALSE(fill.evicted);
    EXPECT_EQ(cache.validLineCount(), 1u);
}

TEST(Cache, KindChangeOnRefillUpdatesOccupancy)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::Data);
    cache.fill(addrFor(0, 0), LineKind::TlbEntry);
    EXPECT_EQ(cache.tlbLineCount(), 1u);
    cache.fill(addrFor(0, 0), LineKind::Data);
    EXPECT_EQ(cache.tlbLineCount(), 0u);
}

TEST(Cache, HitRatesByKind)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::Data);
    cache.lookup(addrFor(0, 0), AccessType::Read, LineKind::Data);
    cache.lookup(addrFor(1, 0), AccessType::Read, LineKind::Data);
    cache.lookup(addrFor(2, 0), AccessType::Read, LineKind::TlbEntry);
    EXPECT_DOUBLE_EQ(cache.hitRate(LineKind::Data), 0.5);
    EXPECT_DOUBLE_EQ(cache.hitRate(LineKind::TlbEntry), 0.0);
    EXPECT_NEAR(cache.hitRate(), 1.0 / 3.0, 1e-12);
}

TEST(Cache, FlushDropsEverything)
{
    SetAssocCache cache(tinyCache());
    cache.fill(addrFor(0, 0), LineKind::Data);
    cache.fill(addrFor(1, 0), LineKind::TlbEntry);
    EXPECT_EQ(cache.flush(), 2u);
    EXPECT_EQ(cache.validLineCount(), 0u);
    EXPECT_EQ(cache.tlbLineCount(), 0u);
    EXPECT_FALSE(cache.contains(addrFor(0, 0)));
}

TEST(Cache, LruOrderRespectsLookups)
{
    SetAssocCache cache(tinyCache());
    for (std::uint64_t tag = 0; tag < 4; ++tag)
        cache.fill(addrFor(0, tag), LineKind::Data);
    // Touch tag 0 so tag 1 becomes LRU.
    cache.lookup(addrFor(0, 0), AccessType::Read, LineKind::Data);
    const CacheFillResult fill =
        cache.fill(addrFor(0, 77), LineKind::Data);
    EXPECT_EQ(fill.victimAddr, addrFor(0, 1));
}

// LRU replacement (the only policy): oldest stamp loses, freed ways
// are reused first, and each set keeps its own order.

TEST(Lru, EvictsLeastRecentlyUsed)
{
    SetAssocCache cache(tinyCache());
    for (std::uint64_t tag = 0; tag < 4; ++tag)
        cache.fill(addrFor(0, tag), LineKind::Data);
    // Tag 0 is oldest.
    EXPECT_EQ(cache.fill(addrFor(0, 4), LineKind::Data).victimAddr,
              addrFor(0, 0));
    cache.lookup(addrFor(0, 1), AccessType::Read, LineKind::Data);
    // Tag 1 was refreshed, so tag 2 is now oldest.
    EXPECT_EQ(cache.fill(addrFor(0, 5), LineKind::Data).victimAddr,
              addrFor(0, 2));
}

TEST(Lru, InvalidatedWayPreferred)
{
    SetAssocCache cache(tinyCache());
    for (std::uint64_t tag = 0; tag < 4; ++tag)
        cache.fill(addrFor(0, tag), LineKind::Data);
    ASSERT_TRUE(cache.invalidate(addrFor(0, 2)));
    EXPECT_FALSE(cache.fill(addrFor(0, 9), LineKind::Data).evicted);
    for (std::uint64_t tag : {0, 1, 3, 9})
        EXPECT_TRUE(cache.contains(addrFor(0, tag))) << tag;
}

TEST(Lru, SetsAreIndependent)
{
    SetAssocCache cache(tinyCache());
    for (std::uint64_t tag = 0; tag < 4; ++tag) {
        cache.fill(addrFor(0, tag), LineKind::Data);
        cache.fill(addrFor(1, 3 - tag), LineKind::Data);
    }
    EXPECT_EQ(cache.fill(addrFor(0, 8), LineKind::Data).victimAddr,
              addrFor(0, 0));
    EXPECT_EQ(cache.fill(addrFor(1, 8), LineKind::Data).victimAddr,
              addrFor(1, 3));
}

} // namespace
} // namespace pomtlb
