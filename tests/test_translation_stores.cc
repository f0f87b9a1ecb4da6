/**
 * @file
 * Differential tests of the in-memory translation stores' VM
 * shootdown path: the POM-TLB partition, the TSB buffer and
 * Victima's block store each shoot a VM down by visiting only the
 * slots their per-VM index lists (common/vm_index.hh), and keep
 * their entries in lazily backed zeroed storage
 * (common/zeroed_array.hh).
 *
 * Each store runs a seeded random sequence of installs, lookups,
 * page invalidations and VM shootdowns whose VM ids are reused after
 * a departure. After every operation the index is checked against a
 * brute-force scan of the whole store: each VM's resident count, that
 * every slot holding one of its entries is listed, and the list's
 * length bound. Every shootdown is checked against a full-scan
 * invalidation of a snapshot taken just before it.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "baseline/tsb_scheme.hh"
#include "common/rng.hh"
#include "common/vm_index.hh"
#include "common/zeroed_array.hh"
#include "pomtlb/array.hh"
#include "schemes/victima_scheme.hh"
#include "sim/machine.hh"

namespace pomtlb
{
namespace
{

/** VM ids 1..vmCount are drawn; a departed id is soon reused. */
constexpr VmId vmCount = 4;

/** One translation of the small test universe. */
struct Key
{
    PageNum vpn = 0;
    VmId vm = 0;
    ProcessId pid = 0;
    PageSize size = PageSize::Small4K;

    Addr vaddr() const { return vpn << pageShift(size); }
};

Key
randomKey(Rng &rng)
{
    Key key;
    key.size = rng.below(8) == 0 ? PageSize::Large2M : PageSize::Small4K;
    // 2 MB pages sit above the 4 KB ones, so the walker never maps
    // one address at both sizes.
    key.vpn = (key.size == PageSize::Large2M ? 64 : 0) + rng.below(48);
    key.vm = static_cast<VmId>(1 + rng.below(vmCount));
    key.pid = static_cast<ProcessId>(1 + rng.below(2));
    return key;
}

bool
sameEntry(const TlbEntry &a, const TlbEntry &b)
{
    return a.vpn == b.vpn && a.pfn == b.pfn && a.vmId == b.vmId &&
           a.pid == b.pid && a.valid == b.valid &&
           a.pageSize == b.pageSize && a.attr == b.attr;
}

/**
 * The index agrees with a full scan: @p entries_of(slot, vm) counts
 * the VM's valid entries in a slot of a store with @p slots slots.
 */
template <typename EntriesOf>
::testing::AssertionResult
indexMatchesScan(const VmSlotIndex &index, std::uint64_t slots,
                 EntriesOf &&entries_of)
{
    for (VmId vm = 0; vm <= vmCount; ++vm) {
        const std::vector<std::uint64_t> &listed = index.slots(vm);
        const std::set<std::uint64_t> listed_set(listed.begin(),
                                                 listed.end());
        std::uint64_t resident = 0;
        for (std::uint64_t slot = 0; slot < slots; ++slot) {
            const unsigned held = entries_of(slot, vm);
            resident += held;
            if (held > 0 && listed_set.count(slot) == 0) {
                return ::testing::AssertionFailure()
                       << "slot " << slot << " holds " << held
                       << " entries of vm " << vm
                       << " but is not listed";
            }
        }
        if (index.resident(vm) != resident) {
            return ::testing::AssertionFailure()
                   << "vm " << vm << ": index counts "
                   << index.resident(vm) << " resident, scan finds "
                   << resident;
        }
        if (listed.size() > VmSlotIndex::bound(resident)) {
            return ::testing::AssertionFailure()
                   << "vm " << vm << ": " << listed.size()
                   << " slots listed for " << resident << " entries";
        }
    }
    return ::testing::AssertionSuccess();
}

/** Only the length bound, for long sequences (cheap per step). */
::testing::AssertionResult
withinBound(const VmSlotIndex &index)
{
    for (VmId vm = 0; vm <= vmCount; ++vm) {
        const std::size_t listed = index.slots(vm).size();
        if (listed > VmSlotIndex::bound(index.resident(vm))) {
            return ::testing::AssertionFailure()
                   << "vm " << vm << ": " << listed
                   << " slots listed for " << index.resident(vm)
                   << " entries";
        }
    }
    return ::testing::AssertionSuccess();
}

SystemConfig
smallSystem()
{
    SystemConfig config = SystemConfig::table1();
    config.numCores = 2;
    // 64 rows of 2 stages: most installs evict.
    config.tsb.capacityBytes = 2048;
    // 16 blocks of 8 slots.
    config.victima.regionBytes = 1024;
    return config;
}

// -- the three stores behind one interface ------------------------

/** POM-TLB partition: 16 sets x 4 ways, 2-bit LRU in attr. */
class PomStore
{
  public:
    void
    install(const Key &key, PageNum pfn)
    {
        part.insert(setOf(key), key.vpn, key.vm, key.pid, key.size,
                    pfn);
    }

    void
    lookup(const Key &key)
    {
        EXPECT_EQ(part.lookup(setOf(key), key.vpn, key.vm, key.pid,
                              key.size)
                      .hit,
                  resident(key));
    }

    void
    invalidatePage(const Key &key)
    {
        const bool expected = resident(key);
        EXPECT_EQ(part.invalidatePage(setOf(key), key.vpn, key.vm,
                                      key.pid, key.size),
                  expected);
    }

    void
    invalidateVm(VmId vm)
    {
        std::vector<TlbEntry> expected = snapshot();
        std::uint64_t dropped = 0;
        for (TlbEntry &entry : expected) {
            if (entry.valid && entry.vmId == vm) {
                entry.valid = false;
                ++dropped;
            }
        }
        EXPECT_EQ(part.invalidateVm(vm), dropped);
        const std::vector<TlbEntry> actual = snapshot();
        for (std::size_t i = 0; i < actual.size(); ++i)
            ASSERT_TRUE(sameEntry(actual[i], expected[i])) << i;
    }

    ::testing::AssertionResult
    check() const
    {
        return indexMatchesScan(
            part.vmIndex(), sets, [&](std::uint64_t set, VmId vm) {
                unsigned held = 0;
                for (unsigned way = 0; way < ways; ++way) {
                    const TlbEntry &entry = part.entry(set, way);
                    held += entry.valid && entry.vmId == vm;
                }
                return held;
            });
    }

    const VmSlotIndex &index() const { return part.vmIndex(); }

  private:
    static constexpr std::uint64_t sets = 16;
    static constexpr unsigned ways = 4;

    static std::uint64_t
    setOf(const Key &key)
    {
        return (key.vpn ^ key.vm) & (sets - 1);
    }

    std::vector<TlbEntry>
    snapshot() const
    {
        std::vector<TlbEntry> all;
        for (std::uint64_t set = 0; set < sets; ++set) {
            for (unsigned way = 0; way < ways; ++way)
                all.push_back(part.entry(set, way));
        }
        return all;
    }

    /** Full scan of the whole array for the key. */
    bool
    resident(const Key &key) const
    {
        for (const TlbEntry &entry : snapshot()) {
            if (entry.matches(key.vpn, key.vm, key.pid, key.size))
                return true;
        }
        return false;
    }

    PomTlbPartition part{"p", sets, ways};
};

/** TSB: 64 direct-mapped rows of 2 stages, driven as a scheme. */
class TsbStore
{
  public:
    TsbStore()
        : machine(smallSystem(), "TSB"),
          tsb(dynamic_cast<TsbScheme &>(machine.scheme()))
    {
    }

    void
    install(const Key &key, PageNum pfn)
    {
        tsb.prewarm(0, key.vaddr(), key.size, key.vm, key.pid, pfn);
    }

    void
    lookup(const Key &key)
    {
        const bool expected = resident(key);
        const SchemeResult result = tsb.translateMiss(
            0, key.vaddr(), key.size, key.vm, key.pid, now);
        now += 1000;
        EXPECT_EQ(result.servedBy == ServicePoint::TsbBuffer,
                  expected);
    }

    void
    invalidatePage(const Key &key)
    {
        tsb.invalidatePage(key.vaddr(), key.size, key.vm, key.pid);
        EXPECT_FALSE(resident(key));
    }

    void
    invalidateVm(VmId vm)
    {
        std::vector<TlbEntry> expected = snapshot();
        for (TlbEntry &entry : expected) {
            if (entry.valid && entry.vmId == vm)
                entry.valid = false;
        }
        tsb.invalidateVm(vm);
        const std::vector<TlbEntry> actual = snapshot();
        for (std::size_t i = 0; i < actual.size(); ++i)
            ASSERT_TRUE(sameEntry(actual[i], expected[i])) << i;
    }

    ::testing::AssertionResult
    check() const
    {
        for (std::uint64_t row = 0; row < tsb.rowCount(); ++row) {
            for (unsigned stage = 1; stage < stages; ++stage) {
                if (!sameEntry(tsb.bufferEntry(stage, row),
                               tsb.bufferEntry(0, row))) {
                    return ::testing::AssertionFailure()
                           << "row " << row << " stages disagree";
                }
            }
        }
        return indexMatchesScan(
            tsb.vmIndex(), tsb.rowCount(),
            [&](std::uint64_t row, VmId vm) {
                const TlbEntry &entry = tsb.bufferEntry(0, row);
                return unsigned{entry.valid && entry.vmId == vm};
            });
    }

    const VmSlotIndex &index() const { return tsb.vmIndex(); }

  private:
    static constexpr unsigned stages = 2;

    std::vector<TlbEntry>
    snapshot() const
    {
        std::vector<TlbEntry> all;
        for (std::uint64_t row = 0; row < tsb.rowCount(); ++row) {
            for (unsigned stage = 0; stage < stages; ++stage)
                all.push_back(tsb.bufferEntry(stage, row));
        }
        return all;
    }

    bool
    resident(const Key &key) const
    {
        for (const TlbEntry &entry : snapshot()) {
            if (entry.matches(key.vpn, key.vm, key.pid, key.size))
                return true;
        }
        return false;
    }

    Machine machine;
    TsbScheme &tsb;
    Cycles now = 0;
};

/** Victima: 16 blocks of 8 slots whose lines live in the caches. */
class VictimaStore
{
  public:
    VictimaStore()
        : machine(smallSystem(), "Victima"),
          victima(dynamic_cast<VictimaScheme &>(machine.scheme()))
    {
    }

    void
    install(const Key &key, PageNum pfn)
    {
        victima.prewarm(static_cast<CoreId>(key.vpn & 1), key.vaddr(),
                        key.size, key.vm, key.pid, pfn);
    }

    void
    lookup(const Key &key)
    {
        const bool stored = resident(key);
        const SchemeResult result = victima.translateMiss(
            0, key.vaddr(), key.size, key.vm, key.pid, now);
        now += 1000;
        // A block line may have been evicted from the caches, so a
        // stored entry can still walk; a cached hit must be stored.
        if (!result.walked) {
            EXPECT_TRUE(stored);
        }
    }

    void
    invalidatePage(const Key &key)
    {
        victima.invalidatePage(key.vaddr(), key.size, key.vm,
                               key.pid);
        EXPECT_FALSE(resident(key));
    }

    void
    invalidateVm(VmId vm)
    {
        // Full-scan reference: clear the VM's slots, and drop the
        // cached line of exactly the blocks that held one of them.
        std::vector<VictimaScheme::Slot> expected = snapshot();
        std::vector<bool> touched(victima.blockCount(), false);
        const unsigned per_block = slotsPerBlock();
        for (std::size_t i = 0; i < expected.size(); ++i) {
            if (expected[i].valid && expected[i].vm == vm) {
                expected[i].valid = false;
                touched[i / per_block] = true;
            }
        }
        std::vector<bool> cached_before;
        for (std::uint64_t b = 0; b < victima.blockCount(); ++b)
            cached_before.push_back(cached(b));

        victima.invalidateVm(vm);

        const std::vector<VictimaScheme::Slot> actual = snapshot();
        for (std::size_t i = 0; i < actual.size(); ++i) {
            ASSERT_EQ(actual[i].valid, expected[i].valid) << i;
            ASSERT_EQ(actual[i].vm, expected[i].vm) << i;
            ASSERT_EQ(actual[i].vpn, expected[i].vpn) << i;
            ASSERT_EQ(actual[i].stamp, expected[i].stamp) << i;
        }
        for (std::uint64_t b = 0; b < victima.blockCount(); ++b) {
            ASSERT_EQ(cached(b), touched[b] ? false : cached_before[b])
                << "block " << b;
        }
    }

    ::testing::AssertionResult
    check() const
    {
        return indexMatchesScan(
            victima.vmIndex(), victima.blockCount(),
            [&](std::uint64_t block, VmId vm) {
                unsigned held = 0;
                for (unsigned i = 0; i < slotsPerBlock(); ++i) {
                    const VictimaScheme::Slot &slot =
                        victima.slot(block, i);
                    held += slot.valid && slot.vm == vm;
                }
                return held;
            });
    }

    const VmSlotIndex &index() const { return victima.vmIndex(); }

  private:
    unsigned
    slotsPerBlock() const
    {
        return smallSystem().victima.entriesPerBlock;
    }

    std::vector<VictimaScheme::Slot>
    snapshot() const
    {
        std::vector<VictimaScheme::Slot> all;
        for (std::uint64_t b = 0; b < victima.blockCount(); ++b) {
            for (unsigned i = 0; i < slotsPerBlock(); ++i)
                all.push_back(victima.slot(b, i));
        }
        return all;
    }

    bool
    resident(const Key &key) const
    {
        for (const VictimaScheme::Slot &slot : snapshot()) {
            if (slot.valid && slot.vpn == key.vpn &&
                slot.size == key.size && slot.vm == key.vm &&
                slot.pid == key.pid) {
                return true;
            }
        }
        return false;
    }

    /** Is block @p b's line in any data cache? */
    bool
    cached(std::uint64_t b)
    {
        const Addr addr = victima.blockAddress(b);
        DataHierarchy &caches = machine.hierarchy();
        bool any = caches.l3d().contains(addr);
        for (CoreId core = 0; core < smallSystem().numCores; ++core) {
            any = any || caches.l1d(core).contains(addr) ||
                  caches.l2d(core).contains(addr);
        }
        return any;
    }

    Machine machine;
    VictimaScheme &victima;
    Cycles now = 0;
};

// -- the sequences -------------------------------------------------

/**
 * @p ops random operations; with @p departures, about one in fifty
 * is a VM shootdown whose id later installs again.
 */
template <typename Store>
void
runAgainstFullScan(Store &store, std::uint64_t seed, int ops,
                   bool departures)
{
    Rng rng(seed);
    for (int op = 0; op < ops; ++op) {
        const Key key = randomKey(rng);
        const std::uint64_t roll = rng.below(100);
        if (departures && roll < 2)
            store.invalidateVm(key.vm);
        else if (roll < 55)
            store.install(key, 1000 + rng.below(1u << 20));
        else if (roll < 80)
            store.lookup(key);
        else
            store.invalidatePage(key);
        if (::testing::Test::HasFailure())
            FAIL() << "operation " << op << " (seed " << seed << ")";
        ASSERT_TRUE(store.check())
            << "after operation " << op << " (seed " << seed << ")";
    }
}

/** A long run without departures keeps every list within bound. */
template <typename Store>
void
runWithoutDepartures(Store &store, std::uint64_t seed, int ops)
{
    Rng rng(seed);
    for (int op = 0; op < ops; ++op) {
        const Key key = randomKey(rng);
        if (rng.below(4) == 0)
            store.invalidatePage(key);
        else
            store.install(key, 1000 + rng.below(1u << 20));
        ASSERT_TRUE(withinBound(store.index()))
            << "after operation " << op;
    }
    ASSERT_TRUE(store.check());
}

TEST(StoreShootdown, PomPartitionMatchesFullScan)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        PomStore store;
        runAgainstFullScan(store, seed, 4000, true);
    }
}

TEST(StoreShootdown, TsbMatchesFullScan)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        TsbStore store;
        runAgainstFullScan(store, seed, 3000, true);
    }
}

TEST(StoreShootdown, VictimaMatchesFullScan)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        VictimaStore store;
        runAgainstFullScan(store, seed, 2000, true);
    }
}

TEST(StoreShootdown, IndexStaysBoundedWithoutDepartures)
{
    {
        PomStore store;
        runWithoutDepartures(store, 11, 100000);
    }
    {
        TsbStore store;
        runWithoutDepartures(store, 12, 100000);
    }
    {
        VictimaStore store;
        runWithoutDepartures(store, 13, 100000);
    }
}

TEST(ZeroedArray, StartsAsDefaultValuesAndMovesOwnership)
{
    ZeroedArray<TlbEntry> entries(std::size_t{1} << 16);
    ASSERT_EQ(entries.size(), std::size_t{1} << 16);
    EXPECT_TRUE(sameEntry(entries[0], TlbEntry{}));
    EXPECT_TRUE(sameEntry(entries[40000], TlbEntry{}));
    entries[7].vpn = 42;

    ZeroedArray<TlbEntry> moved(std::move(entries));
    EXPECT_EQ(moved[7].vpn, 42u);
    EXPECT_EQ(entries.size(), 0u);
    ZeroedArray<TlbEntry> assigned;
    assigned = std::move(moved);
    EXPECT_EQ(assigned[7].vpn, 42u);
    EXPECT_EQ(moved.size(), 0u);
}

TEST(VmSlotIndex, ReleaseHandsOverAndForgets)
{
    VmSlotIndex index([](std::uint64_t, VmId) { return false; });
    index.added(3, 7);
    index.added(3, 9);
    EXPECT_EQ(index.resident(3), 2u);
    EXPECT_EQ(index.resident(2), 0u);
    EXPECT_EQ(index.release(3), (std::vector<std::uint64_t>{7, 9}));
    EXPECT_EQ(index.resident(3), 0u);
    EXPECT_TRUE(index.slots(3).empty());
    EXPECT_TRUE(index.release(40).empty());
}

TEST(VmSlotIndex, CompactionDropsStaleAndDuplicateSlots)
{
    // Slot 5 keeps the VM's one live entry; everything else goes
    // stale, so the list compacts once it passes the bound.
    VmSlotIndex index([](std::uint64_t slot, VmId) { return slot == 5; });
    index.added(1, 5);
    for (std::uint64_t i = 0; i < 4 * VmSlotIndex::slack; ++i) {
        index.added(1, i % 8);
        index.removed(1);
        ASSERT_LE(index.slots(1).size(),
                  VmSlotIndex::bound(index.resident(1)));
    }
    EXPECT_EQ(index.resident(1), 1u);
    EXPECT_LT(index.slots(1).size(), VmSlotIndex::bound(1));
}

} // namespace
} // namespace pomtlb
