/**
 * @file
 * Tests for the 14-bit limited-pointer directory (Figure 5) and the
 * flat table that stores it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "coherence/directory.hh"
#include "coherence/flat_table.hh"

using namespace memwall;

namespace {

/** The entry's sharers, in pointer-slot order. */
std::vector<unsigned>
sharersOf(const DirEntry &e)
{
    const DirEntry::Sharers s = e.sharers();
    return {s.begin(), s.end()};
}

} // namespace

TEST(DirEntry, StartsUncached)
{
    DirEntry e;
    EXPECT_EQ(e.state(), DirState::Uncached);
    EXPECT_TRUE(e.sharers().empty());
    EXPECT_FALSE(e.tracks(0));
}

TEST(DirEntry, FirstSharer)
{
    DirEntry e;
    e.addSharer(5);
    EXPECT_EQ(e.state(), DirState::Shared);
    EXPECT_EQ(sharersOf(e), std::vector<unsigned>{5});
    EXPECT_TRUE(e.tracks(5));
    EXPECT_FALSE(e.tracks(4));
}

TEST(DirEntry, ThreeSharersTracked)
{
    DirEntry e;
    e.addSharer(1);
    e.addSharer(9);
    e.addSharer(15);
    EXPECT_EQ(e.state(), DirState::Shared);
    auto s = sharersOf(e);
    std::sort(s.begin(), s.end());
    EXPECT_EQ(s, (std::vector<unsigned>{1, 9, 15}));
}

TEST(DirEntry, DuplicateAddIsIdempotent)
{
    DirEntry e;
    e.addSharer(3);
    e.addSharer(3);
    e.addSharer(3);
    EXPECT_EQ(sharersOf(e), std::vector<unsigned>{3});
    EXPECT_EQ(e.state(), DirState::Shared);
}

TEST(DirEntry, FourthSharerOverflowsToBroadcast)
{
    DirEntry e;
    e.addSharer(1);
    e.addSharer(2);
    e.addSharer(3);
    EXPECT_EQ(e.state(), DirState::Shared);
    e.addSharer(4);
    EXPECT_EQ(e.state(), DirState::SharedBcast);
    // Broadcast mode conservatively tracks everyone.
    EXPECT_TRUE(e.tracks(0));
    EXPECT_TRUE(e.tracks(15));
}

TEST(DirEntry, ModifiedOwner)
{
    DirEntry e;
    e.setModified(7);
    EXPECT_EQ(e.state(), DirState::Modified);
    EXPECT_EQ(e.owner(), 7u);
    EXPECT_TRUE(e.tracks(7));
    EXPECT_FALSE(e.tracks(8));
}

TEST(DirEntry, ReadDowngradesModified)
{
    DirEntry e;
    e.setModified(2);
    e.addSharer(6);
    EXPECT_EQ(e.state(), DirState::Shared);
    auto s = sharersOf(e);
    std::sort(s.begin(), s.end());
    EXPECT_EQ(s, (std::vector<unsigned>{2, 6}));
}

TEST(DirEntry, OwnerReReadKeepsSingleSharer)
{
    DirEntry e;
    e.setModified(2);
    e.addSharer(2);
    EXPECT_EQ(e.state(), DirState::Shared);
    EXPECT_EQ(sharersOf(e), std::vector<unsigned>{2});
}

TEST(DirEntry, NodeId15Works)
{
    // The duplicate-slot encoding frees id 15 (no null sentinel).
    DirEntry e;
    e.addSharer(15);
    EXPECT_TRUE(e.tracks(15));
    e.setModified(15);
    EXPECT_EQ(e.owner(), 15u);
}

TEST(DirEntry, EncodeFitsIn14Bits)
{
    DirEntry e;
    e.addSharer(15);
    e.addSharer(14);
    e.addSharer(13);
    EXPECT_LT(e.encode(), 1u << 14);
    e.setModified(15);
    EXPECT_LT(e.encode(), 1u << 14);
}

TEST(DirEntry, EncodeDecodeRoundTrip)
{
    // Through every reachable state shape.
    std::vector<DirEntry> entries;
    DirEntry uncached;
    entries.push_back(uncached);
    DirEntry one;
    one.addSharer(4);
    entries.push_back(one);
    DirEntry two;
    two.addSharer(4);
    two.addSharer(11);
    entries.push_back(two);
    DirEntry three;
    three.addSharer(0);
    three.addSharer(7);
    three.addSharer(15);
    entries.push_back(three);
    DirEntry bcast = three;
    bcast.addSharer(9);
    entries.push_back(bcast);
    DirEntry mod;
    mod.setModified(12);
    entries.push_back(mod);

    for (const DirEntry &e : entries) {
        const DirEntry back = DirEntry::decode(e.encode());
        EXPECT_EQ(back, e);
        EXPECT_EQ(back.state(), e.state());
    }
}

TEST(DirEntry, ClearResets)
{
    DirEntry e;
    e.setModified(3);
    e.clear();
    EXPECT_EQ(e.state(), DirState::Uncached);
    EXPECT_FALSE(e.tracks(3));
}

TEST(Directory, EntriesMaterialiseOnDemand)
{
    Directory dir(16);
    EXPECT_EQ(dir.materialisedEntries(), 0u);
    EXPECT_EQ(dir.lookup(0x1000).state(), DirState::Uncached);
    EXPECT_EQ(dir.materialisedEntries(), 0u);  // lookup is read-only
    dir.entry(0x1000).addSharer(1);
    EXPECT_EQ(dir.materialisedEntries(), Directory::chunk_entries);
    EXPECT_TRUE(dir.lookup(0x1000).tracks(1));
}

TEST(Directory, BlockGranularityIs32Bytes)
{
    Directory dir(4);
    dir.entry(0x107).addSharer(2);
    // Same 32-byte block.
    EXPECT_TRUE(dir.lookup(0x11f).tracks(2));
    // Next block is independent.
    EXPECT_FALSE(dir.lookup(0x120).tracks(2));
    EXPECT_EQ(dir.materialisedEntries(), Directory::chunk_entries);
}

TEST(Directory, LookupStaysReadOnly)
{
    Directory dir(8);
    dir.entry(0x40000).setModified(3);
    const std::size_t before = dir.materialisedEntries();
    // Untouched blocks of the touched chunk, untouched chunks on
    // either side and far away: all Uncached, none materialised.
    for (Addr a : {Addr{0x40020}, Addr{0x5ffe0}, Addr{0x0},
                   Addr{0x3ffe0}, Addr{0x60000}, Addr{1} << 45}) {
        EXPECT_EQ(dir.lookup(a).state(), DirState::Uncached) << a;
        EXPECT_EQ(dir.materialisedEntries(), before) << a;
    }
    EXPECT_EQ(dir.lookup(0x40000).owner(), 3u);
}

TEST(Directory, DescendingFirstTouchesKeepEntries)
{
    // Each touch lands in a new chunk below every chunk made so far.
    Directory dir(16);
    const Addr stride = 3 * Directory::chunk_entries * coherence_unit;
    DirEntry &top = dir.entry(10 * stride);
    top.addSharer(9);
    for (unsigned i = 10; i-- > 0;)
        dir.entry(i * stride).setModified(i);
    EXPECT_EQ(dir.materialisedEntries(), 11 * Directory::chunk_entries);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(dir.lookup(i * stride).owner(), i);
    // References handed out earlier stay valid as chunks are added.
    top.addSharer(4);
    EXPECT_TRUE(dir.lookup(10 * stride).tracks(4));
    EXPECT_TRUE(dir.lookup(10 * stride).tracks(9));
}

TEST(Directory, FarApartTouchesMaterialiseTwoChunks)
{
    Directory dir(4);
    const Addr far = Addr{1} << 40;
    dir.entry(0x1000).addSharer(1);
    dir.entry(0x1000 + far).setModified(2);
    EXPECT_EQ(dir.materialisedEntries(), 2 * Directory::chunk_entries);
    EXPECT_TRUE(dir.lookup(0x1000).tracks(1));
    EXPECT_FALSE(dir.lookup(0x1000).tracks(2));
    EXPECT_EQ(dir.lookup(0x1000 + far).owner(), 2u);
    EXPECT_EQ(dir.lookup(far / 2).state(), DirState::Uncached);
}

TEST(FlatTable, ChunksAreMadeOnFirstTouchOnly)
{
    FlatTable<std::uint32_t, 4> t;  // 16 elements per chunk
    EXPECT_EQ(t.find(5), nullptr);
    EXPECT_EQ(t.chunks(), 0u);
    t[5] = 7;
    EXPECT_EQ(t.chunks(), 1u);
    ASSERT_NE(t.find(15), nullptr);
    EXPECT_EQ(*t.find(15), 0u);  // value-initialised neighbour
    EXPECT_EQ(*t.find(5), 7u);
    EXPECT_EQ(t.find(16), nullptr);
    EXPECT_EQ(t.chunks(), 1u);
}

TEST(FlatTable, GrowsBelowTheFirstChunkAndKeepsAddresses)
{
    FlatTable<std::uint64_t, 4> t;
    std::vector<std::uint64_t *> slots;
    for (std::uint64_t key = 1000; key-- > 0;) {
        if (key % 7 != 0)
            continue;
        std::uint64_t &slot = t[key];
        slot = key + 1;
        slots.push_back(&slot);
    }
    EXPECT_EQ(t.chunks(), (999 / 16) + 1);
    std::uint64_t i = 0;
    for (std::uint64_t key = 1000; key-- > 0;) {
        if (key % 7 != 0)
            continue;
        EXPECT_EQ(t.find(key), slots[i]) << key;
        EXPECT_EQ(*slots[i], key + 1) << key;
        ++i;
    }
}

TEST(FlatTable, MovedFromTableStartsEmpty)
{
    FlatTable<std::uint32_t, 4> a;
    a[3] = 7;
    FlatTable<std::uint32_t, 4> b(std::move(a));
    EXPECT_EQ(*b.find(3), 7u);
    // The moved-from table is empty and keeps no path into b's
    // chunk, so touching it again starts a chunk of its own.
    EXPECT_EQ(a.find(3), nullptr);
    a[3] = 9;
    EXPECT_EQ(*b.find(3), 7u);
    EXPECT_EQ(a.chunks(), 1u);
}

TEST(FlatTable, MemoryFollowsChunksNotSpan)
{
    FlatTable<std::uint16_t, 12> t;
    const std::uint64_t far = std::uint64_t{1} << 35;  // 2^40 bytes
    t[0] = 1;
    t[far] = 2;
    t[~std::uint64_t{0}] = 3;  // the top of the key space
    EXPECT_EQ(t.chunks(), 3u);
    EXPECT_EQ(*t.find(0), 1u);
    EXPECT_EQ(*t.find(far), 2u);
    EXPECT_EQ(*t.find(~std::uint64_t{0}), 3u);
    EXPECT_EQ(t.find(far / 2), nullptr);
}

TEST(DirectoryDeath, RejectsTooManyNodes)
{
    EXPECT_DEATH(Directory dir(17), "1..1");
}

TEST(Directory, BitsPerBlockIsFourteen)
{
    EXPECT_EQ(Directory::bitsPerBlock(), 14u);
}
