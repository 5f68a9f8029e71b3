/**
 * @file
 * Tests for the victim cache and the column-buffer cache complex —
 * the Section 4.1/5.4 structures.
 */

#include <gtest/gtest.h>

#include "mem/column_cache.hh"
#include "mem/victim_cache.hh"

using namespace memwall;

// ---- VictimCache ----------------------------------------------------

TEST(VictimCache, InsertThenHit)
{
    VictimCache vc;
    EXPECT_FALSE(vc.access(0x100, false));
    vc.insert(0x100);
    EXPECT_TRUE(vc.access(0x100, false));
    EXPECT_TRUE(vc.access(0x11f, false));   // same 32-byte block
    EXPECT_FALSE(vc.access(0x120, false));  // next block
}

TEST(VictimCache, LruReplacementAcross16Entries)
{
    VictimCache vc;  // 16 x 32 B
    for (Addr i = 0; i < 16; ++i)
        vc.insert(i * 0x1000);
    // Touch entry 0 so it is MRU.
    EXPECT_TRUE(vc.access(0x0, false));
    vc.insert(16 * 0x1000);  // evicts LRU = entry 1
    EXPECT_TRUE(vc.probe(0x0));
    EXPECT_FALSE(vc.probe(0x1000));
    EXPECT_TRUE(vc.probe(16 * 0x1000));
}

TEST(VictimCache, ReinsertRefreshes)
{
    VictimCache vc;
    for (Addr i = 0; i < 16; ++i)
        vc.insert(i * 0x1000);
    vc.insert(0x0);          // refresh existing entry, no eviction
    vc.insert(16 * 0x1000);  // evicts 0x1000, not 0x0
    EXPECT_TRUE(vc.probe(0x0));
    EXPECT_FALSE(vc.probe(0x1000));
}

TEST(VictimCache, InvalidateRemoves)
{
    VictimCache vc;
    vc.insert(0x40);
    EXPECT_TRUE(vc.invalidate(0x40));
    EXPECT_FALSE(vc.probe(0x40));
    EXPECT_FALSE(vc.invalidate(0x40));
}

TEST(VictimCache, StatsCountHitsAndMisses)
{
    VictimCache vc;
    vc.access(0x0, false);
    vc.insert(0x0);
    vc.access(0x0, true);
    EXPECT_EQ(vc.stats().load_misses.value(), 1u);
    EXPECT_EQ(vc.stats().store_hits.value(), 1u);
}

// ---- ColumnInstrCache ------------------------------------------------

TEST(VictimCacheDeath, RejectsLinesTooShortForTheEmptyMarker)
{
    // Empty entries hold an odd block address, which 1-byte lines
    // could produce.
    VictimCacheConfig c;
    c.line_size = 1;
    EXPECT_EXIT(VictimCache vc(c), ::testing::ExitedWithCode(1),
                "at least 2 bytes");
}

TEST(ColumnInstrCache, GeometryMatchesPaper)
{
    ColumnCacheConfig cfg;
    EXPECT_EQ(cfg.instrCapacity(), 8 * KiB);
    EXPECT_EQ(cfg.dataCapacity(), 16 * KiB);
    ColumnInstrCache ic(cfg);
    EXPECT_EQ(ic.cache().config().line_size, 512u);
    EXPECT_EQ(ic.cache().config().sets(), 16u);
}

TEST(ColumnInstrCache, LongLinePrefetchEffect)
{
    // Sequential code: one miss per 512 bytes = 128 instructions.
    ColumnInstrCache ic;
    for (Addr pc = 0; pc < 4096; pc += 4)
        ic.fetch(pc);
    EXPECT_EQ(ic.stats().misses(), 8u);
    EXPECT_EQ(ic.stats().accesses(), 1024u);
}

TEST(ColumnInstrCache, BankIndexing)
{
    // Addresses 8 KiB apart map to the same column (set) and
    // conflict; addresses 512 B apart map to adjacent banks.
    ColumnInstrCache ic;
    EXPECT_FALSE(ic.fetch(0x0));
    EXPECT_FALSE(ic.fetch(0x2000));  // same set, evicts
    EXPECT_FALSE(ic.fetch(0x0));     // conflict miss
    EXPECT_FALSE(ic.fetch(0x200));   // different bank
    EXPECT_TRUE(ic.fetch(0x200));
}

// ---- ColumnDataCache ---------------------------------------------------

TEST(ColumnDataCache, TwoWaySetBehaviour)
{
    ColumnCacheConfig cfg;
    cfg.victim_enabled = false;
    ColumnDataCache dc(cfg);
    EXPECT_EQ(dc.access(0x0, false), DAccessOutcome::Miss);
    EXPECT_EQ(dc.access(0x2000, false), DAccessOutcome::Miss);
    // Two ways hold both conflicting columns.
    EXPECT_EQ(dc.access(0x0, false), DAccessOutcome::HitColumn);
    EXPECT_EQ(dc.access(0x2000, false), DAccessOutcome::HitColumn);
    // A third conflicting column evicts the LRU.
    EXPECT_EQ(dc.access(0x4000, false), DAccessOutcome::Miss);
    EXPECT_EQ(dc.access(0x0, false), DAccessOutcome::Miss);
}

TEST(ColumnDataCache, EvictionDonatesSubBlockToVictim)
{
    ColumnDataCache dc;  // victim enabled
    dc.access(0x0, false);
    dc.access(0x1e8, false);  // last-touched sub-block 0x1e0
    dc.access(0x2000, false);
    dc.access(0x4000, false);  // evicts column 0x0 -> VC gets 0x1e0
    // The donated sub-block hits in the victim cache.
    EXPECT_EQ(dc.access(0x1e0, false), DAccessOutcome::HitVictim);
    // Other parts of the evicted column are gone.
    EXPECT_EQ(dc.access(0x100, false), DAccessOutcome::Miss);
}

TEST(ColumnDataCache, VictimDisabledMeansMiss)
{
    ColumnCacheConfig cfg;
    cfg.victim_enabled = false;
    ColumnDataCache dc(cfg);
    dc.access(0x0, false);
    dc.access(0x1e8, false);
    dc.access(0x2000, false);
    dc.access(0x4000, false);
    EXPECT_EQ(dc.access(0x1e0, false), DAccessOutcome::Miss);
}

TEST(ColumnDataCache, AccessNoFillDoesNotAllocate)
{
    ColumnDataCache dc;
    EXPECT_EQ(dc.accessNoFill(0x0, false), DAccessOutcome::Miss);
    EXPECT_EQ(dc.accessNoFill(0x0, false), DAccessOutcome::Miss);
    dc.access(0x0, false);
    EXPECT_EQ(dc.accessNoFill(0x0, false),
              DAccessOutcome::HitColumn);
}

TEST(ColumnDataCache, StageRemoteBlockLandsInVictim)
{
    ColumnDataCache dc;
    dc.stageRemoteBlock(0x12345e0);
    EXPECT_EQ(dc.accessNoFill(0x12345e5, false),
              DAccessOutcome::HitVictim);
}

TEST(ColumnDataCache, InvalidateBlockKillsWholeColumn)
{
    // A 512-byte column cannot keep a 32-byte hole: invalidating one
    // coherence block drops the whole buffer (Section 6.2 cost).
    ColumnDataCache dc;
    dc.access(0x0, false);
    EXPECT_TRUE(dc.invalidateBlock(0x20));
    EXPECT_EQ(dc.access(0x1c0, false), DAccessOutcome::Miss);
}

TEST(ColumnDataCache, InvalidateBlockAlsoClearsVictim)
{
    ColumnDataCache dc;
    dc.stageRemoteBlock(0x999e0);
    EXPECT_TRUE(dc.invalidateBlock(0x999e0));
    EXPECT_EQ(dc.accessNoFill(0x999e0, false),
              DAccessOutcome::Miss);
}

TEST(ColumnDataCache, AggregateStats)
{
    ColumnDataCache dc;
    dc.access(0x0, false);           // miss
    dc.access(0x8, false);           // column hit
    dc.access(0x10, true);           // column hit (store)
    EXPECT_EQ(dc.stats().misses(), 1u);
    EXPECT_EQ(dc.stats().load_hits.value(), 1u);
    EXPECT_EQ(dc.stats().store_hits.value(), 1u);
    EXPECT_DOUBLE_EQ(dc.stats().missRate(), 1.0 / 3.0);
}

TEST(ColumnDataCache, VictimHitAvoidsDramAccess)
{
    // The Section 5.4 effect in miniature: three conflicting
    // streams in one set thrash two ways, but their last-touched
    // blocks survive in the victim cache.
    ColumnDataCache with_vc;
    ColumnCacheConfig cfg;
    cfg.victim_enabled = false;
    ColumnDataCache without_vc(cfg);

    const Addr bases[3] = {0x0, 0x2000, 0x4000};  // same set
    for (int round = 0; round < 200; ++round) {
        for (const Addr base : bases) {
            const Addr addr = base + (round * 8) % 32;
            with_vc.access(addr, false);
            without_vc.access(addr, false);
        }
    }
    EXPECT_LT(with_vc.stats().missRate(),
              0.2 * without_vc.stats().missRate());
}
