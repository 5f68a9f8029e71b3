/**
 * @file
 * Tests for the CC-NUMA machine models: protocol transitions,
 * Table 6 latencies, victim-cache staging, first-touch placement.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "coherence/numa.hh"
#include "common/rng.hh"

using namespace memwall;

namespace {

NumaConfig
integrated(unsigned nodes = 4, bool victim = true)
{
    NumaConfig c;
    c.nodes = nodes;
    c.arch = NodeArch::Integrated;
    c.victim_cache = victim;
    return c;
}

NumaConfig
reference(unsigned nodes = 4)
{
    NumaConfig c;
    c.nodes = nodes;
    c.arch = NodeArch::ReferenceCcNuma;
    return c;
}

} // namespace

TEST(Numa, FirstTouchAssignsHome)
{
    NumaMachine m(integrated());
    m.access(2, 0x100000, false);
    EXPECT_EQ(m.homeOf(0x100000), 2u);
    // Same page, any other toucher: home is fixed.
    m.access(3, 0x100800, false);
    EXPECT_EQ(m.homeOf(0x100800), 2u);
}

TEST(Numa, InterleavedPlacementWhenDisabled)
{
    NumaConfig c = integrated(4);
    c.first_touch = false;
    NumaMachine m(c);
    m.access(0, 0x0, false);
    EXPECT_EQ(m.homeOf(0x0), 0u);
    EXPECT_EQ(m.homeOf(0x1000), 1u);
    EXPECT_EQ(m.homeOf(0x2000), 2u);
    EXPECT_EQ(m.homeOf(0x4000), 0u);
}

TEST(Numa, UntouchedPageInterleaves)
{
    NumaMachine m(integrated(4));
    m.access(3, 0x100000, false);  // page 256, first touch by cpu 3
    EXPECT_EQ(m.homeOf(0x100000), 3u);
    // Untouched pages, beside the placed one and far from it.
    EXPECT_EQ(m.homeOf(0x101000), 257u % 4);
    EXPECT_EQ(m.homeOf(0xff000), 255u % 4);
    EXPECT_EQ(m.homeOf((Addr{1} << 40) + 0x2000), 2u);
}

TEST(Numa, DescendingFirstTouchesKeepTheirHomes)
{
    // Pages touched top-down, 4 MiB apart: each first touch makes
    // its placement chunk below every chunk made so far.
    NumaMachine m(integrated(4));
    for (unsigned i = 12; i-- > 0;)
        m.access(i % 4, 0x10000000 + i * 4 * MiB, i % 3 == 0);
    for (unsigned i = 0; i < 12; ++i) {
        EXPECT_EQ(m.homeOf(0x10000000 + i * 4 * MiB), i % 4) << i;
        // The home still hits its own data in the column buffers.
        EXPECT_EQ(m.access(i % 4, 0x10000000 + i * 4 * MiB, false), 1u)
            << i;
    }
}

TEST(Numa, FarApartTouchesStayIndependent)
{
    NumaMachine m(integrated(4));
    const Addr far = Addr{1} << 40;
    m.access(1, 0x200000, false);
    m.access(2, 0x200000 + far, true);
    EXPECT_EQ(m.homeOf(0x200000), 1u);
    EXPECT_EQ(m.homeOf(0x200000 + far), 2u);
    // Two directory chunks back the two blocks, not the span.
    EXPECT_EQ(m.directory().materialisedEntries(),
              2 * Directory::chunk_entries);
    EXPECT_EQ(m.access(0, 0x200000 + far, false), 80u);
    EXPECT_EQ(m.directory().lookup(0x200000 + far).state(),
              DirState::Shared);
    EXPECT_EQ(m.directory().lookup(0x200000).state(), DirState::Shared);
}

TEST(Numa, LocalColdMissCostsLocalMemory)
{
    NumaMachine m(integrated());
    const Cycles lat = m.access(0, 0x1000, false);
    EXPECT_EQ(lat, 6u);  // Table 6: local memory
    EXPECT_EQ(m.lastService(), ServiceLevel::LocalMemory);
}

TEST(Numa, LocalReuseHitsColumnBuffer)
{
    NumaMachine m(integrated());
    m.access(0, 0x1000, false);
    const Cycles lat = m.access(0, 0x1000, false);
    EXPECT_EQ(lat, 1u);
    EXPECT_EQ(m.lastService(), ServiceLevel::CacheHit);
}

TEST(Numa, ColumnPrefetchServesNeighbours)
{
    // The 512-byte column fill makes the neighbouring blocks of the
    // same column 1-cycle hits — the long-line prefetch effect.
    NumaMachine m(integrated());
    m.access(0, 0x1000, false);
    EXPECT_EQ(m.access(0, 0x1040, false), 1u);
    EXPECT_EQ(m.access(0, 0x11ff, false), 1u);
}

TEST(Numa, RemoteColdLoadCosts80)
{
    NumaMachine m(integrated());
    m.access(1, 0x200000, false);  // node 1 first-touches: home 1
    const Cycles lat = m.access(0, 0x200000, false);
    EXPECT_EQ(lat, 80u);
    EXPECT_EQ(m.lastService(), ServiceLevel::Remote);
}

TEST(Numa, ImportedBlockHitsVictimCacheThenInc)
{
    NumaMachine m(integrated());
    m.access(1, 0x200000, false);
    m.access(0, 0x200000, false);  // import, staged in VC
    // Immediate reuse: 1-cycle VC hit.
    EXPECT_EQ(m.access(0, 0x200000, false), 1u);
    EXPECT_EQ(m.lastService(), ServiceLevel::CacheHit);
    // Push 16 other blocks through the victim cache to evict it.
    for (unsigned i = 1; i <= 16; ++i)
        m.access(0, 0x200000 + i * 32ull, false);
    // Now it falls back to the INC at 6+1 cycles.
    const Cycles lat = m.access(0, 0x200000, false);
    EXPECT_EQ(lat, 7u);
    EXPECT_EQ(m.lastService(), ServiceLevel::IncHit);
}

TEST(Numa, WithoutVictimCacheRemoteReuseGoesToInc)
{
    NumaMachine m(integrated(4, /*victim=*/false));
    m.access(1, 0x200000, false);
    m.access(0, 0x200000, false);
    const Cycles lat = m.access(0, 0x200000, false);
    EXPECT_EQ(lat, 7u);  // INC data + tag check
    EXPECT_EQ(m.lastService(), ServiceLevel::IncHit);
}

TEST(Numa, StoreToSharedInvalidates)
{
    NumaMachine m(integrated());
    m.access(0, 0x100000, false);  // home 0, shared by 0
    m.access(1, 0x100000, false);  // shared by 1 too
    const Cycles lat = m.access(0, 0x100000, true);
    EXPECT_EQ(lat, 80u);  // invalidation round trip
    EXPECT_EQ(m.lastService(), ServiceLevel::Invalidation);
    // Node 1's copy is gone: its next read re-imports.
    const Cycles lat1 = m.access(1, 0x100000, false);
    EXPECT_EQ(lat1, 80u);
}

TEST(Numa, OwnerStoresHitAfterUpgrade)
{
    NumaMachine m(integrated());
    m.access(0, 0x100000, true);  // local store: M(0)
    EXPECT_EQ(m.access(0, 0x100000, true), 1u);
    EXPECT_EQ(m.access(0, 0x100008, true), 1u);  // same block
}

TEST(Numa, LoadFromDirtyRemoteDowngrades)
{
    NumaMachine m(integrated());
    m.access(0, 0x100000, true);  // M(0), home 0
    const Cycles lat = m.access(1, 0x100000, false);
    EXPECT_EQ(lat, 80u);  // fetched through the owner
    // The owner keeps a shared copy: its reload is cheap.
    EXPECT_EQ(m.access(0, 0x100000, false), 1u);
    // A new store by node 0 needs invalidation again.
    EXPECT_EQ(m.access(0, 0x100000, true), 80u);
}

TEST(Numa, ReferenceFlcHitsAfterImport)
{
    NumaMachine m(reference());
    m.access(1, 0x300000, false);
    m.access(0, 0x300000, false);  // remote 80, fills FLC
    EXPECT_EQ(m.access(0, 0x300000, false), 1u);
}

TEST(Numa, ReferenceInfiniteSlcAbsorbsCapacity)
{
    NumaMachine m(reference());
    // Stream far beyond the 16 KB FLC, all local.
    for (Addr a = 0; a < 64 * KiB; a += 32)
        m.access(0, 0x400000 + a, false);
    // The first line was evicted from the FLC but the infinite SLC
    // still has it: 6 cycles, not 80.
    const Cycles lat = m.access(0, 0x400000, false);
    EXPECT_EQ(lat, 6u);
    EXPECT_EQ(m.lastService(), ServiceLevel::LocalMemory);
}

TEST(Numa, InvalidationRemovesFromSlcToo)
{
    NumaMachine m(reference());
    m.access(0, 0x500000, false);
    m.access(1, 0x500000, false);
    m.access(1, 0x500000, true);  // invalidates node 0
    const Cycles lat = m.access(0, 0x500000, false);
    EXPECT_EQ(lat, 80u);  // gone from FLC and SLC
}

TEST(Numa, ColumnInvalidationDropsWholeColumn)
{
    // Integrated long-line cost: invalidating one 32-byte block
    // kills the surrounding 512-byte column (Section 6.2).
    NumaMachine m(integrated());
    m.access(0, 0x100000, false);
    EXPECT_EQ(m.access(0, 0x100040, false), 1u);  // same column
    m.access(1, 0x100000, true);  // invalidates node 0's column
    const Cycles lat = m.access(0, 0x100040, false);
    EXPECT_GT(lat, 1u);
}

TEST(Numa, StatsAccumulate)
{
    NumaMachine m(integrated());
    m.access(0, 0x100000, false);
    m.access(0, 0x100000, false);
    m.access(1, 0x100000, false);
    EXPECT_EQ(m.totalAccesses(), 3u);
    EXPECT_EQ(m.nodeStats(0).total.value(), 2u);
    EXPECT_EQ(m.nodeStats(1).total.value(), 1u);
    EXPECT_EQ(m.totalRemoteLoads(), 1u);
}

TEST(Numa, SixteenNodesSupported)
{
    NumaMachine m(integrated(16));
    for (unsigned cpu = 0; cpu < 16; ++cpu)
        m.access(cpu, 0x600000 + cpu * 0x10000ull, false);
    EXPECT_EQ(m.totalAccesses(), 16u);
}

TEST(NumaDeath, RejectsSeventeenNodes)
{
    NumaConfig c = integrated(17);
    EXPECT_DEATH(NumaMachine m(c), "director");
}

TEST(Numa, BroadcastInvalidationAfterOverflow)
{
    NumaMachine m(integrated(8));
    // Five sharers overflow the 3-pointer directory.
    m.access(0, 0x700000, false);
    for (unsigned cpu = 1; cpu < 5; ++cpu)
        m.access(cpu, 0x700000, false);
    // A store must now broadcast; every other copy dies.
    m.access(7, 0x700000, true);
    for (unsigned cpu = 0; cpu < 5; ++cpu) {
        const Cycles lat = m.access(cpu, 0x700000, false);
        EXPECT_EQ(lat, 80u) << "cpu " << cpu;
    }
}

// ---- Simple-COMA mode (Section 4.2 / reference [21]) -----------------

namespace {

NumaConfig
scoma(unsigned nodes = 4)
{
    NumaConfig c;
    c.nodes = nodes;
    c.arch = NodeArch::SimpleComa;
    // Disable the victim cache so the attraction-memory paths are
    // observable (otherwise the VC catches evicted blocks at 1
    // cycle, which is correct but hides the 6-cycle path).
    c.victim_cache = false;
    return c;
}

} // namespace

TEST(SimpleComa, FirstRemoteTouchReplicatesThenLocal)
{
    NumaMachine m(scoma());
    m.access(1, 0x200000, false);  // node 1 first-touch (home 1)
    // Node 0's first access: fabric fetch + replication.
    EXPECT_EQ(m.access(0, 0x200000, false), 80u);
    // Column hit right after.
    EXPECT_EQ(m.access(0, 0x200000, false), 1u);
    // Push the column out with conflicting local columns; the block
    // is still in node 0's attraction memory: 6 cycles, NOT remote.
    for (int i = 1; i <= 4; ++i)
        m.access(0, 0x200000 + i * 0x2000ull, false);
    const Cycles lat = m.access(0, 0x200000, false);
    EXPECT_EQ(lat, 6u);
    EXPECT_EQ(m.lastService(), ServiceLevel::LocalMemory);
}

TEST(SimpleComa, ComparedToIncForRemoteReuse)
{
    // The headline S-COMA advantage: re-used remote data costs a
    // local access (6) instead of an INC lookup (7) or a remote
    // reload, without depending on INC capacity.
    NumaMachine ccnuma(integrated(2, /*victim=*/false));
    NumaMachine sc(scoma(2));
    for (NumaMachine *m : {&ccnuma, &sc})
        m->access(1, 0x300000, false);  // home at node 1
    ccnuma.access(0, 0x300000, false);
    sc.access(0, 0x300000, false);
    // Evict from columns in both (conflicting local fills).
    for (int i = 1; i <= 4; ++i) {
        ccnuma.access(0, 0x300000 + i * 0x2000ull, false);
        sc.access(0, 0x300000 + i * 0x2000ull, false);
    }
    const Cycles inc_cost = ccnuma.access(0, 0x300000, false);
    const Cycles scoma_cost = sc.access(0, 0x300000, false);
    EXPECT_EQ(inc_cost, 7u);   // INC data + tag check
    EXPECT_EQ(scoma_cost, 6u); // plain local DRAM access
}

TEST(SimpleComa, InvalidationEvictsReplica)
{
    NumaMachine m(scoma());
    m.access(1, 0x400000, false);
    m.access(0, 0x400000, false);  // replicate at node 0
    m.access(1, 0x400000, true);   // writer invalidates node 0
    // Node 0 must re-fetch across the fabric.
    EXPECT_EQ(m.access(0, 0x400000, false), 80u);
}

TEST(SimpleComa, StoresFollowSameProtocol)
{
    NumaMachine m(scoma());
    m.access(0, 0x500000, true);  // local store, M(0)
    EXPECT_EQ(m.access(0, 0x500000, true), 1u);
    m.access(1, 0x500000, false);  // downgrade + replicate at 1
    EXPECT_EQ(m.access(0, 0x500000, true), 80u);  // invalidate 1
    EXPECT_EQ(m.access(1, 0x500000, false), 80u); // gone at 1
}

TEST(SimpleComa, PagesGetPerNodeFrames)
{
    // Two nodes replicating the same pages must not alias each
    // other's cache views (frames are per node).
    NumaMachine m(scoma(2));
    m.access(0, 0xa00000, false);
    m.access(1, 0xa00000, false);
    m.access(0, 0xa00000, false);
    m.access(1, 0xa00000, false);
    EXPECT_EQ(m.access(0, 0xa00000, false), 1u);
    EXPECT_EQ(m.access(1, 0xa00000, false), 1u);
}

TEST(SimpleComa, SiblingBlocksSurviveRemoteInvalidation)
{
    // Invalidating one block of a replicated attraction page must
    // not take out the rest of the page: only the victim's column
    // is dropped (512-byte columns keep no holes) and only the
    // victim leaves the attraction memory.
    NumaMachine m(scoma());
    m.access(1, 0x600000, false);  // home 1
    m.access(1, 0x600200, false);  // same page, different column
    m.access(0, 0x600000, false);  // replicate page at node 0
    m.access(0, 0x600200, false);
    m.access(1, 0x600000, true);   // invalidate node 0's copy
    // The sibling column was untouched by the invalidation.
    EXPECT_EQ(m.access(0, 0x600200, false), 1u);
    // The invalidated block needs a full refetch.
    EXPECT_EQ(m.access(0, 0x600000, false), 80u);
    // Push the sibling's column out: the replicated page frame
    // still serves it from local DRAM at 6 cycles.
    for (int i = 1; i <= 4; ++i)
        m.access(0, 0x600200 + i * 0x2000ull, false);
    const Cycles sibling = m.access(0, 0x600200, false);
    EXPECT_EQ(sibling, 6u);
    EXPECT_EQ(m.lastService(), ServiceLevel::LocalMemory);
}

TEST(SimpleComa, DirtyReplicaRefetchKeepsOwnership)
{
    // A dirty block falling out of the column buffers is still in
    // the node's attraction memory with ownership retained: the
    // refetch is a 6-cycle local DRAM access, not an 80-cycle
    // coherence transaction.
    NumaMachine m(scoma());
    m.access(1, 0x700000, false);  // home 1
    m.access(0, 0x700000, true);   // node 0 takes M(0); replica dirty
    for (int i = 1; i <= 4; ++i)   // push the column out
        m.access(0, 0x700000 + i * 0x2000ull, false);
    EXPECT_EQ(m.access(0, 0x700000, true), 6u);
    EXPECT_EQ(m.lastService(), ServiceLevel::LocalMemory);
    EXPECT_EQ(m.access(0, 0x700000, true), 1u);  // back in columns
}

TEST(SimpleComa, VictimCacheCatchesEvictedReplica)
{
    // With the victim cache enabled, a replica evicted from the
    // columns is staged there and re-hits at 1 cycle instead of
    // paying the 6-cycle attraction-memory path.
    NumaConfig c = scoma();
    c.victim_cache = true;
    NumaMachine m(c);
    m.access(1, 0x800000, false);
    m.access(0, 0x800000, false);  // replicate at node 0
    for (int i = 1; i <= 4; ++i)
        m.access(0, 0x800000 + i * 0x2000ull, false);
    EXPECT_EQ(m.access(0, 0x800000, false), 1u);
    EXPECT_EQ(m.lastService(), ServiceLevel::CacheHit);
}

TEST(Numa, InvalidationClearsVictimAndIncStaging)
{
    // An imported block lives in both the victim cache (staged) and
    // the INC; a remote invalidation must clear every level so the
    // next access pays the full remote fetch, never serving stale
    // data from a staging structure.
    NumaMachine m(integrated());
    m.access(1, 0x900000, false);  // home 1
    m.access(0, 0x900000, false);  // import: INC + VC staged
    EXPECT_EQ(m.access(0, 0x900000, false), 1u);  // VC hit
    m.access(1, 0x900000, true);   // invalidates node 0 everywhere
    const Cycles lat = m.access(0, 0x900000, false);
    EXPECT_EQ(lat, 80u);
    EXPECT_EQ(m.lastService(), ServiceLevel::Remote);
}

// ---- Fabric-contention mode -------------------------------------------

TEST(FabricContention, UnloadedMatchesTable6)
{
    NumaConfig c = integrated();
    c.model_fabric_contention = true;
    NumaMachine m(c);
    m.access(1, 0x200000, false, 0);
    // A single unloaded remote load still costs the Table 6 floor
    // (the serial links are faster than 80 cycles when idle).
    const Cycles lat = m.access(0, 0x200000, false, 1000);
    EXPECT_EQ(lat, 80u);
}

TEST(FabricContention, HotHomeEngineQueues)
{
    NumaConfig c = integrated(8);
    c.model_fabric_contention = true;
    NumaMachine m(c);
    // Node 7 owns a hot page.
    m.access(7, 0x700000, false, 0);
    // Seven other nodes storm it at the same instant: later
    // requests queue at node 7's protocol engine and exceed 80.
    Cycles max_lat = 0;
    for (unsigned cpu = 0; cpu < 7; ++cpu)
        max_lat = std::max(
            max_lat, m.access(cpu, 0x700000 + cpu * 32ull, false,
                              1000));
    EXPECT_GT(max_lat, 80u);
}

TEST(FabricContention, DisabledModeIgnoresTime)
{
    NumaMachine a(integrated());
    NumaMachine b(integrated());
    a.access(1, 0x200000, false, 0);
    b.access(1, 0x200000, false, 12345);
    EXPECT_EQ(a.access(0, 0x200000, false, 0),
              b.access(0, 0x200000, false, 99999));
}

// ---- Pinned protocol traces ---------------------------------------------

namespace {

/** FNV-1a over the little-endian bytes of each mixed value. */
struct TraceHash
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

enum class PinPattern {
    FalseSharing,
    HotContended,
    Migratory,
    RandomMix,
    Dense,
};

/**
 * Drive @p n accesses of @p pattern, each CPU on its own clock so
 * that remote transactions overlap in contention mode. The first
 * four patterns are the shapes validation_protocol_torture stresses;
 * Dense walks page-aligned arrays laid out one after another the way
 * MpRuntime's bump allocator places SPLASH data.
 */
void
drivePinPattern(NumaMachine &m, Rng &rng, PinPattern pattern,
                std::uint64_t n, std::vector<Tick> &clock,
                TraceHash &hash)
{
    const unsigned nodes = m.config().nodes;
    const Addr heap = Addr{1} << 20;
    const Addr dense = 0x10000000;
    const std::uint64_t array_bytes = 192 * KiB;
    for (std::uint64_t i = 0; i < n; ++i) {
        unsigned cpu = 0;
        Addr addr = heap;
        bool store = false;
        switch (pattern) {
          case PinPattern::FalseSharing:
            cpu = static_cast<unsigned>(i % nodes);
            addr = heap + (i / nodes % 8) * 32 + (cpu % 8) * 4;
            store = rng.bernoulli(0.5);
            break;
          case PinPattern::HotContended:
            cpu = static_cast<unsigned>(rng.uniformInt(nodes));
            addr = heap + rng.uniformInt(4) * 32;
            store = (i & 1) != 0;
            break;
          case PinPattern::Migratory:
            cpu = static_cast<unsigned>(i / 2 % nodes);
            addr = heap + (i / (2 * nodes) % 16) * 32;
            store = (i & 1) != 0;
            break;
          case PinPattern::RandomMix:
            cpu = static_cast<unsigned>(rng.uniformInt(nodes));
            addr = heap + rng.uniformInt(512) * 32;
            store = rng.bernoulli(0.3);
            break;
          case PinPattern::Dense: {
            // Each CPU sweeps the first array from its own slice on
            // (8-byte elements, every third one written), running
            // into its neighbours' slices; every fifth access reads
            // a random block of the second array.
            cpu = static_cast<unsigned>(i % nodes);
            const std::uint64_t k = i / nodes;
            if (k % 5 == 4) {
                addr = dense + array_bytes +
                       rng.uniformInt(array_bytes / 32) * 32;
            } else {
                addr = dense + (cpu * (array_bytes / nodes) + k * 8) %
                                   array_bytes;
                store = k % 3 == 0;
            }
            break;
          }
        }
        const Cycles latency = m.access(cpu, addr, store, clock[cpu]);
        clock[cpu] += latency;
        hash.mix(latency);
        hash.mix(static_cast<std::uint64_t>(m.lastService()));
        hash.mix(m.directory().lookup(addr).encode());
    }
}

struct PinnedRun
{
    const char *name;
    NodeArch arch;
    bool victim;
    bool contention;
    double nack_rate;
    std::uint64_t expected;
};

/** Keeps the parameter's printed form (and so the test's listed
 *  name) free of pointer bytes. */
void
PrintTo(const PinnedRun &run, std::ostream *os)
{
    *os << run.name;
}

} // namespace

class NumaTracePin : public ::testing::TestWithParam<PinnedRun>
{
};

/**
 * Every access's latency, service level and directory encoding, and
 * the final per-node statistics, hashed and compared against values
 * recorded from the hash-container implementation of the machine.
 * Covers the Simple-COMA, fabric-contention and NACK paths that the
 * Figure 13-17 goldens never run.
 */
TEST_P(NumaTracePin, MatchesRecordedTrace)
{
    const PinnedRun run = GetParam();
    NumaConfig config;
    config.nodes = 8;
    config.arch = run.arch;
    config.victim_cache = run.victim;
    // A 64 KiB INC (128 sets) so the dense stream replaces INC lines.
    config.inc.reserved_bytes = 64 * KiB;
    config.model_fabric_contention = run.contention;
    config.protocol_fault.nack_rate = run.nack_rate;
    config.protocol_fault.seed = 99;
    NumaMachine m(config);

    TraceHash hash;
    Rng rng(2024);
    std::vector<Tick> clock(config.nodes, 0);
    for (PinPattern p :
         {PinPattern::FalseSharing, PinPattern::HotContended,
          PinPattern::Migratory, PinPattern::RandomMix,
          PinPattern::Dense})
        drivePinPattern(m, rng, p, p == PinPattern::Dense ? 40000 : 6000,
                        clock, hash);
    for (unsigned cpu = 0; cpu < config.nodes; ++cpu) {
        const NodeStats &s = m.nodeStats(cpu);
        for (const Counter *c : {&s.cache_hits, &s.local_mem, &s.inc_hits,
                                 &s.remote_loads, &s.invalidations,
                                 &s.total})
            hash.mix(c->value());
    }
    hash.mix(m.protocolNacks());
    hash.mix(m.protocolRetries());
    hash.mix(m.protocolFailures());
    for (Tick t : clock)
        hash.mix(t);
    EXPECT_EQ(hash.h, run.expected)
        << std::hex << "0x" << hash.h << " for " << run.name;
}

INSTANTIATE_TEST_SUITE_P(
    Archs, NumaTracePin,
    ::testing::Values(
        PinnedRun{"Reference", NodeArch::ReferenceCcNuma, false, false,
                  0.0, 0xa985f0c5080cf3b8ull},
        PinnedRun{"ReferenceContended", NodeArch::ReferenceCcNuma, false,
                  true, 0.0, 0x8f26512fddd95769ull},
        PinnedRun{"Integrated", NodeArch::Integrated, false, false, 0.0,
                  0xb6319674a5133eb6ull},
        PinnedRun{"IntegratedContended", NodeArch::Integrated, false,
                  true, 0.0, 0x177b03273ab10130ull},
        PinnedRun{"IntegratedVc", NodeArch::Integrated, true, false, 0.0,
                  0x1bd2b1e493ad9294ull},
        PinnedRun{"IntegratedVcContended", NodeArch::Integrated, true,
                  true, 0.0, 0x72c600faccbbf305ull},
        PinnedRun{"SimpleComa", NodeArch::SimpleComa, true, false, 0.0,
                  0x0010cb9d6081147cull},
        PinnedRun{"SimpleComaContended", NodeArch::SimpleComa, true, true,
                  0.0, 0x8be0b3ea45787971ull},
        PinnedRun{"IntegratedVcNacks", NodeArch::Integrated, true, true,
                  0.05, 0xa5030eff1b5f150eull}),
    [](const ::testing::TestParamInfo<PinnedRun> &info) {
        return std::string(info.param.name);
    });
