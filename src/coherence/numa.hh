/**
 * @file
 * CC-NUMA machine models for the multiprocessor evaluation
 * (Section 6).
 *
 * Two node architectures are compared, both running the same
 * directory-based write-invalidate protocol on 32-byte units with
 * the Table 6 latencies:
 *
 *  - Integrated: the proposed device. The column-buffer data cache
 *    (2-way, 512-byte lines) with an optional victim cache filters
 *    accesses; remote data is cached in a 7-way INC held in DRAM;
 *    imported blocks stage through the victim cache.
 *
 *  - ReferenceCcNuma: a conventional node with a 16 KB direct-mapped
 *    first-level cache (32-byte lines) and an INFINITE second-level
 *    cache, the idealised comparison system of Section 6.1 (no SLC
 *    capacity misses; only cold and coherence misses remain).
 *
 * The model is execution-driven and synchronous: each access runs
 * the full protocol immediately and returns its latency; remote
 * operations invalidate/downgrade the other nodes' cache structures
 * directly, so presence information is always consistent.
 */

#ifndef MEMWALL_COHERENCE_NUMA_HH
#define MEMWALL_COHERENCE_NUMA_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "coherence/directory.hh"
#include "coherence/flat_table.hh"
#include "common/rng.hh"
#include "interconnect/fabric.hh"
#include "coherence/inc.hh"
#include "coherence/protocol.hh"
#include "mem/cache.hh"
#include "mem/column_cache.hh"

namespace memwall {

/** Node architecture selector. */
enum class NodeArch {
    Integrated,       ///< CC-NUMA: column buffers (+ VC) + INC
    ReferenceCcNuma,  ///< 16 KB DM FLC + infinite SLC
    /**
     * Simple-COMA on the integrated device (Section 4.2 says both
     * are supported; the authors' HPCA'95 "An Argument for Simple
     * COMA" is reference [21]). Memory behaves as an attraction
     * cache: pages are replicated into the local DRAM on first use
     * (page-grain allocation, 32-byte-grain coherence), so re-used
     * remote data costs a 6-cycle local access instead of an INC
     * lookup, at the price of replication storage.
     */
    SimpleComa,
};

/**
 * Error process of the protocol engines. A loaded (or flaky) home
 * engine NACKs an incoming remote transaction instead of servicing
 * it; the requester backs off exponentially and retries a bounded
 * number of times. Exhausting the retry budget is counted as a
 * protocol failure (machine-check material) and the transaction is
 * then forced through, so forward progress is never lost silently.
 * Disabled by default (nack_rate == 0 draws nothing from the RNG, so
 * fault-free runs reproduce bit-for-bit).
 */
struct ProtocolFaultConfig
{
    /** Probability that one remote transaction attempt is NACKed. */
    double nack_rate = 0.0;
    /** Retries before the requester raises a machine check. */
    unsigned max_retries = 8;
    /** Backoff before the first retry (doubles per retry). */
    Cycles backoff_base = 16;
    /** Upper bound on a single backoff interval. */
    Cycles backoff_cap = 1024;
    /** Seed of the NACK stream. */
    std::uint64_t seed = 42;

    bool enabled() const { return nack_rate > 0.0; }
};

/**
 * Deliberate protocol corruption (verification test hook). Each
 * mutation disables exactly one protocol transition so the shadow
 * checker's sensitivity can be proven: a correct checker MUST flag
 * every mutated run. None (the default) leaves the protocol intact.
 */
enum class ProtocolMutation : std::uint8_t {
    None,            ///< protocol behaves correctly
    SkipInvalidate,  ///< leave one stale sharer on every invalidation
    DropSharer,      ///< load misses are not recorded in the directory
    WrongOwner,      ///< stores grant ownership to the wrong node
    MissedDowngrade, ///< loads from a dirty block skip the M->S step
};

/** Decoded name of @p mutation ("none", "skip-invalidate", ...). */
const char *protocolMutationName(ProtocolMutation mutation);

/**
 * Observer of every protocol action of one NumaMachine (the hook
 * surface the runtime verification layer in src/verify/ attaches
 * to). All hooks default to no-ops; with no observer attached the
 * machine pays one predictable-branch test per action.
 */
class ProtocolObserver
{
  public:
    virtual ~ProtocolObserver() = default;

    /** A node's copy of @p block was invalidated. */
    virtual void copyInvalidated(unsigned, Addr, Tick) {}

    /** A remote transaction attempt was NACKed (tries so far). */
    virtual void protocolNack(unsigned, Addr, unsigned, Tick) {}

    /** A NACKed transaction retries after backing off. */
    virtual void protocolRetry(unsigned, Addr, unsigned, Cycles,
                               Tick) {}

    /** The retry budget was exhausted (machine-check material). */
    virtual void protocolMachineCheck(unsigned, Addr, Tick) {}

    /** A fabric message was delivered (contention mode only):
     * (deliver tick, src, dst, attempts, link gave up). */
    virtual void linkMessage(Tick, unsigned, unsigned, unsigned,
                             bool) {}

    /**
     * One access completed: requester, block, store?, service
     * level, latency, start time, the 14-bit directory entry before
     * the access and the decoded entry after it.
     */
    virtual void accessEnd(unsigned, Addr, bool, ServiceLevel,
                           Cycles, Tick, std::uint16_t,
                           const DirEntry &) {}
};

/** Machine-wide configuration. */
struct NumaConfig
{
    unsigned nodes = 16;
    NodeArch arch = NodeArch::Integrated;
    /** Victim cache present (Integrated only). */
    bool victim_cache = true;
    /** Table 6 latencies. */
    LatencyTable latency = {};
    /** INC geometry (Integrated only). */
    IncConfig inc = {};
    /** Home interleaving granularity (bytes, power of two). */
    std::uint32_t page_bytes = 4 * KiB;
    /**
     * First-touch page placement: a page's home is the first CPU
     * that references it (the standard NUMA policy of the era and
     * the behaviour SPLASH codes were tuned for). When false, pages
     * interleave round-robin.
     */
    bool first_touch = true;
    /** FLC geometry for the reference node. */
    CacheConfig flc = {16 * KiB, 32, 1, ReplPolicy::LRU, 32, "flc"};
    /**
     * Model fabric and protocol-engine contention instead of the
     * fixed Table 6 remote latencies. Remote transactions then
     * occupy one of the sender's four serial links and the home
     * node's protocol engine; the charged latency is the larger of
     * the Table 6 figure and the contended round trip. (The paper
     * notes its fixed numbers are conservative for an unloaded
     * fabric; this switch explores the loaded case.)
     */
    bool model_fabric_contention = false;
    /** Serial-link fabric parameters (contention mode). */
    FabricConfig fabric = {};
    /** Protocol-engine occupancy per remote transaction (cycles),
     * from the S3.mp engine microcode budget. */
    Cycles engine_occupancy = 12;
    /** Column cache geometry for the integrated node. */
    ColumnCacheConfig columns = {};
    /** Protocol-engine NACK/retry error process. */
    ProtocolFaultConfig protocol_fault = {};
    /** Deliberate protocol corruption (verification test hook). */
    ProtocolMutation mutation = ProtocolMutation::None;
};

/** Per-node access statistics. */
struct NodeStats
{
    Counter cache_hits;
    Counter local_mem;
    Counter inc_hits;
    Counter remote_loads;
    Counter invalidations;
    Counter total;

    std::uint64_t hits() const { return cache_hits.value(); }
};

/**
 * The shared-memory machine. Thread-compatible with the MP
 * scheduler: only one simulated CPU executes at a time, so no
 * internal locking is needed.
 */
class NumaMachine
{
  public:
    explicit NumaMachine(NumaConfig config = {});

    /**
     * Perform one data access by CPU @p cpu at time @p now (the
     * timestamp only matters in fabric-contention mode).
     * @return the access latency in cycles.
     */
    Cycles
    access(unsigned cpu, Addr addr, bool store, Tick now = 0)
    {
        if (!obs_)
            return accessImpl(cpu, addr, store, now);
        return accessObserved(cpu, addr, store, now);
    }

    /** Service level of the most recent access (for tests). */
    ServiceLevel lastService() const { return last_service_; }

    /**
     * Home node of @p addr: the assigned first-touch home, or the
     * round-robin interleave for pages never touched (or when
     * first_touch is off).
     */
    unsigned homeOf(Addr addr) const;

    const NumaConfig &config() const { return config_; }
    const NodeStats &nodeStats(unsigned cpu) const;
    const Directory &directory() const { return directory_; }

    /** Aggregate counters across nodes. */
    std::uint64_t totalAccesses() const;
    std::uint64_t totalRemoteLoads() const;
    std::uint64_t totalInvalidations() const;

    /** Fabric instance (null unless fabric contention is modelled). */
    const Fabric *fabric() const { return fabric_.get(); }

    /**
     * Attach (or with nullptr detach) a protocol observer. At most
     * one observer is supported; it must outlive the machine or be
     * detached first. Also mirrors fabric messages into the
     * observer when fabric contention is modelled.
     */
    void attachObserver(ProtocolObserver *observer);

    /** The attached observer (null when verification is off). */
    ProtocolObserver *observer() const { return obs_; }

    /** Protocol transitions corrupted by the configured mutation. */
    std::uint64_t mutatedTransitions() const
    {
        return mutated_transitions_;
    }

    // Protocol-fault bookkeeping (all zero when the fault model is
    // disabled).
    /** Remote transaction attempts NACKed by a protocol engine. */
    std::uint64_t protocolNacks() const { return nacks_.value(); }
    /** Backoff-spaced retries that followed those NACKs. */
    std::uint64_t protocolRetries() const { return retries_.value(); }
    /** Transactions that exhausted the retry budget. */
    std::uint64_t protocolFailures() const
    {
        return proto_failures_.value();
    }

  private:
    struct Node
    {
        // Integrated structures. The INC is built on the node's
        // first import, so nodes that never import (every node of a
        // 1-node machine) never allocate its tag array.
        std::unique_ptr<ColumnDataCache> columns;
        std::unique_ptr<InterNodeCache> inc;
        // Reference structures.
        std::unique_ptr<Cache> flc;
        // Simple-COMA: 1 + the local frame assigned to each
        // replicated page (0 until the page is replicated here).
        FlatTable<std::uint64_t, 9> frames;
        std::uint64_t next_frame = 0;
        NodeStats stats;
    };

    /**
     * Tag/index under which @p node's physically indexed caches see
     * @p addr: imported blocks keep their global block address;
     * local-home blocks translate to the node's contiguous local
     * DRAM space (disjoint range).
     */
    Addr cacheView(unsigned node, Addr addr) const;

    /** Fill @p block into @p node's local cache structures. */
    void fillLocal(unsigned node, Addr block, bool store);
    /** Remove @p block from @p node (invalidation). */
    void invalidateAt(unsigned node, Addr block);
    /** Invalidate every copy except @p keep's. */
    void invalidateSharers(const DirEntry &entry, Addr block,
                           unsigned keep);

    struct PagePlacement
    {
        /** Index of this page within its home's local DRAM. */
        std::uint64_t local_frame = 0;
        unsigned home = 0;
        /** False until the page's first access places it. */
        bool placed = false;
    };

    /** Local-DRAM tag of @p block under placement @p p. */
    Addr
    localView(const PagePlacement &p, Addr block) const
    {
        // Local pages are contiguous in the node's physical DRAM, and
        // the column buffers / FLC are physically indexed — without
        // this translation the interleaved global addresses of a
        // P-node machine would alias into a fraction of the cache
        // sets. Bit 47 keeps the local range disjoint from the global
        // space, so imported and local tags can share one structure
        // without false matches.
        return (Addr{1} << 47) |
               (p.local_frame * config_.page_bytes + pageOffset(block));
    }

    /**
     * Home of @p addr's page, placing the page on its first access
     * (by @p toucher), with @p toucher's cacheView() of @p addr in
     * @p view: one pages_ lookup for the access hot path.
     */
    unsigned resolveHomeAndView(Addr addr, unsigned toucher,
                                Addr &view);

    /** @p node's INC, built on first use. */
    InterNodeCache &incOf(Node &node);

    // Membership of @p node in @p block's replicas_ mask.
    bool
    hasReplica(unsigned node, Addr block) const
    {
        const std::uint16_t *mask =
            replicas_.find(block / coherence_unit);
        return mask && (*mask >> node & 1u);
    }
    void
    addReplica(unsigned node, Addr block)
    {
        replicas_[block / coherence_unit] |=
            static_cast<std::uint16_t>(1u << node);
    }
    void
    dropReplica(unsigned node, Addr block)
    {
        if (std::uint16_t *mask = replicas_.find(block / coherence_unit))
            *mask &= static_cast<std::uint16_t>(~(1u << node));
    }

    /** Contended cost of a request/reply round trip to @p home. */
    Cycles remoteRoundTrip(unsigned cpu, unsigned home, Addr block,
                           Tick now, Cycles floor);

    /** Protocol body of access(). */
    Cycles accessImpl(unsigned cpu, Addr addr, bool store,
                      Tick now);
    /** accessImpl() wrapped in the observer hooks. */
    Cycles accessObserved(unsigned cpu, Addr addr, bool store,
                          Tick now);

    NumaConfig config_;
    Directory directory_;
    ProtocolObserver *obs_ = nullptr;
    /** Start time of the access in flight (for observer hooks fired
     * from helpers that do not carry the timestamp). */
    Tick obs_now_ = 0;
    std::uint64_t mutated_transitions_ = 0;
    Rng proto_rng_;
    Counter nacks_;
    Counter retries_;
    Counter proto_failures_;
    std::unique_ptr<Fabric> fabric_;
    /** Per-node protocol-engine ready times (contention mode). */
    std::vector<Tick> engine_free_;
    std::vector<Node> nodes_;
    ServiceLevel last_service_ = ServiceLevel::CacheHit;
    /** Placement of every page touched so far, by page number. */
    FlatTable<PagePlacement, 9> pages_;
    /**
     * Per block number, bit n set while node n holds a replica
     * beyond its first-level cache: in its infinite SLC (reference
     * machine) or its attraction memory (Simple-COMA).
     */
    FlatTable<std::uint16_t, 12> replicas_;
    std::vector<std::uint64_t> frames_used_;
    /** log2(page_bytes): pages are power-of-two sized, and the
     * page-number division sits on the per-access hot path. */
    unsigned page_shift_ = 0;

    std::uint64_t pageOf(Addr addr) const
    {
        return addr >> page_shift_;
    }
    Addr pageOffset(Addr addr) const
    {
        return addr & (static_cast<Addr>(config_.page_bytes) - 1);
    }
};

} // namespace memwall

#endif // MEMWALL_COHERENCE_NUMA_HH
