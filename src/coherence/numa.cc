#include "coherence/numa.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memwall {

const char *
protocolMutationName(ProtocolMutation mutation)
{
    switch (mutation) {
      case ProtocolMutation::None:
        return "none";
      case ProtocolMutation::SkipInvalidate:
        return "skip-invalidate";
      case ProtocolMutation::DropSharer:
        return "drop-sharer";
      case ProtocolMutation::WrongOwner:
        return "wrong-owner";
      case ProtocolMutation::MissedDowngrade:
        return "missed-downgrade";
    }
    return "?";
}

NumaMachine::NumaMachine(NumaConfig config)
    : config_(config), directory_(config.nodes),
      proto_rng_(config.protocol_fault.seed)
{
    MW_ASSERT(config_.nodes >= 1 &&
                  config_.nodes <= DirEntry::max_nodes,
              "node count out of range");
    MW_ASSERT(isPowerOfTwo(config_.page_bytes),
              "page size must be a power of two");
    while ((std::uint64_t{1} << page_shift_) < config_.page_bytes)
        ++page_shift_;
    nodes_.resize(config_.nodes);
    frames_used_.assign(config_.nodes, 0);
    if (config_.model_fabric_contention) {
        fabric_ = std::make_unique<Fabric>(config_.nodes,
                                           config_.fabric);
        engine_free_.assign(config_.nodes, 0);
    }
    for (auto &node : nodes_) {
        switch (config_.arch) {
          case NodeArch::Integrated: {
            ColumnCacheConfig cc = config_.columns;
            cc.victim_enabled = config_.victim_cache;
            node.columns = std::make_unique<ColumnDataCache>(cc);
            // The INC is built by incOf() on the first import.
            break;
          }
          case NodeArch::SimpleComa: {
            ColumnCacheConfig cc = config_.columns;
            cc.victim_enabled = config_.victim_cache;
            node.columns = std::make_unique<ColumnDataCache>(cc);
            // No INC: the attraction memory subsumes it.
            break;
          }
          case NodeArch::ReferenceCcNuma:
            node.flc = std::make_unique<Cache>(config_.flc);
            break;
        }
    }
}

InterNodeCache &
NumaMachine::incOf(Node &node)
{
    if (!node.inc)
        node.inc = std::make_unique<InterNodeCache>(config_.inc);
    return *node.inc;
}

void
NumaMachine::attachObserver(ProtocolObserver *observer)
{
    obs_ = observer;
    if (!fabric_)
        return;
    // Mirror fabric deliveries into the observer so link-level
    // retransmissions and failures land in the flight recorder.
    if (obs_) {
        fabric_->setSendHook([this](Tick deliver, unsigned src,
                                    unsigned dst, MsgType,
                                    const LinkSendOutcome &out) {
            obs_->linkMessage(deliver, src, dst, out.attempts,
                              out.failed);
        });
    } else {
        fabric_->setSendHook({});
    }
}

unsigned
NumaMachine::homeOf(Addr addr) const
{
    const std::uint64_t page = pageOf(addr);
    const PagePlacement *p = pages_.find(page);
    if (p && p->placed)
        return p->home;
    return static_cast<unsigned>(page % config_.nodes);
}

Addr
NumaMachine::cacheView(unsigned node, Addr addr) const
{
    const Addr block = blockAddr(addr);
    const std::uint64_t page = pageOf(addr);
    if (config_.arch == NodeArch::SimpleComa) {
        // Every page the node uses is replicated into its local
        // attraction memory, at a per-node local frame.
        const Node &n = nodes_[node];
        const std::uint64_t *frame_plus_1 = n.frames.find(page);
        const std::uint64_t frame = frame_plus_1 && *frame_plus_1
            ? *frame_plus_1 - 1
            : n.next_frame;
        return (Addr{1} << 47) |
               (frame * config_.page_bytes + pageOffset(block));
    }
    const PagePlacement *p = pages_.find(page);
    if (!p || !p->placed || p->home != node)
        return block;  // imported blocks are tagged globally
    return localView(*p, block);
}

inline unsigned
NumaMachine::resolveHomeAndView(Addr addr, unsigned toucher,
                                Addr &view)
{
    const Addr block = blockAddr(addr);
    const std::uint64_t page = pageOf(addr);
    PagePlacement &p = pages_[page];
    if (!p.placed) {
        p.home = config_.first_touch
            ? toucher
            : static_cast<unsigned>(page % config_.nodes);
        p.local_frame = frames_used_[p.home]++;
        p.placed = true;
    }
    if (config_.arch == NodeArch::SimpleComa)
        view = cacheView(toucher, addr);  // per-node frame table
    else if (p.home != toucher)
        view = block;
    else
        view = localView(p, block);
    return p.home;
}

const NodeStats &
NumaMachine::nodeStats(unsigned cpu) const
{
    MW_ASSERT(cpu < nodes_.size(), "bad cpu id");
    return nodes_[cpu].stats;
}

void
NumaMachine::fillLocal(unsigned node, Addr block, bool store)
{
    Node &n = nodes_[node];
    if (config_.arch == NodeArch::SimpleComa) {
        // Allocate the page's local frame on first use, then fill
        // the column from the attraction memory.
        std::uint64_t &frame_plus_1 = n.frames[pageOf(block)];
        if (!frame_plus_1)
            frame_plus_1 = ++n.next_frame;
        addReplica(node, block);
        n.columns->access(cacheView(node, block), store);
        return;
    }
    const Addr view = cacheView(node, block);
    if (config_.arch == NodeArch::Integrated) {
        // Home data: the whole column lands in a buffer.
        n.columns->access(view, store);
    } else {
        n.flc->access(view, store);
        addReplica(node, block);
    }
}

void
NumaMachine::invalidateAt(unsigned node, Addr block)
{
    if (obs_)
        obs_->copyInvalidated(node, block, obs_now_);
    Node &n = nodes_[node];
    const Addr view = cacheView(node, block);
    switch (config_.arch) {
      case NodeArch::Integrated:
        n.columns->invalidateBlock(view);
        if (n.inc)
            n.inc->invalidate(block);
        return;
      case NodeArch::SimpleComa:
        n.columns->invalidateBlock(view);
        dropReplica(node, block);
        return;
      case NodeArch::ReferenceCcNuma:
        n.flc->invalidate(view);
        dropReplica(node, block);
        return;
    }
}

void
NumaMachine::invalidateSharers(const DirEntry &entry, Addr block,
                               unsigned keep)
{
    // SkipInvalidate mutation (verification test hook): deliberately
    // leave the first victim's copy intact, creating exactly the
    // stale-sharer bug the shadow checker must catch.
    bool skip_one =
        config_.mutation == ProtocolMutation::SkipInvalidate;
    auto doInvalidate = [&](unsigned node) {
        if (skip_one) {
            skip_one = false;
            ++mutated_transitions_;
            return;
        }
        invalidateAt(node, block);
    };
    switch (entry.state()) {
      case DirState::Uncached:
        return;
      case DirState::Modified:
        if (entry.owner() != keep)
            doInvalidate(entry.owner());
        return;
      case DirState::Shared:
        for (unsigned s : entry.sharers())
            if (s != keep)
                doInvalidate(s);
        return;
      case DirState::SharedBcast:
        // Pointer overflow: the invalidation must broadcast.
        for (unsigned node = 0; node < config_.nodes; ++node)
            if (node != keep)
                doInvalidate(node);
        return;
    }
}

Cycles
NumaMachine::remoteRoundTrip(unsigned cpu, unsigned home,
                             Addr block, Tick now, Cycles floor)
{
    auto attempt = [&](Tick when) -> Cycles {
        if (!fabric_ || home == cpu)
            return floor;
        // Request across the fabric, service at the home node's
        // protocol engine (which serialises transactions), reply
        // with the 32-byte payload.
        const Tick req =
            fabric_->send(when, cpu, home, MsgType::ReadRequest);
        const Tick start = std::max(req, engine_free_[home]);
        const Tick done = start + config_.engine_occupancy;
        engine_free_[home] = done;
        const Tick reply =
            fabric_->send(done, home, cpu, MsgType::ReadReply);
        return static_cast<Cycles>(
            std::max<Tick>(reply > when ? reply - when : 0, floor));
    };

    Cycles total = attempt(now);
    const ProtocolFaultConfig &pf = config_.protocol_fault;
    if (pf.enabled() && home != cpu) {
        // The home engine may NACK the transaction (overload, drop
        // under pressure); the requester backs off and retries, each
        // retry paying a full round trip. A bounded budget turns a
        // persistently failing transaction into a machine check
        // instead of a livelock.
        Cycles backoff = pf.backoff_base;
        unsigned tries = 0;
        while (proto_rng_.bernoulli(pf.nack_rate)) {
            nacks_.inc();
            if (obs_)
                obs_->protocolNack(cpu, block, tries + 1, now);
            if (tries == pf.max_retries) {
                proto_failures_.inc();
                if (obs_)
                    obs_->protocolMachineCheck(cpu, block, now);
                break;
            }
            ++tries;
            retries_.inc();
            if (obs_)
                obs_->protocolRetry(cpu, block, tries, backoff,
                                    now);
            total += backoff + attempt(now + total);
            backoff = std::min<Cycles>(backoff * 2, pf.backoff_cap);
        }
    }
    return total;
}

Cycles
NumaMachine::accessObserved(unsigned cpu, Addr addr, bool store,
                            Tick now)
{
    const Addr block = blockAddr(addr);
    obs_now_ = now;
    const std::uint16_t before = directory_.lookup(block).encode();
    const Cycles latency = accessImpl(cpu, addr, store, now);
    obs_->accessEnd(cpu, block, store, last_service_, latency, now,
                    before, directory_.lookup(block));
    return latency;
}

Cycles
NumaMachine::accessImpl(unsigned cpu, Addr addr, bool store,
                        Tick now)
{
    MW_ASSERT(cpu < nodes_.size(), "bad cpu id");
    const Addr block = blockAddr(addr);
    Node &n = nodes_[cpu];
    n.stats.total.inc();

    const LatencyTable &lat = config_.latency;

    // --- First-level structures --------------------------------------
    Addr view;
    const unsigned home = resolveHomeAndView(addr, cpu, view);
    bool l1_hit;
    if (config_.arch == NodeArch::ReferenceCcNuma)
        l1_hit = n.flc->access(view, store).hit;
    else
        l1_hit = n.columns->accessNoFill(view, store) !=
                 DAccessOutcome::Miss;

    // Invariant: a cached copy is coherent (invalidations remove
    // copies eagerly), so a load hit — or a store hit with ownership
    // — completes in one cycle. Load hits return before the directory
    // lookup: a cached block's entry was created when it was filled,
    // so the lookup is pure overhead on this (dominant) path.
    if (l1_hit && !store) {
        n.stats.cache_hits.inc();
        last_service_ = ServiceLevel::CacheHit;
        return lat.cache_hit;
    }

    DirEntry &e = directory_.entry(block);
    if (l1_hit && e.state() == DirState::Modified && e.owner() == cpu) {
        n.stats.cache_hits.inc();
        last_service_ = ServiceLevel::CacheHit;
        return lat.cache_hit;
    }

    // Cost of re-reaching data this node can already access
    // (L1 miss but local home / INC / SLC), shared by several paths.
    auto local_refetch = [&](bool st) -> Cycles {
        if (config_.arch == NodeArch::SimpleComa) {
            if (hasReplica(cpu, block)) {
                // Valid in the local attraction memory: a plain
                // local DRAM access regardless of the block's home.
                fillLocal(cpu, block, st);
                last_service_ = ServiceLevel::LocalMemory;
                n.stats.local_mem.inc();
                return lat.local_memory;
            }
            // Not replicated yet: fetch across the fabric (or from
            // the local home) and install in attraction memory.
            fillLocal(cpu, block, st);
            if (home == cpu) {
                last_service_ = ServiceLevel::LocalMemory;
                n.stats.local_mem.inc();
                return lat.local_memory;
            }
            last_service_ = ServiceLevel::Remote;
            n.stats.remote_loads.inc();
            return remoteRoundTrip(cpu, home, block, now, lat.remote_load);
        }
        if (home == cpu) {
            fillLocal(cpu, block, st);
            last_service_ = ServiceLevel::LocalMemory;
            n.stats.local_mem.inc();
            return lat.local_memory;
        }
        if (config_.arch == NodeArch::Integrated) {
            if (n.inc && n.inc->access(block, st)) {
                n.columns->stageRemoteBlock(block);
                last_service_ = ServiceLevel::IncHit;
                n.stats.inc_hits.inc();
                return lat.inc_access + lat.inc_tag_extra;
            }
            // Fell out of the INC as well (or this node has none
            // yet, which holds nothing): fetch again.
            incOf(n).insertMissing(block);
            n.columns->stageRemoteBlock(block);
            last_service_ = ServiceLevel::Remote;
            n.stats.remote_loads.inc();
            return remoteRoundTrip(cpu, home, block, now, lat.remote_load);
        }
        if (hasReplica(cpu, block)) {
            n.flc->access(block, st);
            last_service_ = ServiceLevel::LocalMemory;
            n.stats.local_mem.inc();
            return lat.local_memory;  // SLC hit (Table 6: 6 cycles)
        }
        n.flc->access(block, st);
        addReplica(cpu, block);
        last_service_ = ServiceLevel::Remote;
        n.stats.remote_loads.inc();
        return remoteRoundTrip(cpu, home, block, now, lat.remote_load);
    };

    // Import a remote block after a fabric transaction.
    auto remote_import = [&](bool st) {
        if (config_.arch == NodeArch::SimpleComa || home == cpu) {
            fillLocal(cpu, block, st);
        } else if (config_.arch == NodeArch::Integrated) {
            incOf(n).insert(block);
            n.columns->stageRemoteBlock(block);
        } else {
            n.flc->access(block, st);
            addReplica(cpu, block);
        }
    };

    if (!store) {
        // ---- Load miss -----------------------------------------------
        if (e.state() == DirState::Modified) {
            if (e.owner() == cpu) {
                // Reading our own dirty block: ownership is kept
                // (no directory transition), just refetch the data.
                return local_refetch(false);
            }
            // Dirty elsewhere: round trip through the owner, which
            // downgrades to shared and keeps its copy.
            // MissedDowngrade mutation: the directory forgets to
            // demote the dirty owner, leaving Modified(owner) while
            // this reader pulls a copy anyway.
            if (config_.mutation == ProtocolMutation::MissedDowngrade)
                ++mutated_transitions_;
            else
                e.addSharer(cpu);
            remote_import(false);
            last_service_ = ServiceLevel::Remote;
            n.stats.remote_loads.inc();
            return remoteRoundTrip(cpu, e.owner(), block, now,
                                   lat.remote_load);
        }
        // DropSharer mutation: the directory never records this
        // reader, so a later invalidation will miss its copy.
        if (config_.mutation == ProtocolMutation::DropSharer)
            ++mutated_transitions_;
        else
            e.addSharer(cpu);
        return local_refetch(false);
    }

    // ---- Store ---------------------------------------------------------
    if (e.state() == DirState::Modified && e.owner() == cpu) {
        // Ownership retained but the data slipped out of the L1.
        return local_refetch(true);
    }

    // Exclusivity is required. Count copies elsewhere.
    bool others = false;
    switch (e.state()) {
      case DirState::Uncached:
        others = false;
        break;
      case DirState::Modified:
        others = e.owner() != cpu;
        break;
      case DirState::Shared: {
        for (unsigned s : e.sharers())
            if (s != cpu)
                others = true;
        break;
      }
      case DirState::SharedBcast:
        others = true;
        break;
    }

    Cycles cost;
    if (others) {
        // Invalidation round trip covers both the permission grant
        // and, for dirty blocks, the data forward (Table 6).
        invalidateSharers(e, block, cpu);
        n.stats.invalidations.inc();
        last_service_ = ServiceLevel::Invalidation;
        cost = remoteRoundTrip(cpu,
                               home == cpu
                                   ? (cpu + 1) % config_.nodes
                                   : home,
                               block, now,
                               lat.invalidation_round_trip);
    } else if (home == cpu) {
        // Sole (or no) copy, local home: the directory grant is a
        // local memory transaction.
        last_service_ = ServiceLevel::LocalMemory;
        n.stats.local_mem.inc();
        cost = lat.local_memory;
    } else {
        // Sole (or no) copy, remote home: the grant is a fabric
        // round trip whether or not the data is already here.
        last_service_ = ServiceLevel::Remote;
        n.stats.remote_loads.inc();
        cost = remoteRoundTrip(cpu, home, block, now, lat.remote_load);
    }
    // WrongOwner mutation: the directory grants exclusive ownership
    // to the wrong node after a store.
    if (config_.mutation == ProtocolMutation::WrongOwner &&
        config_.nodes > 1) {
        ++mutated_transitions_;
        e.setModified((cpu + 1) % config_.nodes);
    } else {
        e.setModified(cpu);
    }
    if (!l1_hit)
        remote_import(true);
    return cost;
}

std::uint64_t
NumaMachine::totalAccesses() const
{
    std::uint64_t total = 0;
    for (const auto &node : nodes_)
        total += node.stats.total.value();
    return total;
}

std::uint64_t
NumaMachine::totalRemoteLoads() const
{
    std::uint64_t total = 0;
    for (const auto &node : nodes_)
        total += node.stats.remote_loads.value();
    return total;
}

std::uint64_t
NumaMachine::totalInvalidations() const
{
    std::uint64_t total = 0;
    for (const auto &node : nodes_)
        total += node.stats.invalidations.value();
    return total;
}

} // namespace memwall
