#include "mem/victim_cache.hh"

#include <algorithm>
#include <vector>

#include "checkpoint/state_io.hh"
#include "common/logging.hh"

namespace memwall {

VictimCache::VictimCache(VictimCacheConfig config)
    : config_(config), entries_(config.entries)
{
    if (config_.entries == 0)
        MW_FATAL("victim cache needs at least one entry");
    if (config_.line_size < 2 || !isPowerOfTwo(config_.line_size))
        MW_FATAL("victim cache line size must be a power of two of at "
                 "least 2 bytes");
}

bool
VictimCache::warmAccess(Addr addr)
{
    if (Entry *entry = find(addr)) {
        entry->lru = ++lru_clock_;
        return true;
    }
    return false;
}

bool
VictimCache::probe(Addr addr) const
{
    const Addr block = blockAddr(addr);
    for (const auto &entry : entries_)
        if (entry.block == block)
            return true;
    return false;
}

void
VictimCache::insert(Addr addr)
{
    const Addr block = blockAddr(addr);
    // One pass: the first empty entry is the victim, or failing that
    // the least recently used one.
    Entry *empty = nullptr;
    Entry *oldest = &entries_[0];
    for (auto &entry : entries_) {
        if (entry.block == block) {
            // Already present; treat the insert as a refresh.
            entry.lru = ++lru_clock_;
            return;
        }
        if (!entry.valid() && !empty)
            empty = &entry;
        if (entry.lru < oldest->lru)
            oldest = &entry;
    }
    Entry *victim = empty ? empty : oldest;
    victim->block = block;
    victim->lru = ++lru_clock_;
}

bool
VictimCache::invalidate(Addr addr)
{
    Entry *entry = find(addr);
    if (entry)
        entry->block = invalid_block;
    return entry != nullptr;
}

void
VictimCache::flush()
{
    for (auto &entry : entries_)
        entry.block = invalid_block;
}

void
VictimCache::saveState(ckpt::Encoder &e) const
{
    e.varint(config_.entries);
    e.varint(config_.line_size);
    ckpt::putAccessStats(e, stats_);

    std::vector<std::uint32_t> by_recency;
    for (std::uint32_t i = 0; i < entries_.size(); ++i)
        if (entries_[i].valid())
            by_recency.push_back(i);
    std::sort(by_recency.begin(), by_recency.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  return entries_[a].lru < entries_[b].lru;
              });
    std::vector<std::uint64_t> rank(entries_.size(), 0);
    for (std::uint32_t r = 0; r < by_recency.size(); ++r)
        rank[by_recency[r]] = r + 1;

    for (std::uint32_t i = 0; i < entries_.size(); ++i) {
        const Entry &entry = entries_[i];
        e.u8(entry.valid() ? 1 : 0);
        if (entry.valid()) {
            e.varint(entry.block);
            e.varint(rank[i]);
        }
    }
}

void
VictimCache::loadState(ckpt::Decoder &d)
{
    const std::uint64_t entries = d.varint();
    const std::uint64_t line_size = d.varint();
    if (d.failed())
        return;
    if (entries != config_.entries || line_size != config_.line_size) {
        d.fail("victim cache: checkpoint geometry mismatch");
        return;
    }

    AccessStats stats;
    ckpt::getAccessStats(d, stats);

    std::vector<Entry> loaded(entries_.size());
    std::uint64_t valid = 0;
    for (Entry &entry : loaded) {
        const std::uint8_t flag = d.u8();
        if (d.failed())
            return;
        if (flag == 0)
            continue;
        if (flag != 1) {
            d.fail("victim cache: invalid entry flags");
            return;
        }
        entry.block = d.varint();
        entry.lru = d.varint();
        if (entry.block != blockAddr(entry.block)) {
            d.fail("victim cache: unaligned block address");
            return;
        }
        if (entry.lru == 0 || entry.lru > entries_.size()) {
            d.fail("victim cache: recency rank out of range");
            return;
        }
        ++valid;
    }
    if (d.failed())
        return;

    entries_ = std::move(loaded);
    lru_clock_ = valid;
    stats_ = stats;
}

} // namespace memwall
