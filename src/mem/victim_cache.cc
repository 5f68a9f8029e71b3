#include "mem/victim_cache.hh"

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

} // namespace memwall
