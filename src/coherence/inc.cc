#include "coherence/inc.hh"

#include "common/logging.hh"

namespace memwall {

namespace {

CacheConfig
incCacheConfig(const IncConfig &config)
{
    if (!isPowerOfTwo(config.reserved_bytes / config.column_bytes))
        MW_FATAL("INC reserved size must give a power-of-two number "
                 "of columns");
    CacheConfig c;
    const std::uint64_t sets =
        config.reserved_bytes / config.column_bytes;
    c.line_size = coherence_unit;
    c.assoc = config.ways;
    c.capacity = sets * config.ways * coherence_unit;
    c.sub_block_size = coherence_unit;
    c.name = "inc";
    return c;
}

} // namespace

InterNodeCache::InterNodeCache(IncConfig config)
    : config_(config), cache_(incCacheConfig(config))
{
    MW_ASSERT(config_.ways == 7,
              "the column layout fixes the INC at 7 ways");
}

bool
InterNodeCache::access(Addr addr, bool store)
{
    // Presence test only: fills go through insert() so that a miss
    // here does not allocate (the protocol decides what to import).
    if (cache_.touch(addr, store)) {
        if (store)
            stats_.store_hits.inc();
        else
            stats_.load_hits.inc();
        return true;
    }
    if (store)
        stats_.store_misses.inc();
    else
        stats_.load_misses.inc();
    return false;
}

void
InterNodeCache::insert(Addr addr)
{
    cache_.access(blockAddr(addr), false);
}

void
InterNodeCache::insertMissing(Addr addr)
{
    cache_.fill(blockAddr(addr), false);
}

bool
InterNodeCache::invalidate(Addr addr)
{
    return cache_.invalidate(addr).has_value();
}

std::uint64_t
InterNodeCache::dataCapacity() const
{
    return cache_.config().capacity;
}

} // namespace memwall
