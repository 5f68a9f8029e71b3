#include "mem/column_cache.hh"

#include "common/logging.hh"

namespace memwall {

namespace {

CacheConfig
instrConfig(const ColumnCacheConfig &config)
{
    CacheConfig c;
    c.capacity = config.instrCapacity();
    c.line_size = config.column_bytes;
    c.assoc = 1;
    c.sub_block_size = 32;
    c.name = "column-icache";
    return c;
}

CacheConfig
dataConfig(const ColumnCacheConfig &config)
{
    CacheConfig c;
    c.capacity = config.dataCapacity();
    c.line_size = config.column_bytes;
    c.assoc = config.data_ways;
    c.sub_block_size = config.victim.line_size;
    c.name = "column-dcache";
    return c;
}

} // namespace

ColumnInstrCache::ColumnInstrCache(const ColumnCacheConfig &config)
    : cache_(instrConfig(config))
{
}

bool
ColumnInstrCache::fetch(Addr pc)
{
    return cache_.access(pc, false).hit;
}

bool
ColumnInstrCache::warmFetch(Addr pc)
{
    return cache_.warmAccess(pc, false).hit;
}

void
ColumnInstrCache::fetchRun(Addr first_pc, std::uint64_t count)
{
    forEachFetchLine(first_pc, count, cache_.config().line_size,
                     [this](Addr first, Addr last, std::uint64_t n) {
                         cache_.accessRun(first, last, n, false);
                     });
}

void
ColumnInstrCache::warmFetchRun(Addr first_pc, std::uint64_t count)
{
    forEachFetchLine(first_pc, count, cache_.config().line_size,
                     [this](Addr first, Addr last, std::uint64_t n) {
                         cache_.warmAccessRun(first, last, n, false);
                     });
}

ColumnDataCache::ColumnDataCache(const ColumnCacheConfig &config)
    : config_(config),
      columns_(dataConfig(config)),
      victim_(config.victim)
{
}

DAccessOutcome
ColumnDataCache::access(Addr addr, bool store)
{
    // Column buffers and victim entries are searched in parallel; a
    // hit in either costs a single cycle. The victim cache is probed
    // (not charged a miss) when the buffers hit.
    if (columns_.touch(addr, store)) {
        if (store)
            stats_.store_hits.inc();
        else
            stats_.load_hits.inc();
        return DAccessOutcome::HitColumn;
    }

    if (config_.victim_enabled && victim_.access(addr, store)) {
        if (store)
            stats_.store_hits.inc();
        else
            stats_.load_hits.inc();
        return DAccessOutcome::HitVictim;
    }

    // Real miss: the column buffer reloads from the DRAM array. The
    // displaced column donates its most recently accessed sub-block
    // to the victim cache during the array access window.
    const AccessResult fill = columns_.fill(addr, store);
    last_eviction_dirty_ = fill.eviction && fill.eviction->dirty;
    if (config_.victim_enabled && fill.eviction)
        victim_.insert(fill.eviction->last_sub_block);

    if (store)
        stats_.store_misses.inc();
    else
        stats_.load_misses.inc();
    return DAccessOutcome::Miss;
}

DAccessOutcome
ColumnDataCache::warmAccess(Addr addr, bool store)
{
    if (columns_.touch(addr, store))
        return DAccessOutcome::HitColumn;
    if (config_.victim_enabled && victim_.warmAccess(addr))
        return DAccessOutcome::HitVictim;
    const AccessResult fill = columns_.warmAccess(addr, store);
    MW_ASSERT(!fill.hit, "touch said miss but warm access hit");
    last_eviction_dirty_ = fill.eviction && fill.eviction->dirty;
    if (config_.victim_enabled && fill.eviction)
        victim_.insert(fill.eviction->last_sub_block);
    return DAccessOutcome::Miss;
}

bool
ColumnDataCache::probe(Addr addr) const
{
    if (columns_.probe(addr))
        return true;
    return config_.victim_enabled && victim_.probe(addr);
}

bool
ColumnDataCache::invalidateBlock(Addr addr)
{
    // Invalidate the whole column if it holds the block: a 512-byte
    // column cannot keep a 32-byte hole, so coherence invalidations
    // drop the full buffer (this is the cost of long lines under
    // sharing that Section 6.2 discusses).
    bool any = columns_.invalidate(addr).has_value();
    if (config_.victim_enabled && victim_.invalidate(addr))
        any = true;
    return any;
}

void
ColumnDataCache::stageRemoteBlock(Addr addr)
{
    if (config_.victim_enabled)
        victim_.insert(addr);
}

void
ColumnDataCache::flush()
{
    columns_.flush();
    victim_.flush();
}

void
ColumnDataCache::resetStats()
{
    columns_.resetStats();
    victim_.resetStats();
    stats_.reset();
}

} // namespace memwall
