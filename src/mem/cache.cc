#include "mem/cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memwall {

std::uint32_t
CacheConfig::sets() const
{
    const std::uint64_t lines = capacity / line_size;
    const std::uint64_t ways = assoc == 0 ? lines : assoc;
    return static_cast<std::uint32_t>(lines / ways);
}

void
CacheConfig::validate() const
{
    if (line_size < 2 || !isPowerOfTwo(line_size))
        MW_FATAL(name, ": line size must be a power of two of at least "
                 "2 bytes, got ", line_size);
    if (capacity % line_size != 0)
        MW_FATAL(name, ": capacity not a multiple of the line size");
    const std::uint64_t lines = capacity / line_size;
    const std::uint64_t ways = assoc == 0 ? lines : assoc;
    if (ways == 0 || lines % ways != 0)
        MW_FATAL(name, ": associativity ", assoc,
                 " does not divide the ", lines, " lines");
    if (!isPowerOfTwo(lines / ways))
        MW_FATAL(name, ": set count must be a power of two, got ",
                 lines / ways);
    if (sub_block_size == 0 || line_size % sub_block_size != 0)
        MW_FATAL(name, ": sub-block size must divide the line size");
}

Cache::Cache(CacheConfig config, std::uint64_t seed)
    : config_(std::move(config)),
      rng_state_(seed ? seed : 1)
{
    config_.validate();
    sets_ = config_.sets();
    assoc_ = config_.assoc == 0
        ? static_cast<std::uint32_t>(config_.capacity / config_.line_size)
        : config_.assoc;
    line_shift_ = floorLog2(config_.line_size);
    line_mask_ = config_.line_size - 1;
    tag_shift_ = line_shift_ + floorLog2(sets_);
    sub_shift_ = floorLog2(config_.sub_block_size);
    tags_.assign(sets_ * assoc_, invalid_tag);
    ways_ = std::make_unique_for_overwrite<WayState[]>(sets_ * assoc_);
}

std::size_t
Cache::victimWay(std::uint64_t set)
{
    const std::size_t base = set * assoc_;
    // Prefer an invalid way.
    for (std::uint32_t w = 0; w < assoc_; ++w)
        if (tags_[base + w] == invalid_tag)
            return base + w;
    if (config_.repl == ReplPolicy::Random) {
        // xorshift64 keeps this dependency-free and deterministic.
        rng_state_ ^= rng_state_ << 13;
        rng_state_ ^= rng_state_ >> 7;
        rng_state_ ^= rng_state_ << 17;
        return base + rng_state_ % assoc_;
    }
    std::size_t victim = base;
    for (std::uint32_t w = 1; w < assoc_; ++w)
        if (ways_[base + w].lru < ways_[victim].lru)
            victim = base + w;
    return victim;
}

Eviction
Cache::evictionOf(std::size_t way, std::uint64_t set) const
{
    // Reconstruct the line's address from tag and set.
    const Addr line = (tags_[way] << tag_shift_) | (set << line_shift_);
    Eviction ev;
    ev.line_addr = line;
    ev.last_sub_block =
        line + static_cast<Addr>(ways_[way].last_sub_block) *
                   config_.sub_block_size;
    ev.dirty = ways_[way].dirty;
    return ev;
}

AccessResult
Cache::access(Addr addr, bool store)
{
    // A single result object keeps NRVO: both the hit path and
    // fillAt() write straight into the caller's return slot instead
    // of a stack temporary copied out per access.
    AccessResult result;
    const std::uint64_t set = setIndex(addr);
    const std::size_t way = findWay(set, tagOf(addr));
    if (way != no_way) {
        result.hit = true;
        touchWay(way, addr, store);
        if (store)
            stats_.store_hits.inc();
        else
            stats_.load_hits.inc();
        return result;
    }
    fillAt(result, set, addr, store);
    return result;
}

AccessResult
Cache::fill(Addr addr, bool store)
{
    AccessResult result;
    fillAt(result, setIndex(addr), addr, store);
    return result;
}

AccessResult
Cache::warmAccess(Addr addr, bool store)
{
    AccessResult result;
    const std::uint64_t set = setIndex(addr);
    const std::size_t way = findWay(set, tagOf(addr));
    if (way != no_way) {
        result.hit = true;
        touchWay(way, addr, store);
        return result;
    }
    fillAtNoStats(result, set, addr, store);
    return result;
}

template <bool Count>
void
Cache::runAt(Addr first, Addr last, std::uint64_t count, bool store)
{
    if constexpr (Count)
        access(first, store);
    else
        warmAccess(first, store);
    if (count < 2)
        return;
    // The other count - 1 accesses hit the line the first one left
    // resident; only the last one's touch survives them.
    lru_clock_ += count - 2;
    touchWay(findWay(setIndex(last), tagOf(last)), last, store);
    if constexpr (Count)
        (store ? stats_.store_hits : stats_.load_hits).inc(count - 1);
}

template void Cache::runAt<true>(Addr, Addr, std::uint64_t, bool);
template void Cache::runAt<false>(Addr, Addr, std::uint64_t, bool);

void
Cache::fillAt(AccessResult &result, std::uint64_t set, Addr addr,
              bool store)
{
    if (store)
        stats_.store_misses.inc();
    else
        stats_.load_misses.inc();
    fillAtNoStats(result, set, addr, store);
}

void
Cache::fillAtNoStats(AccessResult &result, std::uint64_t set,
                     Addr addr, bool store)
{
    const std::size_t victim = victimWay(set);
    if (tags_[victim] != invalid_tag)
        result.eviction = evictionOf(victim, set);
    tags_[victim] = tagOf(addr);
    ways_[victim].dirty = false;
    touchWay(victim, addr, store);
}

std::optional<Eviction>
Cache::invalidate(Addr addr)
{
    const std::uint64_t set = setIndex(addr);
    const std::size_t way = findWay(set, tagOf(addr));
    if (way == no_way)
        return std::nullopt;
    const Eviction ev = evictionOf(way, set);
    tags_[way] = invalid_tag;
    return ev;
}

void
Cache::flush()
{
    std::fill(tags_.begin(), tags_.end(), invalid_tag);
}

std::uint64_t
Cache::residentLines() const
{
    return static_cast<std::uint64_t>(
        std::count_if(tags_.begin(), tags_.end(),
                      [](Addr tag) { return tag != invalid_tag; }));
}

} // namespace memwall
