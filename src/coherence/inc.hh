/**
 * @file
 * The Inter-Node Cache (Section 4.2, Figure 6).
 *
 * For CC-NUMA operation a configurable fraction of each node's DRAM
 * is reserved as a cache for imported remote data. A 512-byte DRAM
 * column stores seven 32-byte lines plus a tag block, making the
 * cache 7-way set-associative; each access needs 1-2 extra cycles
 * over a local memory access for the tag check.
 */

#ifndef MEMWALL_COHERENCE_INC_HH
#define MEMWALL_COHERENCE_INC_HH

#include <cstdint>

#include "coherence/protocol.hh"
#include "mem/cache.hh"

namespace memwall {

/** INC geometry. */
struct IncConfig
{
    /**
     * DRAM bytes reserved for the INC (1 MiB in the paper's MP
     * simulations). Sets = reserved / 512; each set holds 7 lines.
     */
    std::uint64_t reserved_bytes = 1 * MiB;
    /** Column size (fixed by the device). */
    std::uint32_t column_bytes = 512;
    /** Lines per column: 7 data + 1 tag block. */
    std::uint32_t ways = 7;
};

/** 7-way set-associative cache of imported 32-byte blocks. */
class InterNodeCache
{
  public:
    explicit InterNodeCache(IncConfig config = {});

    /** @return true iff @p addr's block is present (refreshes LRU). */
    bool access(Addr addr, bool store);

    /** Probe without statistics. */
    bool probe(Addr addr) const { return cache_.probe(addr); }

    /** Insert an imported block (may evict another import). */
    void insert(Addr addr);

    /**
     * insert() for a block that access() has just reported missing:
     * the same fill, without walking the set again to look for it.
     */
    void insertMissing(Addr addr);

    /** Invalidate a block on coherence action. */
    bool invalidate(Addr addr);

    void flush() { cache_.flush(); }

    const AccessStats &stats() const { return stats_; }
    const IncConfig &config() const { return config_; }

    /** Usable data capacity in bytes (7/16 of each column). */
    std::uint64_t dataCapacity() const;

  private:
    IncConfig config_;
    Cache cache_;
    AccessStats stats_;
};

} // namespace memwall

#endif // MEMWALL_COHERENCE_INC_HH
