/**
 * @file
 * In-memory directory with 14-bit entries (Figure 5).
 *
 * The directory is co-located with the data: computing ECC over
 * 128-bit instead of 64-bit words frees 14 bits per 32-byte block
 * (see mem/ecc.hh), which hold the directory state and pointer.
 * 14 bits force a LIMITED-POINTER organisation: 2 bits of state and
 * three 4-bit node pointers. When a fourth sharer arrives the entry
 * overflows to broadcast mode (invalidations go to every node) —
 * the classic Dir3B scheme.
 */

#ifndef MEMWALL_COHERENCE_DIRECTORY_HH
#define MEMWALL_COHERENCE_DIRECTORY_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "coherence/flat_table.hh"
#include "coherence/protocol.hh"

namespace memwall {

/** One 14-bit directory entry (decoded form). */
class DirEntry
{
  public:
    static constexpr unsigned max_pointers = 3;
    /** 4-bit pointers: node ids 0..15. Empty pointer slots are
     * marked by DUPLICATING an existing pointer (duplicates are
     * idempotent for invalidation), so no id is sacrificed as a
     * null sentinel and 16-node systems work. */
    static constexpr unsigned max_nodes = 16;

    DirState state() const { return state_; }

    /** Owner node id; valid only in Modified state. */
    unsigned owner() const { return ptrs_[0]; }

    /** Distinct node ids in pointer-slot order, held in place. */
    class Sharers
    {
      public:
        const std::uint8_t *begin() const { return ids_; }
        const std::uint8_t *end() const { return ids_ + count_; }
        bool empty() const { return count_ == 0; }

      private:
        friend class DirEntry;
        std::uint8_t ids_[max_pointers] = {};
        std::uint8_t count_ = 0;
    };

    /** Tracked sharers (Shared state only; empty under broadcast). */
    Sharers sharers() const;

    /** @return true iff @p node is a tracked sharer or the owner. */
    bool tracks(unsigned node) const;

    /** Reset to Uncached. */
    void clear();

    /** Record a (first or additional) sharer after a load miss. */
    void addSharer(unsigned node);

    /** Grant exclusive ownership to @p node. */
    void setModified(unsigned node);

    /**
     * Pack into the 14-bit on-DRAM representation:
     * [13:12] state, [11:8][7:4][3:0] pointers.
     */
    std::uint16_t encode() const;

    /** Unpack a 14-bit value. */
    static DirEntry decode(std::uint16_t bits);

    bool operator==(const DirEntry &other) const;

  private:
    DirState state_ = DirState::Uncached;
    std::uint8_t ptrs_[max_pointers] = {};
};

inline DirEntry::Sharers
DirEntry::sharers() const
{
    Sharers out;
    if (state_ != DirState::Shared)
        return out;
    for (std::uint8_t p : ptrs_)
        if (std::find(out.begin(), out.end(), p) == out.end())
            out.ids_[out.count_++] = p;
    return out;
}

/**
 * Sparse directory over the shared address space. In hardware every
 * 32-byte block has an entry in its home node's DRAM; the simulator
 * materialises entries a chunk at a time on first touch (absent =
 * Uncached).
 */
class Directory
{
    /** 4096 entries (128 KiB of address space) per chunk. */
    using Table = FlatTable<DirEntry, 12>;

  public:
    /** Entries materialised together on first touch. */
    static constexpr std::size_t chunk_entries = Table::chunk_entries;

    explicit Directory(unsigned nodes);

    /** Look up (and create) the entry for @p addr's block. */
    DirEntry &entry(Addr addr) { return table_[blockNumber(addr)]; }

    /** Read-only probe; returns Uncached default when untouched. */
    DirEntry
    lookup(Addr addr) const
    {
        const DirEntry *e = table_.find(blockNumber(addr));
        return e ? *e : DirEntry{};
    }

    unsigned nodes() const { return nodes_; }

    /** Entries backed by storage: whole chunks of chunk_entries. */
    std::size_t
    materialisedEntries() const
    {
        return table_.chunks() * chunk_entries;
    }

    /**
     * Storage overhead check: bits of directory state per data
     * block, as stored in the freed ECC bits (always 14).
     */
    static constexpr unsigned bitsPerBlock() { return 14; }

  private:
    static std::uint64_t
    blockNumber(Addr addr)
    {
        return addr / coherence_unit;
    }

    unsigned nodes_;
    Table table_;
};

} // namespace memwall

#endif // MEMWALL_COHERENCE_DIRECTORY_HH
