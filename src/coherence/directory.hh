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

#include <cstdint>
#include <unordered_map>
#include <vector>

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

    DirEntry() { clear(); }

    DirState state() const { return state_; }

    /** Owner node id; valid only in Modified state. */
    unsigned owner() const { return ptrs_[0]; }

    /** Tracked sharers (Shared state only; empty under broadcast). */
    std::vector<unsigned> sharers() const;

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
    DirState state_;
    std::uint8_t ptrs_[max_pointers];
};

/**
 * Sparse directory over the shared address space. In hardware every
 * 32-byte block has an entry in its home node's DRAM; the simulator
 * materialises entries on first touch (absent = Uncached).
 */
class Directory
{
  public:
    explicit Directory(unsigned nodes);

    /** Look up (and create) the entry for @p addr's block. */
    DirEntry &entry(Addr addr);

    /** Read-only probe; returns Uncached default when untouched. */
    DirEntry lookup(Addr addr) const;

    unsigned nodes() const { return nodes_; }
    std::size_t materialisedEntries() const { return map_.size(); }

    /**
     * Storage overhead check: bits of directory state per data
     * block, as stored in the freed ECC bits (always 14).
     */
    static constexpr unsigned bitsPerBlock() { return 14; }

  private:
    unsigned nodes_;
    std::unordered_map<Addr, DirEntry> map_;
};

} // namespace memwall

#endif // MEMWALL_COHERENCE_DIRECTORY_HH
