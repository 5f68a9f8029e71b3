/**
 * @file
 * Address-indexed state for the coherence models.
 *
 * The CC-NUMA machine keeps state per page (placement, Simple-COMA
 * frames) and per 32-byte block (directory entries, replicated
 * copies). MpRuntime hands out shared memory with a bump allocator,
 * so the page and block numbers in use are dense. FlatTable stores
 * that state in chunks of 2^ChunkBits elements indexed directly by
 * the low key bits; a vector sorted by chunk number finds the chunk.
 * Chunks are made, value-initialised, on first touch and never move,
 * so element references stay valid, and memory stays proportional to
 * the chunks touched however far apart they lie.
 */

#ifndef MEMWALL_COHERENCE_FLAT_TABLE_HH
#define MEMWALL_COHERENCE_FLAT_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace memwall {

template <typename T, unsigned ChunkBits>
class FlatTable
{
    static_assert(ChunkBits >= 1 && ChunkBits < 64);

  public:
    static constexpr std::uint64_t chunk_entries = std::uint64_t{1}
                                                   << ChunkBits;

    FlatTable() = default;
    // A move takes the chunks and leaves the source empty, with no
    // last chunk pointing into memory it no longer owns.
    FlatTable(FlatTable &&other) noexcept
        : chunks_(std::exchange(other.chunks_, {})),
          last_number_(std::exchange(other.last_number_, no_chunk)),
          last_slots_(std::exchange(other.last_slots_, nullptr))
    {
    }
    FlatTable &
    operator=(FlatTable &&other) noexcept
    {
        chunks_ = std::exchange(other.chunks_, {});
        last_number_ = std::exchange(other.last_number_, no_chunk);
        last_slots_ = std::exchange(other.last_slots_, nullptr);
        return *this;
    }

    /** Element @p key, making its chunk on first touch. */
    T &
    operator[](std::uint64_t key)
    {
        const std::uint64_t number = key >> ChunkBits;
        // Consecutive touches mostly stay in one chunk: remember it.
        if (number != last_number_) [[unlikely]] {
            last_slots_ = chunkFor(number);
            last_number_ = number;
        }
        return last_slots_[key & (chunk_entries - 1)];
    }

    /** Element @p key, or null when its chunk was never made. */
    T *find(std::uint64_t key) { return lookup(key); }
    const T *find(std::uint64_t key) const { return lookup(key); }

    /** Chunks made so far; memory is this times chunk_entries. */
    std::size_t chunks() const { return chunks_.size(); }

  private:
    struct Chunk
    {
        std::uint64_t number;
        std::unique_ptr<T[]> slots;
    };

    auto
    chunkAtOrAfter(std::uint64_t number) const
    {
        return std::lower_bound(
            chunks_.begin(), chunks_.end(), number,
            [](const Chunk &c, std::uint64_t n) { return c.number < n; });
    }

    /** find() for both constnesses; never makes a chunk. */
    T *
    lookup(std::uint64_t key) const
    {
        const std::uint64_t number = key >> ChunkBits;
        if (number == last_number_)
            return &last_slots_[key & (chunk_entries - 1)];
        auto it = chunkAtOrAfter(number);
        if (it == chunks_.end() || it->number != number)
            return nullptr;
        return &it->slots[key & (chunk_entries - 1)];
    }

    /** Slots of chunk @p number, made on first use. */
    T *
    chunkFor(std::uint64_t number)
    {
        auto it = chunkAtOrAfter(number);
        if (it == chunks_.end() || it->number != number)
            it = chunks_.insert(
                it, Chunk{number, std::make_unique<T[]>(chunk_entries)});
        return it->slots.get();
    }

    /** Never a chunk number: keys have 64 bits, chunk numbers fewer. */
    static constexpr std::uint64_t no_chunk = ~std::uint64_t{0};

    std::vector<Chunk> chunks_;  ///< ascending chunk number
    /** The chunk operator[] touched last. */
    std::uint64_t last_number_ = no_chunk;
    T *last_slots_ = nullptr;
};

} // namespace memwall

#endif // MEMWALL_COHERENCE_FLAT_TABLE_HH
