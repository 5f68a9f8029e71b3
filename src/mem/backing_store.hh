/**
 * @file
 * Sparse functional memory backing store.
 *
 * Holds the actual bytes behind the timing models: the MW32
 * interpreter's code and data, and the MP framework's shared arrays.
 * Pages are allocated lazily so a 32 MiB (256 Mbit) node or a multi-
 * gigabyte Synopsys-proxy footprint cost only what is touched.
 */

#ifndef MEMWALL_MEM_BACKING_STORE_HH
#define MEMWALL_MEM_BACKING_STORE_HH

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/types.hh"

namespace memwall {

/** Lazily allocated paged memory image. */
class BackingStore
{
  public:
    static constexpr std::uint64_t page_size = 4 * KiB;

    BackingStore() = default;

    std::uint8_t readU8(Addr addr) const;
    std::uint16_t readU16(Addr addr) const;
    std::uint32_t readU32(Addr addr) const;
    std::uint64_t readU64(Addr addr) const;

    void writeU8(Addr addr, std::uint8_t v);
    void writeU16(Addr addr, std::uint16_t v);
    void writeU32(Addr addr, std::uint32_t v);
    void writeU64(Addr addr, std::uint64_t v);

    /** Copy @p bytes out of memory starting at @p addr. */
    void readBlock(Addr addr, std::span<std::uint8_t> out) const;

    /** Copy @p bytes into memory starting at @p addr. */
    void writeBlock(Addr addr, std::span<const std::uint8_t> in);

    /** Number of pages materialised so far. */
    std::size_t allocatedPages() const { return pages_.size(); }

    /** Bytes of host memory used by materialised pages. */
    std::uint64_t footprintBytes() const
    {
        return static_cast<std::uint64_t>(pages_.size()) * page_size;
    }

  private:
    using Page = std::unique_ptr<std::uint8_t[]>;

    std::uint8_t *pageFor(Addr addr);
    const std::uint8_t *pageForRead(Addr addr) const;

    mutable std::unordered_map<std::uint64_t, Page> pages_;
};

} // namespace memwall

#endif // MEMWALL_MEM_BACKING_STORE_HH
