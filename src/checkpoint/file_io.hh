/**
 * @file
 * Whole-file helpers for on-disk state: a crash-safe write and a
 * plain read.
 *
 * atomicWriteFile() writes through a temporary file in the same
 * directory plus fsync and an atomic rename, so a crash mid-write
 * leaves either the old file or no file — never a torn one with a
 * valid name — and a reader racing the writer sees one whole
 * version or the other. Trace files (TraceBuffer::save) are written
 * this way.
 */

#ifndef MEMWALL_CHECKPOINT_FILE_IO_HH
#define MEMWALL_CHECKPOINT_FILE_IO_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace memwall {
namespace ckpt {

/**
 * Write @p len bytes to @p path via temp file + fsync + atomic
 * rename (+ directory fsync). Returns false and fills @p why (with
 * errno text and the path) on any failure; no partial file is ever
 * visible under the final name.
 */
bool atomicWriteFile(const std::string &path, const void *data,
                     std::size_t len, std::string *why = nullptr);

/** Slurp a whole file; returns nullopt and fills @p why on error. */
std::optional<std::vector<std::uint8_t>>
readFileBytes(const std::string &path, std::string *why = nullptr);

} // namespace ckpt
} // namespace memwall

#endif // MEMWALL_CHECKPOINT_FILE_IO_HH
