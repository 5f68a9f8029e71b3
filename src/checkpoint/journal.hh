/**
 * @file
 * Append-only journal of self-checking records (MWSJ).
 *
 * mw-server's result cache writes one record per computed result
 * (<cache-dir>/results.mwsj) and replays them at startup, so a
 * SIGKILL'd server restarts with its results intact. The format is
 * deliberately dumb — a header plus self-checking records — because
 * the failure mode it must survive is SIGKILL mid-append:
 *
 *     magic "MWSJ"   u32
 *     version        u32
 *     run hash       u64   (FNV-1a over whatever the writer keys
 *                           its records by, e.g. the build)
 *     records:
 *       record index u64
 *       payload len  u64
 *       payload CRC  u32
 *       payload bytes
 *
 * On open, records are scanned front to back; the first record whose
 * length or CRC does not check out marks the torn tail, which is
 * truncated away so the journal is again append-clean. A journal
 * whose run hash differs from the current run is discarded (fresh
 * start), never partially applied. The scan itself (scanJournal) is
 * read-only, so an inspector can list a journal that a live writer
 * still owns.
 */

#ifndef MEMWALL_CHECKPOINT_JOURNAL_HH
#define MEMWALL_CHECKPOINT_JOURNAL_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace memwall {
namespace ckpt {

/** Intact record payloads, keyed by record index. */
using JournalRecords = std::map<std::size_t, std::vector<std::uint8_t>>;

/** What a read-only scan of a journal file found. */
struct JournalScan
{
    /** Magic and version are this format's; when false, nothing
     *  below the header was scanned. */
    bool header_ok = false;
    std::uint64_t run_hash = 0;
    JournalRecords records;
    std::size_t valid_bytes = 0; ///< header + intact records
    std::size_t torn_bytes = 0;  ///< everything after them
};

/**
 * Read the journal at @p path and scan its records front to back,
 * stopping at the first torn or corrupt one. Never writes to the
 * file. Returns nullopt with @p why when it cannot be read.
 */
std::optional<JournalScan> scanJournal(const std::string &path,
                                       std::string *why = nullptr);

/**
 * The writer of one journal file. It keeps no record in memory: the
 * records found at open() go to the caller, and append() only writes.
 */
class RecordJournal
{
  public:
    RecordJournal() = default;
    ~RecordJournal() { close(); }

    RecordJournal(const RecordJournal &) = delete;
    RecordJournal &operator=(const RecordJournal &) = delete;

    /**
     * Open (or create) the journal at @p path for run @p run_hash.
     * Existing valid records are moved into @p recovered when it is
     * non-null (which is cleared first) and dropped otherwise; a torn
     * tail is truncated; a foreign run hash discards the old
     * contents. Returns false with @p why on I/O errors.
     */
    bool open(const std::string &path, std::uint64_t run_hash,
              JournalRecords *recovered, std::string *why = nullptr);

    /**
     * Append one record and fsync it. Not thread-safe: the caller
     * serialises its appends. Any failure — including a failed
     * fsync, which means the record may not survive a crash —
     * returns false with @p why naming the journal path and the
     * errno.
     */
    bool append(std::size_t index,
                const std::vector<std::uint8_t> &payload,
                std::string *why = nullptr);

    void close();

    /**
     * Bytes of the file: the header plus every record open() kept
     * or append() wrote. 0 while closed.
     */
    std::size_t bytes() const { return bytes_; }

    /** Bytes a record with an @p payload_bytes payload takes. */
    static std::size_t recordBytes(std::size_t payload_bytes);

    /** Records recovered from a previous run at open(). */
    std::size_t recovered() const { return recovered_; }
    /** Torn bytes truncated from the tail at open(). */
    std::size_t tornBytes() const { return torn_bytes_; }
    /** Whether open() discarded a journal from a different run. */
    bool discardedForeign() const { return discarded_foreign_; }

  private:
    int fd_ = -1;
    std::string path_; ///< for error messages naming the file
    std::size_t bytes_ = 0;
    std::size_t recovered_ = 0;
    std::size_t torn_bytes_ = 0;
    bool discarded_foreign_ = false;
};

} // namespace ckpt
} // namespace memwall

#endif // MEMWALL_CHECKPOINT_JOURNAL_HH
