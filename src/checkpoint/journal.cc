#include "checkpoint/journal.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "checkpoint/codec.hh"
#include "checkpoint/file_io.hh"

namespace memwall {
namespace ckpt {

namespace {

constexpr std::uint32_t journal_magic = fourcc("MWSJ");
constexpr std::uint32_t journal_version = 1;
constexpr std::size_t journal_header = 4 + 4 + 8;
constexpr std::size_t record_header = 8 + 8 + 4;

std::string
errnoMessage(const std::string &what, const std::string &path)
{
    return what + " '" + path + "': " + std::strerror(errno);
}

} // namespace

std::optional<JournalScan>
scanJournal(const std::string &path, std::string *why)
{
    const auto bytes = readFileBytes(path, why);
    if (!bytes)
        return std::nullopt;
    JournalScan scan;
    Decoder d(*bytes);
    const std::uint32_t magic = d.u32();
    const std::uint32_t version = d.u32();
    scan.run_hash = d.u64();
    scan.header_ok = d.ok() && magic == journal_magic &&
                     version == journal_version;
    if (!scan.header_ok)
        return scan;
    scan.valid_bytes = journal_header;
    // Scan records; stop at the first torn or corrupt one.
    while (d.remaining() >= record_header) {
        const std::uint64_t index = d.u64();
        const std::uint64_t len = d.u64();
        const std::uint32_t crc = d.u32();
        if (d.failed() || len > d.remaining())
            break;
        std::vector<std::uint8_t> payload(
            static_cast<std::size_t>(len));
        d.bytes(payload.data(), payload.size());
        if (d.failed() ||
            crc32(payload.data(), payload.size()) != crc)
            break;
        scan.records[static_cast<std::size_t>(index)] =
            std::move(payload);
        scan.valid_bytes +=
            RecordJournal::recordBytes(static_cast<std::size_t>(len));
    }
    scan.torn_bytes = bytes->size() - scan.valid_bytes;
    return scan;
}

bool
RecordJournal::open(const std::string &path, std::uint64_t run_hash,
                    JournalRecords *recovered, std::string *why)
{
    close();
    if (recovered)
        recovered->clear();
    recovered_ = 0;
    torn_bytes_ = 0;
    discarded_foreign_ = false;

    std::size_t valid_len = 0;
    bool fresh = true;
    JournalRecords found;
    if (auto scan = scanJournal(path)) {
        if (scan->header_ok && scan->run_hash == run_hash) {
            fresh = false;
            valid_len = scan->valid_bytes;
            found = std::move(scan->records);
            recovered_ = found.size();
            torn_bytes_ = scan->torn_bytes;
        } else {
            // Present but not ours: a different run (or garbage).
            // Replaying it would splice foreign results into this
            // run, so start over instead.
            discarded_foreign_ = true;
        }
    }

    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd_ < 0) {
        if (why)
            *why = errnoMessage("cannot open journal", path);
        return false;
    }
    path_ = path;
    if (fresh) {
        if (::ftruncate(fd_, 0) != 0) {
            if (why)
                *why = errnoMessage("cannot truncate journal", path);
            close();
            return false;
        }
        Encoder header;
        header.u32(journal_magic);
        header.u32(journal_version);
        header.u64(run_hash);
        if (::write(fd_, header.data().data(), header.size()) !=
            static_cast<ssize_t>(header.size())) {
            if (why)
                *why = errnoMessage("short write to journal", path);
            close();
            return false;
        }
        valid_len = header.size();
    } else if (torn_bytes_ > 0 &&
               ::ftruncate(fd_, static_cast<off_t>(valid_len)) != 0) {
        if (why)
            *why = errnoMessage("cannot drop torn tail of", path);
        close();
        return false;
    }
    if (::lseek(fd_, static_cast<off_t>(valid_len), SEEK_SET) < 0) {
        if (why)
            *why = errnoMessage("cannot seek journal", path);
        close();
        return false;
    }
    if (::fsync(fd_) != 0) {
        // The truncated tail / fresh header may not be durable:
        // refuse to run on top of a journal we cannot sync.
        if (why)
            *why = errnoMessage("cannot fsync journal", path);
        close();
        return false;
    }
    bytes_ = valid_len;
    if (recovered)
        *recovered = std::move(found);
    return true;
}

bool
RecordJournal::append(std::size_t index,
                      const std::vector<std::uint8_t> &payload,
                      std::string *why)
{
    if (fd_ < 0) {
        if (why)
            *why = "journal is not open";
        return false;
    }
    Encoder rec;
    rec.u64(index);
    rec.u64(payload.size());
    rec.u32(crc32(payload.data(), payload.size()));
    rec.bytes(payload.data(), payload.size());
    const auto &buf = rec.data();
    std::size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n =
            ::write(fd_, buf.data() + off, buf.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (why)
                *why = errnoMessage("short write to journal", path_);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd_) != 0) {
        // The bytes are in the page cache but not durably on disk:
        // a crash could tear this record. Report it — surviving a
        // crash is the whole point of the journal.
        if (why)
            *why = errnoMessage("cannot fsync journal", path_);
        return false;
    }
    bytes_ += buf.size();
    return true;
}

std::size_t
RecordJournal::recordBytes(std::size_t payload_bytes)
{
    return record_header + payload_bytes;
}

void
RecordJournal::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    path_.clear();
    bytes_ = 0;
}

} // namespace ckpt
} // namespace memwall
