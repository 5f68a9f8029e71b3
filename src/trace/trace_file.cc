#include "trace/trace_file.hh"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "checkpoint/file_io.hh"
#include "common/logging.hh"

namespace memwall {

namespace {

constexpr char magic[4] = {'M', 'W', 'T', 'R'};
constexpr std::uint32_t version = 1;

struct FileRecord
{
    std::uint64_t pc;
    std::uint64_t addr;
    std::uint8_t size;
    std::uint8_t type;
    std::uint8_t pad[6];
};
static_assert(sizeof(FileRecord) == 24, "trace record layout");

std::string
errnoSuffix()
{
    return std::string(": ") + std::strerror(errno);
}

} // namespace

std::uint64_t
TraceBuffer::generate(std::uint64_t max_refs, const RefSink &out)
{
    std::uint64_t emitted = 0;
    while (emitted < max_refs && position_ < refs_.size()) {
        out(refs_[position_++]);
        ++emitted;
    }
    return emitted;
}

void
TraceBuffer::clear()
{
    refs_.clear();
    position_ = 0;
}

bool
TraceBuffer::save(const std::string &path) const
{
    // Serialize into memory, then write through the crash-safe
    // temp + fsync + rename path: a failed or interrupted save never
    // leaves a torn trace under the final name.
    std::vector<std::uint8_t> bytes;
    bytes.reserve(sizeof(magic) + sizeof(std::uint32_t) +
                  sizeof(std::uint64_t) +
                  refs_.size() * sizeof(FileRecord));
    const auto put = [&bytes](const void *p, std::size_t n) {
        const auto *b = static_cast<const std::uint8_t *>(p);
        bytes.insert(bytes.end(), b, b + n);
    };
    put(magic, sizeof(magic));
    const std::uint32_t ver = version;
    put(&ver, sizeof(ver));
    const std::uint64_t count = refs_.size();
    put(&count, sizeof(count));
    for (const MemRef &ref : refs_) {
        FileRecord rec{};
        rec.pc = ref.pc;
        rec.addr = ref.addr;
        rec.size = ref.size;
        rec.type = static_cast<std::uint8_t>(ref.type);
        put(&rec, sizeof(rec));
    }

    std::string why;
    if (!ckpt::atomicWriteFile(path, bytes.data(), bytes.size(),
                               &why)) {
        last_error_ = why;
        MW_WARN("trace save failed: ", why);
        return false;
    }
    last_error_.clear();
    return true;
}

bool
TraceBuffer::load(const std::string &path)
{
    const auto fail = [&](std::string why) {
        last_error_ = std::move(why);
        MW_WARN("trace load failed: ", last_error_);
        return false;
    };

    std::ifstream is(path, std::ios::binary);
    if (!is)
        return fail("cannot open '" + path + "'" + errnoSuffix());
    char m[4];
    is.read(m, sizeof(m));
    if (!is)
        return fail("'" + path + "' is truncated in the magic");
    if (std::memcmp(m, magic, sizeof(magic)) != 0)
        return fail("'" + path + "' is not a MWTR trace file");
    std::uint32_t ver = 0;
    is.read(reinterpret_cast<char *>(&ver), sizeof(ver));
    if (!is)
        return fail("'" + path + "' is truncated in the version");
    if (ver != version)
        return fail("'" + path + "' has unsupported trace version " +
                    std::to_string(ver));
    std::uint64_t count = 0;
    is.read(reinterpret_cast<char *>(&count), sizeof(count));
    if (!is)
        return fail("'" + path +
                    "' is truncated in the record count");
    std::vector<MemRef> loaded;
    loaded.reserve(std::min<std::uint64_t>(count, 1u << 20));
    for (std::uint64_t i = 0; i < count; ++i) {
        FileRecord rec{};
        is.read(reinterpret_cast<char *>(&rec), sizeof(rec));
        if (!is)
            return fail("'" + path + "' is truncated at record " +
                        std::to_string(i) + " of " +
                        std::to_string(count));
        MemRef ref;
        ref.pc = rec.pc;
        ref.addr = rec.addr;
        ref.size = rec.size;
        if (rec.type > static_cast<std::uint8_t>(RefType::Store))
            return fail("'" + path + "' has a corrupt record " +
                        std::to_string(i) + " (type " +
                        std::to_string(rec.type) + ")");
        ref.type = static_cast<RefType>(rec.type);
        loaded.push_back(ref);
    }
    // All-or-nothing: the buffer keeps its previous contents on any
    // failure above.
    refs_ = std::move(loaded);
    position_ = 0;
    last_error_.clear();
    return true;
}

} // namespace memwall
