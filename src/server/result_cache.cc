#include "server/result_cache.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "checkpoint/codec.hh"
#include "common/logging.hh"
#include "server/protocol.hh"

namespace memwall {
namespace server {

namespace {

/** Results are figure JSON documents, well under this. */
constexpr std::size_t max_result_bytes = 8u << 20;

std::vector<std::uint8_t>
encodePayload(const std::string &canonical, const std::string &result)
{
    ckpt::Encoder e;
    e.u64(ckpt::fnv1a64(canonical));
    e.str(canonical);
    e.str(result);
    return e.take();
}

} // namespace

bool
ResultCache::open(const std::string &dir, std::uint64_t cap_bytes,
                  std::string *why)
{
    close();
    cap_bytes_ = cap_bytes;
    journal_path_ = dir + "/results.mwsj";
    // The journal run hash binds the cache to this binary: a server
    // rebuilt from different code must recompute, not replay.
    run_hash_ = ckpt::fnv1a64(std::string("mw-server-results|") +
                              gitDescribe());

    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
        if (why)
            *why = "cannot create cache dir '" + dir +
                   "': " + std::strerror(errno);
        return false;
    }
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
        if (why)
            *why = "cache dir '" + dir + "' is not a directory";
        return false;
    }

    // The recovered records live only until the memo table holds
    // their decoded copies.
    ckpt::JournalRecords records;
    if (!journal_.open(journal_path_, run_hash_, &records, why))
        return false;

    // Replay: records are keyed by insertion sequence, so the map
    // walk reproduces insertion order and seq bookkeeping exactly.
    entries_.clear();
    next_seq_ = 0;
    for (const auto &[seq, payload] : records) {
        ckpt::Decoder d(payload);
        d.u64(); // key hash; recomputable, kept for inspection
        const std::string canonical = d.str();
        const std::string result = d.str(max_result_bytes);
        if (d.failed() || !d.atEnd()) {
            MW_WARN("result cache: undecodable journal record ", seq,
                    " ignored (", d.error(), ")");
            continue;
        }
        entries_[canonical] =
            Entry{result, static_cast<std::uint64_t>(seq)};
        next_seq_ =
            std::max(next_seq_, static_cast<std::uint64_t>(seq) + 1);
    }
    recovered_ = entries_.size();
    torn_bytes_ = journal_.tornBytes();
    discarded_foreign_ = journal_.discardedForeign();
    return true;
}

void
ResultCache::close()
{
    journal_.close();
    entries_.clear();
    recovered_ = 0;
    torn_bytes_ = 0;
    discarded_foreign_ = false;
    compactions_ = 0;
    next_seq_ = 0;
}

const std::string *
ResultCache::lookup(const std::string &canonical) const
{
    const auto it = entries_.find(canonical);
    return it == entries_.end() ? nullptr : &it->second.result;
}

bool
ResultCache::find(const std::string &canonical, std::string *out) const
{
    std::lock_guard<std::mutex> memo_lock(memo_mu_);
    const auto it = entries_.find(canonical);
    if (it == entries_.end())
        return false;
    *out = it->second.result;
    return true;
}

bool
ResultCache::insert(const std::string &canonical,
                    const std::string &result, std::string *why)
{
    std::lock_guard<std::mutex> journal_lock(journal_mu_);
    std::uint64_t seq = 0;
    {
        std::lock_guard<std::mutex> memo_lock(memo_mu_);
        seq = next_seq_++;
        entries_[canonical] = Entry{result, seq};
    }
    const bool appended = journal_.append(
        static_cast<std::size_t>(seq), encodePayload(canonical, result),
        why);
    if (appended && cap_bytes_ > 0 && journal_.bytes() > cap_bytes_) {
        std::string compact_why;
        if (!compact(&compact_why))
            MW_WARN("result cache: compaction failed: ", compact_why);
    }
    return appended;
}

bool
ResultCache::compact(std::string *why)
{
    const std::string tmp = journal_path_ + ".compact";
    ::unlink(tmp.c_str());
    ckpt::RecordJournal rewrite;
    if (!rewrite.open(tmp, run_hash_, nullptr, why))
        return false;

    // Newest-first, keep while under the cap (the newest entry is
    // always kept even if it alone busts the cap), then rewrite the
    // keepers oldest-first into the temp journal, renamed over the
    // old one — crash mid-compaction leaves the previous journal
    // intact.
    // The keys stay valid with the memo lock dropped: only inserts,
    // which wait on the journal lock this thread holds, change them.
    std::vector<std::pair<const std::string *,
                          std::vector<std::uint8_t>>>
        keep;
    {
        std::lock_guard<std::mutex> memo_lock(memo_mu_);
        std::vector<std::pair<std::uint64_t, const std::string *>> order;
        order.reserve(entries_.size());
        for (const auto &[canonical, entry] : entries_)
            order.emplace_back(entry.seq, &canonical);
        std::sort(order.begin(), order.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first;
                  });

        std::uint64_t bytes = rewrite.bytes(); // the fresh header
        for (const auto &[seq, canonical] : order) {
            auto payload = encodePayload(
                *canonical, entries_.find(*canonical)->second.result);
            const std::uint64_t cost =
                ckpt::RecordJournal::recordBytes(payload.size());
            if (!keep.empty() && bytes + cost > cap_bytes_)
                break;
            bytes += cost;
            keep.emplace_back(canonical, std::move(payload));
        }
    }
    std::reverse(keep.begin(), keep.end()); // back to oldest-first

    for (std::size_t i = 0; i < keep.size(); ++i) {
        if (!rewrite.append(i, keep[i].second, why)) {
            rewrite.close();
            ::unlink(tmp.c_str());
            return false;
        }
    }
    rewrite.close();

    journal_.close();
    if (::rename(tmp.c_str(), journal_path_.c_str()) != 0) {
        if (why)
            *why = "cannot rename '" + tmp + "' over '" +
                   journal_path_ + "': " + std::strerror(errno);
        ::unlink(tmp.c_str());
        // Reopen the untouched original so the cache stays usable.
        std::string reopen_why;
        if (!journal_.open(journal_path_, run_hash_, nullptr,
                           &reopen_why))
            MW_WARN("result cache: reopen after failed compaction: ",
                    reopen_why);
        return false;
    }
    // The survivors are in entries_ already; the reopen's records
    // would be a second copy of them.
    if (!journal_.open(journal_path_, run_hash_, nullptr, why))
        return false;

    // Rebuild the memo table from the survivors with fresh seqs.
    std::lock_guard<std::mutex> memo_lock(memo_mu_);
    std::map<std::string, Entry> survivors;
    for (std::size_t i = 0; i < keep.size(); ++i)
        survivors[*keep[i].first] =
            Entry{std::move(entries_[*keep[i].first].result), i};
    entries_ = std::move(survivors);
    next_seq_ = keep.size();
    ++compactions_;
    return true;
}

} // namespace server
} // namespace memwall
