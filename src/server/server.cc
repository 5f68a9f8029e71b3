#include "server/server.hh"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json_text.hh"
#include "common/logging.hh"
#include "server/catalog.hh"
#include "server/wire.hh"

namespace memwall {
namespace server {

namespace {

/** listen(2) backlog of the server socket. */
constexpr int listen_backlog = 64;

std::chrono::milliseconds
ms(std::uint64_t v)
{
    return std::chrono::milliseconds(v);
}

void
setCloexec(int fd)
{
    const int flags = ::fcntl(fd, F_GETFD);
    if (flags >= 0)
        ::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

} // namespace

/** Scatter/gather context for one deduplicated experiment run.
 *  remaining/results/failed are guarded by MwServer::mu_; the fault
 *  countdown is atomic because units decrement it concurrently
 *  outside the lock. */
struct MwServer::ComputeJob
{
    std::string canonical;
    std::shared_ptr<Inflight> entry;
    RunRequest run;
    CatalogPlan plan;
    std::vector<std::shared_ptr<void>> results; ///< one per point
    std::size_t remaining = 0;
    bool failed = false;
    std::string fail_detail;
    std::atomic<std::int64_t> fault_countdown{0};
};

/** One deduplicated computation: the compute closure of the first
 *  point that named this unit key, every (job, point index) waiting
 *  for its result and, once it has run, that result or failure.
 *  key, label, compute and fault_job are immutable once the unit is
 *  admitted; the rest is guarded by MwServer::mu_. */
struct MwServer::ComputeUnit
{
    std::string key;
    std::string label;
    std::function<std::shared_ptr<void>()> compute;
    /** The owning job when this unit is fault-injected; unit keys of
     *  fault runs are scoped to their canonical key and never
     *  joined, so a fault unit has exactly one subscriber and this
     *  is it. Null for clean units. */
    std::shared_ptr<ComputeJob> fault_job;
    std::vector<std::pair<std::shared_ptr<ComputeJob>, std::size_t>>
        subscribers;
    bool finished = false;
    std::shared_ptr<void> result; ///< null when the unit failed
    std::string error;            ///< when it failed
    Clock::time_point finished_at;
};

MwServer::~MwServer()
{
    shutdownInternal();
    // The stop pipe outlives shutdown so requestStop() (a signal
    // handler's write(2)) can never race a close of its fd; it dies
    // only with the object itself.
    for (int &fd : stop_pipe_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
}

bool
MwServer::start(std::string *why)
{
    MW_ASSERT(!started_, "server started twice");
    if (stop_pipe_[0] < 0) {
        if (::pipe(stop_pipe_) != 0) {
            if (why)
                *why = std::string("cannot create stop pipe: ") +
                       std::strerror(errno);
            return false;
        }
        setCloexec(stop_pipe_[0]);
        setCloexec(stop_pipe_[1]);
    } else {
        // Reused after a shutdown: drain any stale stop byte so the
        // new accept loop does not exit immediately.
        const int flags = ::fcntl(stop_pipe_[0], F_GETFL);
        ::fcntl(stop_pipe_[0], F_SETFL, flags | O_NONBLOCK);
        char sink[16];
        while (::read(stop_pipe_[0], sink, sizeof(sink)) > 0) {
        }
        ::fcntl(stop_pipe_[0], F_SETFL, flags);
    }

    if (!cache_.open(opt_.cache_dir, opt_.cache_cap_bytes, why))
        return false;
    if (cache_.recovered() > 0)
        MW_INFORM("mw-server: replayed ", cache_.recovered(),
                  " cached result(s) from ", opt_.cache_dir);
    if (cache_.tornBytes() > 0)
        MW_WARN("mw-server: dropped ", cache_.tornBytes(),
                " torn byte(s) from the result journal");
    if (cache_.discardedForeign())
        MW_INFORM("mw-server: discarded result journal from a "
                  "different build");

    listen_fd_ = listenUnix(opt_.socket_path, listen_backlog, why);
    if (listen_fd_ < 0)
        return false;
    setCloexec(listen_fd_);

    pool_ = std::make_unique<ThreadPool>(opt_.jobs);
    // A restart after shutdownInternal() must not inherit the old
    // stop flag or units finished before it.
    stopping_ = false;
    inflight_.clear();
    units_.clear();
    finished_units_.clear();
    started_ = true;
    return true;
}

void
MwServer::requestStop()
{
    if (stop_pipe_[1] >= 0) {
        const char c = 's';
        // Async-signal-safe: one write(2), no locks, no allocation.
        [[maybe_unused]] const ssize_t n =
            ::write(stop_pipe_[1], &c, 1);
    }
}

void
MwServer::run()
{
    MW_ASSERT(started_, "run() before start()");
    acceptLoop();
    shutdownInternal();
}

void
MwServer::shutdownInternal()
{
    if (!started_)
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
        // Wake every request thread parked on an in-flight entry
        // (they answer shutting_down) and half-close every
        // connection so blocked readFrame() calls return.
        for (auto &[canonical, entry] : inflight_)
            entry->cv.notify_all();
        for (auto &[id, conn] : connections_)
            ::shutdown(conn.fd, SHUT_RDWR);
    }

    for (;;) {
        std::vector<std::thread> dead;
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (auto &[id, conn] : connections_)
                if (conn.thread.joinable())
                    dead.push_back(std::move(conn.thread));
            connections_.clear();
            finished_connections_.clear();
        }
        if (dead.empty())
            break;
        for (auto &t : dead)
            t.join();
    }

    // Every unit was submitted by a connection thread, all joined
    // above. Drain outstanding computations before the cache goes
    // away: finalize still wants to journal their results.
    pool_.reset();
    cache_.close();

    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
        ::unlink(opt_.socket_path.c_str());
    }
    // stop_pipe_ stays open (see ~MwServer): requestStop() may be
    // called from a signal handler at any point in the lifetime.
    started_ = false;
}

ServerCounters
MwServer::counters() const
{
    ServerCounters c;
    {
        std::lock_guard<std::mutex> lock(mu_);
        c = counters_;
    }
    c.requests = requests_.load();
    c.cache_hits = cache_hits_.load();
    return c;
}

void
MwServer::acceptLoop()
{
    for (;;) {
        pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                         {stop_pipe_[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            MW_WARN("mw-server: poll: ", std::strerror(errno));
            break;
        }
        if (fds[1].revents != 0)
            break; // requestStop()
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            MW_WARN("mw-server: accept: ", std::strerror(errno));
            break;
        }
        setCloexec(cfd);

        reapFinishedConnections();

        bool shed = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++counters_.connections;
            if (stopping_ ||
                connections_.size() >= opt_.max_connections) {
                ++counters_.shed;
                shed = true;
            } else {
                const std::uint64_t id = next_conn_id_++;
                Connection &conn = connections_[id];
                conn.fd = cfd;
                conn.thread = std::thread(
                    [this, id, cfd] { serveConnection(id, cfd); });
            }
        }
        if (shed) {
            // One named rejection, then close: the client learns to
            // back off instead of hanging on an ignored socket.
            writeFrame(cfd,
                       errorResponse("", ErrorCode::Overloaded,
                                     "connection limit reached",
                                     overloaded_retry_after_ms),
                       nullptr);
            ::close(cfd);
        }
    }
}

void
MwServer::reapFinishedConnections()
{
    std::vector<std::thread> dead;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const std::uint64_t id : finished_connections_) {
            auto it = connections_.find(id);
            if (it == connections_.end())
                continue;
            dead.push_back(std::move(it->second.thread));
            connections_.erase(it);
        }
        finished_connections_.clear();
    }
    for (auto &t : dead)
        t.join();
}

void
MwServer::serveConnection(std::uint64_t conn_id, int fd)
{
    std::string payload;
    for (;;) {
        std::string why;
        const FrameStatus st = readFrame(fd, payload, &why);
        if (st == FrameStatus::Eof || st == FrameStatus::IoError)
            break;
        if (st == FrameStatus::BadFrame) {
            // The stream position is unknown; answer and close.
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++counters_.bad_requests;
            }
            writeFrame(fd,
                       errorResponse("", ErrorCode::BadFrame, why),
                       nullptr);
            break;
        }
        if (st == FrameStatus::Oversized) {
            // The payload was drained; the stream is still framed.
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++counters_.bad_requests;
            }
            if (!writeFrame(
                    fd, errorResponse("", ErrorCode::Oversized, why),
                    nullptr))
                break;
            continue;
        }
        bool close_after = false;
        const std::string response =
            handlePayload(payload, close_after);
        if (!writeFrame(fd, response, &why)) {
            MW_WARN("mw-server: ", why);
            break;
        }
        if (close_after) {
            requestStop();
            break;
        }
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(mu_);
    finished_connections_.push_back(conn_id);
}

std::string
MwServer::handlePayload(const std::string &payload, bool &close_after)
{
    requests_.fetch_add(1);
    Request req;
    ErrorCode code = ErrorCode::Internal;
    std::string detail;
    if (!parseRequest(payload, req, code, detail)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++counters_.bad_requests;
        return errorResponse(req.id, code, detail);
    }
    switch (req.cmd) {
    case Request::Cmd::Ping:
        return okResponse(req.id, false, "{\"pong\":true}");
    case Request::Cmd::Stats:
        return okResponse(req.id, false, statsJson());
    case Request::Cmd::Shutdown:
        close_after = true;
        return okResponse(req.id, false,
                          "{\"shutting_down\":true}");
    case Request::Cmd::Run:
        if (req.run.has_fault && !opt_.allow_test_faults) {
            std::lock_guard<std::mutex> lock(mu_);
            ++counters_.bad_requests;
            return errorResponse(
                req.id, ErrorCode::FaultInjectionDisabled,
                "the server was not started with "
                "--allow-test-faults");
        }
        return handleRun(req);
    }
    return errorResponse(req.id, ErrorCode::Internal,
                         "unhandled command");
}

std::string
MwServer::handleRun(const Request &req)
{
    const auto deadline = Clock::now() + ms(req.run.deadline_ms);

    std::string canonical = canonicalRunKey(req.run);
    if (req.run.has_fault)
        // Fault-injected runs must never collide with (or poison)
        // the real entry for the same parameters.
        canonical += "|fault=" +
                     std::to_string(req.run.fault_fail_points) + "," +
                     std::to_string(req.run.fault_hang_ms);

    // A cached result is final, so a hit — most run requests — is
    // answered without taking mu_, which admission and completion
    // keep busy. The probe takes only the cache's memo lock, never
    // waiting on another run's journal fsync.
    std::string hit;
    const auto probe = [&] { return cache_.find(canonical, &hit); };
    if (!req.run.has_fault && probe()) {
        cache_hits_.fetch_add(1);
        return okResponse(req.id, true, hit);
    }

    std::unique_lock<std::mutex> lk(mu_);
    std::shared_ptr<Inflight> entry;
    std::shared_ptr<ComputeJob> job; // set when this request owns the run
    // Two passes at most: a run that was in flight at the first probe
    // may have finished since, so a key not in flight is probed once
    // more (with mu_ dropped), after which stop and in-flight state
    // must be re-checked from scratch.
    for (bool probed = false; entry == nullptr;) {
        if (stopping_)
            return errorResponse(req.id, ErrorCode::ShuttingDown,
                                 "server is draining");
        if (auto it = inflight_.find(canonical);
            it != inflight_.end()) {
            entry = it->second;
            ++counters_.dedup_joined;
            break;
        }
        if (!req.run.has_fault && !probed) {
            probed = true;
            lk.unlock();
            if (probe()) {
                cache_hits_.fetch_add(1);
                return okResponse(req.id, true, hit);
            }
            lk.lock();
            continue;
        }
        if (inflight_.size() >= opt_.max_inflight) {
            ++counters_.shed;
            return errorResponse(req.id, ErrorCode::Overloaded,
                                 "experiment queue is full",
                                 overloaded_retry_after_ms);
        }
        entry = std::make_shared<Inflight>();
        entry->cacheable = !req.run.has_fault;
        inflight_[canonical] = entry;

        job = std::make_shared<ComputeJob>();
        job->canonical = canonical;
        job->entry = entry;
        job->run = req.run;
        // Fault-injected units are scoped to this run's canonical
        // key (unique while in flight), so they can never coalesce
        // with — or poison — a clean request's unit.
        job->plan = buildCatalogPlan(
            req.run, req.run.has_fault ? canonical : std::string());
        MW_ASSERT(!job->plan.points.empty(),
                  "catalog plan with no points");
        job->results.resize(job->plan.points.size());
        job->remaining = job->plan.points.size();
        job->fault_countdown = static_cast<std::int64_t>(
            req.run.has_fault ? req.run.fault_fail_points : 0);
    }

    if (job) {
        const std::vector<std::shared_ptr<ComputeUnit>> fresh =
            admit(job);
        // A run whose points all joined finished units is complete
        // already. finalize() journals (and fsyncs), and the new
        // units need no lock to submit, so both happen with mu_
        // dropped.
        const bool complete = job->remaining == 0;
        lk.unlock();
        if (complete)
            finalize(job);
        for (const auto &unit : fresh)
            pool_->submit([this, unit] { runUnit(unit); });
        lk.lock();
    }

    // Owner and joiners alike wait for completion, stop or their own
    // deadline — whichever comes first.
    const auto done_or_doomed = [&] {
        return stopping_ || entry->state != Inflight::State::Running;
    };
    bool in_time = true;
    if (req.run.deadline_ms > 0)
        in_time = entry->cv.wait_until(lk, deadline, done_or_doomed);
    else
        entry->cv.wait(lk, done_or_doomed);

    // A finished result outranks every doom condition: if it is
    // there, serve it.
    if (entry->state == Inflight::State::Done)
        return okResponse(req.id, false, entry->result);
    if (entry->state == Inflight::State::Failed)
        return errorResponse(req.id, ErrorCode::WorkerFailed,
                             entry->error_detail);
    if (!in_time) {
        ++counters_.deadline_misses;
        return errorResponse(
            req.id, ErrorCode::DeadlineExceeded,
            "deadline of " + std::to_string(req.run.deadline_ms) +
                " ms elapsed; the computation continues and will be "
                "cached",
            static_cast<long>(req.run.deadline_ms));
    }
    return errorResponse(req.id, ErrorCode::ShuttingDown,
                         "server is draining");
}

std::vector<std::shared_ptr<MwServer::ComputeUnit>>
MwServer::admit(const std::shared_ptr<ComputeJob> &job)
{
    expireUnits(Clock::now());
    // Submission order follows plan order, so a run that shares
    // nothing schedules exactly like a run on an idle server.
    std::vector<std::shared_ptr<ComputeUnit>> fresh;
    std::size_t joined = 0;
    for (std::size_t i = 0; i < job->plan.points.size(); ++i) {
        CatalogPoint &pt = job->plan.points[i];
        const auto it = job->run.has_fault ? units_.end()
                                           : units_.find(pt.unit_key);
        if (it != units_.end()) {
            ComputeUnit &unit = *it->second;
            ++joined;
            if (unit.finished)
                deliver(unit, *job, i);
            else
                unit.subscribers.emplace_back(job, i);
            continue;
        }
        auto unit = std::make_shared<ComputeUnit>();
        unit->key = pt.unit_key;
        unit->label = pt.label;
        unit->compute = std::move(pt.compute);
        if (job->run.has_fault)
            unit->fault_job = job;
        else
            units_.emplace(unit->key, unit);
        unit->subscribers.emplace_back(job, i);
        fresh.push_back(std::move(unit));
    }
    ++counters_.batched_keys;
    if (joined == 0)
        ++counters_.batches;
    counters_.points_computed += fresh.size();
    counters_.points_shared += joined;
    return fresh;
}

bool
MwServer::deliver(const ComputeUnit &unit, ComputeJob &job,
                  std::size_t index)
{
    if (unit.result) {
        job.results[index] = unit.result;
    } else {
        ++counters_.worker_failures;
        if (!job.failed) {
            job.failed = true;
            job.fail_detail = unit.label + " failed: " + unit.error;
        }
    }
    MW_ASSERT(job.remaining > 0, "compute job over-completed");
    return --job.remaining == 0;
}

void
MwServer::expireUnits(Clock::time_point now)
{
    // Units finish in finished_at order, so the expired ones are a
    // prefix of the queue.
    while (!finished_units_.empty() &&
           now - finished_units_.front()->finished_at >=
               ms(opt_.batch_window_ms)) {
        units_.erase(finished_units_.front()->key);
        finished_units_.pop_front();
    }
}

void
MwServer::runUnit(const std::shared_ptr<ComputeUnit> &unit)
{
    std::shared_ptr<void> result;
    std::string error;
    const std::shared_ptr<ComputeJob> &fault = unit->fault_job;
    // The fault hang sleeps on the pool worker itself: with a small
    // pool, enough hung units can occupy every worker and unrelated
    // requests queue behind the sleeps. Accepted for a test-only
    // hook.
    if (fault && fault->run.fault_hang_ms > 0)
        std::this_thread::sleep_for(ms(fault->run.fault_hang_ms));
    try {
        if (fault && fault->fault_countdown.fetch_sub(1) > 0)
            throw std::runtime_error("injected worker fault");
        result = unit->compute();
    } catch (const std::exception &e) {
        error = e.what();
    }

    // Deliver to every subscriber; finalize each job whose last
    // point this was. finalize() journals and fsyncs, so it must
    // run with mu_ dropped.
    std::vector<std::shared_ptr<ComputeJob>> completed;
    {
        std::lock_guard<std::mutex> lock(mu_);
        unit->finished = true;
        unit->result = std::move(result);
        unit->error = std::move(error);
        for (const auto &[job, index] : unit->subscribers)
            if (deliver(*unit, *job, index))
                completed.push_back(job);
        unit->subscribers.clear();
        // A clean unit stays joinable for the window; with a window
        // of 0, expireUnits() drops it at once.
        const Clock::time_point now = Clock::now();
        if (!fault) {
            unit->finished_at = now;
            finished_units_.push_back(unit);
        }
        expireUnits(now);
    }
    for (const auto &job : completed)
        finalize(job);
}

void
MwServer::finalize(const std::shared_ptr<ComputeJob> &job)
{
    // Every point has finished: each one's mu_-guarded decrement
    // happened-before this thread observed remaining == 0, so the
    // job fields are safe to read without the lock — and no one
    // writes them again.
    const std::shared_ptr<Inflight> &entry = job->entry;
    std::string result_json;
    if (!job->failed)
        result_json = job->plan.render(job->results);

    // Journal BEFORE publishing completion: the key stays visible in
    // inflight_ until the cache holds it, so a duplicate request can
    // never slip between the two and recompute. The cache shows the
    // entry to probes before its fsync, which runs (with any
    // compaction) under the cache's journal lock only — never under
    // mu_ — so neither admission and completion nor another run's
    // cache hit stalls behind disk I/O. This run's own waiters are
    // woken after the fsync.
    if (!job->failed && entry->cacheable) {
        std::string why;
        if (!cache_.insert(job->canonical, result_json, &why))
            // The response is still served from memory; only
            // restart durability is lost.
            MW_WARN("mw-server: result not persisted: ", why);
    }

    std::lock_guard<std::mutex> lock(mu_);
    if (job->failed) {
        entry->state = Inflight::State::Failed;
        entry->error_detail = job->fail_detail;
    } else {
        entry->state = Inflight::State::Done;
        entry->result = std::move(result_json);
        ++counters_.computed;
    }
    inflight_.erase(job->canonical);
    entry->cv.notify_all();
}

std::string
MwServer::statsJson()
{
    // Snapshot mu_'s state and the cache's counters separately: the
    // counters take only the cache's memo lock, never waiting on a
    // journal fsync, and never while mu_ is held.
    const ServerCounters counters = this->counters();
    std::size_t inflight_count = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        inflight_count = inflight_.size();
    }
    const std::size_t cache_entries = cache_.size();
    const std::size_t cache_recovered = cache_.recovered();
    const std::size_t cache_torn = cache_.tornBytes();
    const std::uint64_t cache_compactions = cache_.compactions();
    std::string out = "{\"build\":\"";
    out += jsontext::escape(gitDescribe());
    out += "\",\"workers\":" + std::to_string(pool_->workers());
    out += ",\"task_exceptions\":" +
           std::to_string(pool_->taskExceptions());
    out += ",\"counters\":{";
    out += "\"connections\":" +
           std::to_string(counters.connections);
    out += ",\"requests\":" + std::to_string(counters.requests);
    out += ",\"computed\":" + std::to_string(counters.computed);
    out += ",\"cache_hits\":" + std::to_string(counters.cache_hits);
    out += ",\"dedup_joined\":" +
           std::to_string(counters.dedup_joined);
    out += ",\"shed\":" + std::to_string(counters.shed);
    out += ",\"bad_requests\":" +
           std::to_string(counters.bad_requests);
    out += ",\"deadline_misses\":" +
           std::to_string(counters.deadline_misses);
    out += ",\"worker_failures\":" +
           std::to_string(counters.worker_failures);
    out += ",\"batches\":" + std::to_string(counters.batches);
    out += ",\"batched_keys\":" +
           std::to_string(counters.batched_keys);
    out += ",\"points_computed\":" +
           std::to_string(counters.points_computed);
    out += ",\"points_shared\":" +
           std::to_string(counters.points_shared);
    out += "},\"cache\":{";
    out += "\"entries\":" + std::to_string(cache_entries);
    out += ",\"recovered\":" + std::to_string(cache_recovered);
    out += ",\"torn_bytes\":" + std::to_string(cache_torn);
    out += ",\"compactions\":" + std::to_string(cache_compactions);
    out += "},\"inflight\":" + std::to_string(inflight_count);
    out += "}";
    return out;
}

} // namespace server
} // namespace memwall
