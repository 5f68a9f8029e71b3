/**
 * @file
 * The resident experiment service (mw-server).
 *
 * One process owns the Unix-domain socket, the shared ThreadPool and
 * the crash-safe ResultCache; clients frame JSON requests at it and
 * get figure documents back. The interesting parts are the failure
 * paths:
 *
 *  - Deduplication: concurrent requests for the same canonical run
 *    key share ONE computation. A cached result is final, so the
 *    cache is probed first and a hit is answered without the state
 *    mutex. Otherwise the first requester becomes the owner and
 *    admits the run; later requesters join the in-flight entry as
 *    waiters. A completed result is journaled into the
 *    cache BEFORE the in-flight entry is erased, so the key is
 *    always visible in one of the two and a request either joins the
 *    computation or hits the cache — never recomputes. The cache
 *    shows the entry to probes before its journal append; the fsync
 *    (and any compaction) runs under the cache's journal lock, never
 *    under the state mutex or the cache's memo lock, so admission,
 *    completion, pings, cache probes and stats snapshots never wait
 *    on disk I/O. Only the finishing run's own waiters wait for its
 *    fsync.
 *
 *  - Batching: a new run is decomposed into catalog points (see
 *    server/catalog.hh) and admitted at once, under the state mutex.
 *    Each point joins the compute unit of its unit key if one is
 *    queued, running, or finished less than batch_window_ms ago;
 *    every other point becomes a new unit, submitted to the pool
 *    right away. A fig7 and a fig8 request with the same refs need
 *    the same per-workload miss-rate pass, so the second to arrive
 *    joins the first's units and both documents render from one
 *    pass. The window is how long a finished unit stays joinable,
 *    not a wait: nothing sleeps before a unit starts. A finished
 *    unit hands its result (or failure) to a joining point at once;
 *    a running one hands it to every subscribing request when it
 *    completes. A request is finalized when its last point lands,
 *    exactly once, whether or not any point was shared.
 *
 *  - Deadlines: a waiter whose deadline_ms expires gets a
 *    deadline_exceeded error immediately; the computation itself is
 *    never torn down (the pool has no preemption and the result is
 *    still worth caching) — it finishes in the background and the
 *    next request is a cache hit. Deadlines (and mw-client
 *    --timeout-ms) are what bound a waiter: the simulators abort on
 *    their own deadlocks and livelocks, so a unit still running is
 *    slow, not stuck.
 *
 *  - Worker failure: a compute unit that throws fails every request
 *    subscribed to it with worker_failed, once. Units are
 *    deterministic simulations, so one that throws would throw again
 *    on a retry; the error carries no retry_after_ms hint.
 *
 *  - Admission control: over max_connections the connection is
 *    answered with one overloaded error (with a retry_after_ms hint
 *    of overloaded_retry_after_ms) and closed; over max_inflight a
 *    run request is shed the same way.
 *
 *  - Crash recovery: all completed results live in the ResultCache
 *    journal; a SIGKILL'd server replays it on restart and serves
 *    the same bytes as cache hits.
 *
 * Fault injection (the "fault" request field) is honoured only when
 * Options::allow_test_faults is set — it exists so the torture bench
 * can exercise every path above deterministically.
 */

#ifndef MEMWALL_SERVER_SERVER_HH
#define MEMWALL_SERVER_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/thread_pool.hh"
#include "server/protocol.hh"
#include "server/result_cache.hh"

namespace memwall {
namespace server {

/** The retry_after_ms hint an overloaded rejection carries. */
constexpr long overloaded_retry_after_ms = 80;

/** Server configuration; defaults suit interactive use. */
struct ServerOptions
{
    std::string socket_path;
    std::string cache_dir;
    unsigned jobs = 0; ///< pool workers; 0 = hardware default
    std::uint64_t cache_cap_bytes = 0; ///< 0 = unbounded
    std::uint64_t max_connections = 32;
    std::uint64_t max_inflight = 8;
    /** How long a finished compute unit stays joinable by a later
     *  run with the same unit key. Not a wait: a run's new units go
     *  to the pool at once. 0 shares only queued or running units. */
    std::uint64_t batch_window_ms = 0;
    bool allow_test_faults = false;
};

/** Monotonic counters, snapshotted for the "stats" command. */
struct ServerCounters
{
    std::uint64_t connections = 0;
    std::uint64_t requests = 0;
    std::uint64_t computed = 0;      ///< figure runs actually executed
    std::uint64_t cache_hits = 0;
    std::uint64_t dedup_joined = 0;  ///< requests that shared a run
    std::uint64_t shed = 0;          ///< overload rejections
    std::uint64_t bad_requests = 0;  ///< schema/frame/json rejections
    std::uint64_t deadline_misses = 0;
    std::uint64_t worker_failures = 0;
    std::uint64_t batches = 0;       ///< runs that joined no unit
    std::uint64_t batched_keys = 0;  ///< runs admitted
    std::uint64_t points_computed = 0; ///< compute units created
    std::uint64_t points_shared = 0; ///< points that joined a unit
};

class MwServer
{
  public:
    explicit MwServer(ServerOptions opt) : opt_(std::move(opt)) {}
    ~MwServer();

    MwServer(const MwServer &) = delete;
    MwServer &operator=(const MwServer &) = delete;

    /**
     * Open the cache, bind the socket (reclaiming a stale file from
     * a killed server) and start the pool. Returns false with @p why
     * on failure.
     */
    bool start(std::string *why);

    /** Accept-and-serve until requestStop(); then drain and clean up. */
    void run();

    /**
     * Ask the accept loop to exit. Async-signal-safe (one write(2)
     * to a self-pipe); the natural SIGTERM/SIGINT handler body.
     */
    void requestStop();

    /** The socket path actually bound (for tests). */
    const std::string &socketPath() const { return opt_.socket_path; }

    /** Counter snapshot (thread-safe). */
    ServerCounters counters() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** One deduplicated computation in flight. */
    struct Inflight
    {
        // All fields are guarded by MwServer::mu_; the cv waits on
        // that same mutex. One lock for the whole server keeps the
        // dedup/cache transitions atomic and TSan-clean.
        std::condition_variable cv;
        enum class State { Running, Done, Failed } state =
            State::Running;
        std::string result;       ///< figure JSON when Done
        std::string error_detail; ///< when Failed
        bool cacheable = true; ///< fault-injected runs are not
    };

    /** Scatter/gather context for one experiment computation. */
    struct ComputeJob;
    /** One deduplicated unit of work, shared by every point that
     *  names its unit key. */
    struct ComputeUnit;

    struct Connection
    {
        int fd = -1;
        std::thread thread;
    };

    void acceptLoop();
    void serveConnection(std::uint64_t conn_id, int fd);
    /** Handle one request payload; returns the response frame.
     *  Sets @p close_after for shutdown. */
    std::string handlePayload(const std::string &payload,
                              bool &close_after);
    std::string handleRun(const Request &req);
    std::string statsJson();
    /** Under mu_: join each point of @p job to the live unit of its
     *  key, or make it a new unit. Returns the new units, which the
     *  caller submits to the pool once mu_ is dropped. */
    std::vector<std::shared_ptr<ComputeUnit>>
    admit(const std::shared_ptr<ComputeJob> &job);
    /** Under mu_: hand finished @p unit's result or failure to point
     *  @p index of @p job. True when that was the job's last point. */
    bool deliver(const ComputeUnit &unit, ComputeJob &job,
                 std::size_t index);
    /** Under mu_: forget finished units older than the window. */
    void expireUnits(Clock::time_point now);
    /** One compute unit; runs on the pool. Distributes the result
     *  (or the failure) to every subscribing job. */
    void runUnit(const std::shared_ptr<ComputeUnit> &unit);
    /** Last-point completion: journal the result (the cache takes
     *  its own locks), then publish and notify (under mu_). Caller
     *  holds no locks. */
    void finalize(const std::shared_ptr<ComputeJob> &job);
    /** Join exited connection threads (no locks held on entry). */
    void reapFinishedConnections();
    /** Idempotent teardown shared by run() and the destructor. */
    void shutdownInternal();

    ServerOptions opt_;
    int listen_fd_ = -1;
    int stop_pipe_[2] = {-1, -1};
    bool started_ = false;

    std::unique_ptr<ThreadPool> pool_;

    mutable std::mutex mu_;
    bool stopping_ = false; // guarded by mu_
    // Thread-safe on its own (see result_cache.hh); its locks are
    // never taken while holding mu_, nor mu_ while holding them.
    ResultCache cache_;
    std::map<std::string, std::shared_ptr<Inflight>> inflight_;
    /** Guarded by mu_, except requests and cache_hits: those are
     *  counted in requests_ and cache_hits_, so that a cache hit
     *  never takes mu_, and merged in by counters(). */
    ServerCounters counters_;
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> cache_hits_{0};
    /** Joinable units by unit key: queued, running, or finished
     *  within the window. Fault-injected units never enter it.
     *  Guarded by mu_. */
    std::map<std::string, std::shared_ptr<ComputeUnit>> units_;
    /** The finished units of units_, oldest first; guarded by mu_. */
    std::deque<std::shared_ptr<ComputeUnit>> finished_units_;

    std::map<std::uint64_t, Connection> connections_;
    std::vector<std::uint64_t> finished_connections_;
    std::uint64_t next_conn_id_ = 0;
};

} // namespace server
} // namespace memwall

#endif // MEMWALL_SERVER_SERVER_HH
