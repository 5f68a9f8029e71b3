/**
 * @file
 * Bounded per-node flight recorder for protocol post-mortems.
 *
 * Silent protocol hangs are only diagnosable if the recent history
 * survives the crash. The recorder keeps a fixed-size ring of the
 * last K protocol/link/fault events per node; recording is a few
 * stores into preallocated storage, so it is cheap enough to leave
 * on whenever the shadow checker is attached. On a checker
 * violation, a watchdog trip or a machine check the ring is dumped
 * with every field decoded (event kind, directory state, service
 * level), turning a wedged bench into an actionable report.
 */

#ifndef MEMWALL_VERIFY_FLIGHT_RECORDER_HH
#define MEMWALL_VERIFY_FLIGHT_RECORDER_HH

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/types.hh"

namespace memwall {

/** What one flight-recorder entry describes. */
enum class FlightKind : std::uint8_t {
    AccessEnd,      ///< completed access: a = service, b = latency
    Invalidate,     ///< copy invalidated at this node
    Nack,           ///< protocol engine NACKed an attempt; a = tries
    Retry,          ///< backoff retry; a = tries, b = backoff
    MachineCheck,   ///< retry budget exhausted
    DirTransition,  ///< a = old encoded entry, b = new encoded entry
    LinkRetransmit, ///< link-layer retransmission; a = attempts
    LinkFailure,    ///< link gave up after max retries
    FaultInjected,  ///< soft error landed; a = bit index
    Violation,      ///< shadow-checker invariant violation
    WatchdogWarn,   ///< watchdog escalation step
};

/** Decoded name of @p kind ("access-end", "nack", ...). */
const char *flightKindName(FlightKind kind);

/** One recorded event (fixed size; meaning of a/b depends on kind). */
struct FlightEvent
{
    Tick tick = 0;
    Addr addr = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    FlightKind kind = FlightKind::AccessEnd;
};

/**
 * Per-node ring buffer of the last K events.
 *
 * Storage is allocated once at construction; record() never
 * allocates. Events older than the ring capacity are overwritten
 * oldest-first.
 */
class FlightRecorder
{
  public:
    /**
     * @param nodes     number of per-node rings
     * @param per_node  events retained per node (K)
     */
    explicit FlightRecorder(unsigned nodes, std::size_t per_node = 256);

    /** Append one event to @p node's ring. */
    void record(unsigned node, FlightKind kind, Tick tick, Addr addr,
                std::uint64_t a = 0, std::uint64_t b = 0);

    /** Total events ever recorded (including overwritten ones). */
    std::uint64_t recorded() const { return recorded_; }

    /** Events currently retained for @p node. */
    std::size_t retained(unsigned node) const;

    /** Ring capacity per node (K). */
    std::size_t capacity() const { return per_node_; }

    unsigned nodes() const
    {
        return static_cast<unsigned>(rings_.size());
    }

    /**
     * Snapshot of @p node's retained events, oldest first (for
     * tests and custom reporting).
     */
    std::vector<FlightEvent> events(unsigned node) const;

    /**
     * Dump every node's ring, oldest first, with all fields decoded.
     * @p reason is printed in the header so the dump records what
     * triggered it.
     */
    void dump(std::ostream &os, const std::string &reason) const;

    /** Drop all retained events (counters keep running). */
    void clear();

  private:
    struct Ring
    {
        std::vector<FlightEvent> events;
        std::size_t head = 0;   ///< next write position
        std::size_t count = 0;  ///< valid entries (<= capacity)
    };

    std::size_t per_node_;
    std::uint64_t recorded_ = 0;
    std::vector<Ring> rings_;
};

} // namespace memwall

#endif // MEMWALL_VERIFY_FLIGHT_RECORDER_HH
