#include "verify/flight_recorder.hh"

#include <ostream>

#include "coherence/directory.hh"
#include "coherence/protocol.hh"
#include "common/logging.hh"

namespace memwall {

namespace {

const char *
serviceName(ServiceLevel level)
{
    switch (level) {
      case ServiceLevel::CacheHit:
        return "cache-hit";
      case ServiceLevel::LocalMemory:
        return "local-memory";
      case ServiceLevel::IncHit:
        return "inc-hit";
      case ServiceLevel::Remote:
        return "remote";
      case ServiceLevel::Invalidation:
        return "invalidation";
    }
    return "?";
}

const char *
dirStateName(DirState state)
{
    switch (state) {
      case DirState::Uncached:
        return "I";
      case DirState::Shared:
        return "S";
      case DirState::Modified:
        return "M";
      case DirState::SharedBcast:
        return "S-bcast";
    }
    return "?";
}

/** Decode a 14-bit directory entry into "M(owner)" / "S{a,b}". */
void
printEntry(std::ostream &os, std::uint16_t bits)
{
    const DirEntry e = DirEntry::decode(bits);
    os << dirStateName(e.state());
    switch (e.state()) {
      case DirState::Modified:
        os << '(' << e.owner() << ')';
        break;
      case DirState::Shared: {
        os << '{';
        bool first = true;
        for (unsigned s : e.sharers()) {
            if (!first)
                os << ',';
            os << s;
            first = false;
        }
        os << '}';
        break;
      }
      case DirState::Uncached:
      case DirState::SharedBcast:
        break;
    }
}

} // namespace

const char *
flightKindName(FlightKind kind)
{
    switch (kind) {
      case FlightKind::AccessEnd:
        return "access-end";
      case FlightKind::Invalidate:
        return "invalidate";
      case FlightKind::Nack:
        return "nack";
      case FlightKind::Retry:
        return "retry";
      case FlightKind::MachineCheck:
        return "machine-check";
      case FlightKind::DirTransition:
        return "dir-transition";
      case FlightKind::LinkRetransmit:
        return "link-retransmit";
      case FlightKind::LinkFailure:
        return "link-failure";
      case FlightKind::FaultInjected:
        return "fault-injected";
      case FlightKind::Violation:
        return "VIOLATION";
      case FlightKind::WatchdogWarn:
        return "watchdog-warn";
    }
    return "?";
}

FlightRecorder::FlightRecorder(unsigned nodes, std::size_t per_node)
    : per_node_(per_node)
{
    MW_ASSERT(nodes >= 1, "flight recorder needs at least one node");
    MW_ASSERT(per_node_ >= 1, "ring capacity must be positive");
    rings_.resize(nodes);
    for (auto &ring : rings_)
        ring.events.resize(per_node_);
}

void
FlightRecorder::record(unsigned node, FlightKind kind, Tick tick,
                       Addr addr, std::uint64_t a, std::uint64_t b)
{
    MW_ASSERT(node < rings_.size(), "bad recorder node ", node);
    Ring &ring = rings_[node];
    FlightEvent &ev = ring.events[ring.head];
    ev.tick = tick;
    ev.addr = addr;
    ev.a = a;
    ev.b = b;
    ev.kind = kind;
    ring.head = (ring.head + 1) % per_node_;
    if (ring.count < per_node_)
        ++ring.count;
    ++recorded_;
}

std::size_t
FlightRecorder::retained(unsigned node) const
{
    MW_ASSERT(node < rings_.size(), "bad recorder node ", node);
    return rings_[node].count;
}

std::vector<FlightEvent>
FlightRecorder::events(unsigned node) const
{
    MW_ASSERT(node < rings_.size(), "bad recorder node ", node);
    const Ring &ring = rings_[node];
    std::vector<FlightEvent> out;
    out.reserve(ring.count);
    const std::size_t start =
        (ring.head + per_node_ - ring.count) % per_node_;
    for (std::size_t i = 0; i < ring.count; ++i)
        out.push_back(ring.events[(start + i) % per_node_]);
    return out;
}

void
FlightRecorder::dump(std::ostream &os,
                     const std::string &reason) const
{
    os << "=== flight recorder dump: " << reason << " ===\n";
    for (unsigned node = 0; node < rings_.size(); ++node) {
        const auto evs = events(node);
        os << "--- node " << node << " (" << evs.size()
           << " of last " << per_node_ << " events) ---\n";
        for (const FlightEvent &ev : evs) {
            os << "  [" << ev.tick << "] "
               << flightKindName(ev.kind) << " block=0x" << std::hex
               << ev.addr << std::dec;
            switch (ev.kind) {
              case FlightKind::AccessEnd:
                os << " service="
                   << serviceName(
                          static_cast<ServiceLevel>(ev.a))
                   << " latency=" << ev.b;
                break;
              case FlightKind::DirTransition:
                os << " ";
                printEntry(os,
                           static_cast<std::uint16_t>(ev.a));
                os << " -> ";
                printEntry(os,
                           static_cast<std::uint16_t>(ev.b));
                break;
              case FlightKind::Nack:
                os << " tries=" << ev.a;
                break;
              case FlightKind::Retry:
                os << " tries=" << ev.a << " backoff=" << ev.b;
                break;
              case FlightKind::LinkRetransmit:
                os << " attempts=" << ev.a;
                break;
              case FlightKind::FaultInjected:
                os << " bit=" << ev.a;
                break;
              case FlightKind::WatchdogWarn:
                os << " stage=" << ev.a;
                break;
              case FlightKind::Invalidate:
              case FlightKind::MachineCheck:
              case FlightKind::LinkFailure:
              case FlightKind::Violation:
                break;
            }
            os << '\n';
        }
    }
    os << "=== end of dump ===\n";
}

void
FlightRecorder::clear()
{
    for (auto &ring : rings_) {
        ring.head = 0;
        ring.count = 0;
    }
}

} // namespace memwall
