/**
 * @file
 * Test-only oracle for SyntheticWorkload: the reference-stream
 * generator as first written, drawing every choice in floating point
 * through Rng's distributions — bernoulli() for the data reference
 * and store decisions, uniformReal() scaled by the weight total and
 * walked down the weights for the stream and routine picks,
 * uniformInt() for random-stream slots, and a std::map lookup for
 * lockstep groups. SyntheticWorkload draws the same values in
 * integer space; the tests hold it to this generator's MemRef stream
 * reference for reference.
 */

#ifndef MEMWALL_TESTS_REFERENCE_SYNTHETIC_HH
#define MEMWALL_TESTS_REFERENCE_SYNTHETIC_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "trace/ref.hh"
#include "trace/synthetic.hh"

namespace memwall {

class ReferenceSyntheticWorkload
{
  public:
    explicit ReferenceSyntheticWorkload(SyntheticSpec spec);

    void reset();

    /** SyntheticWorkload::scatterState(). */
    void scatterState();

    /** The reference stream, one MemRef at a time. */
    template <typename Fn>
    std::uint64_t
    generateInto(std::uint64_t max_refs, Fn &&sink)
    {
        std::uint64_t emitted = 0;
        while (emitted < max_refs) {
            // Instruction fetch from the current routine.
            const CodeRoutine &routine = spec_.routines[cur_routine_];
            const Addr pc = routine.base + cur_offset_;
            sink(MemRef::fetch(pc));
            ++emitted;

            advanceRoutine(routine);

            // Optional data reference.
            if (emitted < max_refs && !spec_.streams.empty() &&
                rng_.bernoulli(spec_.refs_per_instr)) {
                const DataRef ref = nextData(pickStream());
                sink(ref.store
                         ? MemRef::store(pc, ref.addr, ref.size)
                         : MemRef::load(pc, ref.addr, ref.size));
                ++emitted;
            }
        }
        return emitted;
    }

    const SyntheticSpec &spec() const { return spec_; }

  private:
    struct DataRef
    {
        Addr addr;
        bool store;
        std::uint8_t size;
    };

    void selectRoutine();
    /** Step the instruction-stream state machine past one fetch. */
    void
    advanceRoutine(const CodeRoutine &routine)
    {
        cur_offset_ += 4;
        if (cur_offset_ < routine.length)
            return;
        advanceRoutineEnd(routine);
    }
    void advanceRoutineEnd(const CodeRoutine &routine);
    std::size_t pickStream();
    DataRef nextData(std::size_t stream_index);

    struct Group
    {
        std::vector<std::size_t> members;
        std::uint64_t cursor = 0;
        std::uint32_t rr = 0;
        std::uint32_t reuse_left = 1;
    };

    SyntheticSpec spec_;
    Rng rng_;
    double routine_weight_total_ = 0.0;
    double stream_weight_total_ = 0.0;

    // Instruction-stream state.
    std::size_t cur_routine_ = 0;
    std::uint32_t cur_offset_ = 0;
    std::uint64_t repeats_left_ = 0;
    /** Caller index while executing a callee, or -1. */
    std::ptrdiff_t call_return_ = -1;

    // Per-stream cursors and remaining-reuse counters.
    std::vector<std::uint64_t> cursors_;
    std::vector<std::uint32_t> reuse_left_;
    /** Lockstep groups keyed by DataStream::group id. */
    std::map<int, Group> groups_;
    /** Stream index -> its group id (or -1). */
    std::vector<int> stream_group_;
};


inline
ReferenceSyntheticWorkload::ReferenceSyntheticWorkload(SyntheticSpec spec)
    : spec_(std::move(spec)), rng_(spec_.seed)
{
    if (spec_.routines.empty())
        MW_FATAL(spec_.name, ": workload needs at least one routine");
    for (const auto &r : spec_.routines) {
        MW_ASSERT(r.length >= 4 && r.length % 4 == 0,
                  spec_.name, ": routine length must be a positive "
                  "multiple of 4");
        MW_ASSERT(r.weight > 0.0 && r.mean_repeats >= 1.0,
                  spec_.name, ": bad routine parameters");
        if (r.call_target >= 0) {
            MW_ASSERT(static_cast<std::size_t>(r.call_target) <
                          spec_.routines.size(),
                      spec_.name, ": call target out of range");
            MW_ASSERT(spec_.routines[static_cast<std::size_t>(
                          r.call_target)].call_target < 0,
                      spec_.name, ": nested routine calls unsupported");
        }
        routine_weight_total_ += r.weight;
    }
    stream_group_.reserve(spec_.streams.size());
    for (std::size_t i = 0; i < spec_.streams.size(); ++i) {
        const auto &s = spec_.streams[i];
        MW_ASSERT(s.size > 0 && s.weight > 0.0,
                  spec_.name, ": bad stream parameters");
        stream_weight_total_ += s.weight;
        stream_group_.push_back(s.group);
        if (s.group >= 0) {
            MW_ASSERT(s.kind == StreamKind::Strided,
                      spec_.name, ": lockstep streams must be strided");
            groups_[s.group].members.push_back(i);
        }
    }
    if (spec_.streams.empty() && spec_.refs_per_instr > 0.0)
        MW_FATAL(spec_.name,
                 ": refs_per_instr > 0 but no data streams given");
    cursors_.assign(spec_.streams.size(), 0);
    reuse_left_.assign(spec_.streams.size(), 0);
    reset();
}

inline void
ReferenceSyntheticWorkload::reset()
{
    rng_ = Rng(spec_.seed);
    cur_routine_ = 0;
    cur_offset_ = 0;
    repeats_left_ = 0;
    call_return_ = -1;
    std::fill(cursors_.begin(), cursors_.end(), 0);
    for (std::size_t i = 0; i < reuse_left_.size(); ++i)
        reuse_left_[i] =
            spec_.streams[i].reuse ? spec_.streams[i].reuse : 1;
    for (auto &[id, group] : groups_) {
        group.cursor = 0;
        group.rr = 0;
        const auto &first = spec_.streams[group.members.front()];
        group.reuse_left = first.reuse ? first.reuse : 1;
    }
    selectRoutine();
}

inline void
ReferenceSyntheticWorkload::scatterState()
{
    // Independent stream cursors: a uniform position on the walk.
    for (std::size_t i = 0; i < spec_.streams.size(); ++i) {
        if (stream_group_[i] >= 0)
            continue;
        const DataStream &s = spec_.streams[i];
        switch (s.kind) {
          case StreamKind::Strided: {
            const std::uint64_t step = static_cast<std::uint64_t>(
                s.stride < 0 ? -s.stride : s.stride);
            if (step > 0 && step < s.size)
                cursors_[i] =
                    (rng_.uniformInt(s.size / step) * step) % s.size;
            reuse_left_[i] = static_cast<std::uint32_t>(
                rng_.uniformRange(1, s.reuse ? s.reuse : 1));
            break;
          }
          case StreamKind::Random:
            break;  // memoryless
          case StreamKind::Chase:
            cursors_[i] = rng_();  // any LCG state is on the cycle
            break;
        }
    }
    // Lockstep groups: one shared cursor, uniform on the walk; the
    // members stay congruent (that is the modelled conflict).
    for (auto &[id, group] : groups_) {
        const DataStream &first =
            spec_.streams[group.members.front()];
        const std::uint64_t step = static_cast<std::uint64_t>(
            first.stride < 0 ? -first.stride : first.stride);
        if (step > 0 && step < first.size)
            group.cursor =
                (rng_.uniformInt(first.size / step) * step) %
                first.size;
        group.rr = static_cast<std::uint32_t>(
            rng_.uniformInt(group.members.size()));
        group.reuse_left = static_cast<std::uint32_t>(
            rng_.uniformRange(1, first.reuse ? first.reuse : 1));
    }
    // Instruction stream: a draw from the state machine's stationary
    // distribution. One *selection* of routine i covers on average
    //   E_i = m_i * L_i + (m_i - 1) * L_callee
    // fetches (m_i geometric-mean body passes of L_i instructions,
    // with the callee run between passes), so the probability of
    // finding the generator inside a selection of i is proportional
    // to weight_i * E_i — not to weight_i alone, which underweights
    // long-running routines (e.g. 145.fpppp's huge basic blocks).
    std::vector<double> occupancy(spec_.routines.size());
    double occ_total = 0.0;
    for (std::size_t i = 0; i < spec_.routines.size(); ++i) {
        const CodeRoutine &r = spec_.routines[i];
        const double body = r.mean_repeats * (r.length / 4);
        const double callee =
            r.call_target >= 0
                ? (r.mean_repeats - 1.0) *
                      (spec_.routines[static_cast<std::size_t>(
                           r.call_target)].length / 4)
                : 0.0;
        occupancy[i] = r.weight * (body + callee);
        occ_total += occupancy[i];
    }
    double pick = rng_.uniformReal() * occ_total;
    std::size_t chosen = spec_.routines.size() - 1;
    for (std::size_t i = 0; i < spec_.routines.size(); ++i) {
        pick -= occupancy[i];
        if (pick <= 0.0) {
            chosen = i;
            break;
        }
    }
    const CodeRoutine &r = spec_.routines[chosen];
    // Residual passes: geometric repeats are memoryless, so the
    // remaining count has the same distribution as a fresh draw.
    repeats_left_ = r.mean_repeats <= 1.0
        ? 1
        : 1 + rng_.geometric(1.0 / r.mean_repeats);
    // Within a selection, time splits between the caller's body and
    // its callee; land in the callee with the matching probability so
    // the loop/call alternation (125.turb3d's conflict) is preserved.
    const double body = r.mean_repeats * (r.length / 4);
    const double callee =
        r.call_target >= 0
            ? (r.mean_repeats - 1.0) *
                  (spec_.routines[static_cast<std::size_t>(
                       r.call_target)].length / 4)
            : 0.0;
    if (callee > 0.0 && rng_.bernoulli(callee / (body + callee))) {
        // Mid-callee: the caller still owes at least one more pass.
        call_return_ = static_cast<std::ptrdiff_t>(chosen);
        cur_routine_ =
            static_cast<std::size_t>(r.call_target);
        repeats_left_ = std::max<std::uint64_t>(repeats_left_, 2);
    } else {
        call_return_ = -1;
        cur_routine_ = chosen;
    }
    const CodeRoutine &at = spec_.routines[cur_routine_];
    cur_offset_ = static_cast<std::uint32_t>(
        rng_.uniformInt(at.length / 4) * 4);
}

inline void
ReferenceSyntheticWorkload::selectRoutine()
{
    double pick = rng_.uniformReal() * routine_weight_total_;
    std::size_t chosen = spec_.routines.size() - 1;
    for (std::size_t i = 0; i < spec_.routines.size(); ++i) {
        pick -= spec_.routines[i].weight;
        if (pick <= 0.0) {
            chosen = i;
            break;
        }
    }
    cur_routine_ = chosen;
    cur_offset_ = 0;
    const double mean = spec_.routines[chosen].mean_repeats;
    // Geometric number of repeats with the requested mean (>= 1).
    repeats_left_ = mean <= 1.0
        ? 1
        : 1 + rng_.geometric(1.0 / mean);
}

inline std::size_t
ReferenceSyntheticWorkload::pickStream()
{
    double pick = rng_.uniformReal() * stream_weight_total_;
    for (std::size_t i = 0; i < spec_.streams.size(); ++i) {
        pick -= spec_.streams[i].weight;
        if (pick <= 0.0)
            return i;
    }
    return spec_.streams.size() - 1;
}

inline ReferenceSyntheticWorkload::DataRef
ReferenceSyntheticWorkload::nextData(std::size_t stream_index)
{
    // Lockstep groups: serve members round-robin off one shared
    // cursor, advancing it only after a full round (with reuse).
    const int gid = stream_group_[stream_index];
    if (gid >= 0) {
        Group &g = groups_[gid];
        const std::size_t member = g.members[g.rr];
        const DataStream &ms = spec_.streams[member];
        Addr maddr = (ms.base + g.cursor) &
                     ~static_cast<Addr>(ms.access_size - 1);
        DataRef ref{maddr, rng_.bernoulli(ms.store_frac),
                    ms.access_size};
        g.rr = (g.rr + 1) %
               static_cast<std::uint32_t>(g.members.size());
        if (g.rr == 0) {
            if (g.reuse_left > 1) {
                --g.reuse_left;
            } else {
                g.reuse_left = ms.reuse ? ms.reuse : 1;
                const std::int64_t next =
                    static_cast<std::int64_t>(g.cursor) + ms.stride;
                if (next < 0)
                    g.cursor = ms.size + next;
                else if (static_cast<std::uint64_t>(next) >= ms.size)
                    g.cursor = static_cast<std::uint64_t>(next) -
                               ms.size;
                else
                    g.cursor = static_cast<std::uint64_t>(next);
            }
        }
        return ref;
    }

    const DataStream &s = spec_.streams[stream_index];
    std::uint64_t &cursor = cursors_[stream_index];
    Addr addr = 0;
    bool store = false;
    switch (s.kind) {
      case StreamKind::Strided: {
        addr = s.base + cursor;
        // Temporal reuse: stay on this position until its budget
        // is spent, then advance by the stride.
        if (reuse_left_[stream_index] > 1) {
            --reuse_left_[stream_index];
            break;
        }
        reuse_left_[stream_index] = s.reuse ? s.reuse : 1;
        const std::int64_t next =
            static_cast<std::int64_t>(cursor) + s.stride;
        if (next < 0)
            cursor = s.size + next;  // wrap backwards
        else if (static_cast<std::uint64_t>(next) >= s.size)
            cursor = static_cast<std::uint64_t>(next) - s.size;
        else
            cursor = static_cast<std::uint64_t>(next);
        break;
      }
      case StreamKind::Random: {
        const std::uint64_t slots = s.size / s.access_size;
        addr = s.base + rng_.uniformInt(slots) * s.access_size;
        break;
      }
      case StreamKind::Chase: {
        // Deterministic full-period LCG walk over the region's
        // access slots: visits every slot in a scattered order, the
        // classic linked-list traversal pattern.
        const std::uint64_t slots = s.size / s.access_size;
        addr = s.base + (cursor % slots) * s.access_size;
        cursor = (cursor * 6364136223846793005ULL +
                  1442695040888963407ULL);
        break;
      }
    }
    store = rng_.bernoulli(s.store_frac);
    // Align to the access size.
    addr &= ~static_cast<Addr>(s.access_size - 1);
    return DataRef{addr, store, s.access_size};
}

inline void
ReferenceSyntheticWorkload::advanceRoutineEnd(const CodeRoutine &routine)
{
    cur_offset_ = 0;
    if (call_return_ >= 0) {
        // Returning from a callee: resume the caller's loop.
        cur_routine_ = static_cast<std::size_t>(call_return_);
        call_return_ = -1;
        if (repeats_left_ > 1)
            --repeats_left_;
        else
            selectRoutine();
    } else if (routine.call_target >= 0 && repeats_left_ > 1) {
        // The loop body calls its function between passes.
        call_return_ = static_cast<std::ptrdiff_t>(cur_routine_);
        cur_routine_ = static_cast<std::size_t>(routine.call_target);
    } else if (repeats_left_ > 1) {
        --repeats_left_;
    } else {
        selectRoutine();
    }
}


} // namespace memwall

#endif // MEMWALL_TESTS_REFERENCE_SYNTHETIC_HH
