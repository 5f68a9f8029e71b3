#include "trace/synthetic.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace memwall {

namespace {

constexpr std::uint64_t draws53 = std::uint64_t{1} << 53;

/** The floating-point pick of pickBoundaries()'s comment at draw @p k:
 *  whether it picks past index @p i. */
bool
picksPast(const std::vector<double> &weights, double total,
          std::uint64_t k, std::size_t i)
{
    double pick = static_cast<double>(k) * 0x1.0p-53 * total;
    for (std::size_t j = 0; j <= i; ++j) {
        pick -= weights[j];
        if (pick <= 0.0)
            return false;
    }
    return true;
}

} // namespace

std::vector<std::uint64_t>
pickBoundaries(const std::vector<double> &weights)
{
    double total = 0.0;
    for (const double w : weights)
        total += w;
    std::vector<std::uint64_t> bounds;
    std::uint64_t floor = 0;
    double prefix = 0.0;
    for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
        // The least k that picks past i; 2^53 stands for "none" and
        // counts as picking past. The boundaries never decrease.
        const auto past = [&](std::uint64_t k) {
            return k >= draws53 || picksPast(weights, total, k, i);
        };
        // Start next to the exact-arithmetic boundary, where the
        // rounded one lies within a few draws, and gallop outwards
        // until [lo, hi] brackets it: !past(lo - 1) and past(hi).
        prefix += weights[i];
        const double guess = prefix / total * 0x1.0p53;
        const std::uint64_t start =
            std::isfinite(guess) && guess > static_cast<double>(floor)
                ? static_cast<std::uint64_t>(std::min(guess, 0x1.0p53))
                : floor;
        std::uint64_t lo = floor, hi = draws53;
        std::uint64_t step = 1;
        if (past(start)) {
            hi = start;
            while (hi - lo > step && past(hi - step)) {
                hi -= step;
                step *= 2;
            }
            if (hi - lo > step)
                lo = hi - step + 1;
        } else {
            lo = start + 1;
            while (draws53 - lo > step && !past(lo + step - 1)) {
                lo += step;
                step *= 2;
            }
            if (draws53 - lo > step)
                hi = lo + step - 1;
        }
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (past(mid))
                hi = mid;
            else
                lo = mid + 1;
        }
        bounds.push_back(lo);
        floor = lo;
    }
    return bounds;
}

std::uint64_t
bernoulliThreshold(double p)
{
    if (p <= 0.0)
        return never_threshold;
    if (p >= 1.0)
        return always_threshold;
    return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

SyntheticWorkload::SyntheticWorkload(SyntheticSpec spec)
    : spec_(std::move(spec)), rng_(spec_.seed)
{
    if (spec_.routines.empty())
        MW_FATAL(spec_.name, ": workload needs at least one routine");
    std::vector<double> weights;
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
        weights.push_back(r.weight);
    }
    routine_bounds_ = pickBoundaries(weights);

    weights.clear();
    std::vector<int> group_ids;
    for (const auto &s : spec_.streams) {
        MW_ASSERT(s.size > 0 && s.weight > 0.0,
                  spec_.name, ": bad stream parameters");
        weights.push_back(s.weight);
        if (s.group >= 0) {
            MW_ASSERT(s.kind == StreamKind::Strided,
                      spec_.name, ": lockstep streams must be strided");
            group_ids.push_back(s.group);
        }
    }
    stream_bounds_ = pickBoundaries(weights);
    std::sort(group_ids.begin(), group_ids.end());
    group_ids.erase(std::unique(group_ids.begin(), group_ids.end()),
                    group_ids.end());
    groups_.resize(group_ids.size());
    for (std::size_t i = 0; i < spec_.streams.size(); ++i) {
        const auto &s = spec_.streams[i];
        StreamDraw d;
        if (s.kind != StreamKind::Strided) {
            d.slots = s.access_size ? s.size / s.access_size : 0;
            MW_ASSERT(d.slots > 0, spec_.name,
                      ": random and chase streams need a region of at "
                      "least one access");
            d.limit = Rng::max() - Rng::max() % d.slots;
            d.slot_mask = isPowerOfTwo(d.slots) ? d.slots - 1 : 0;
        }
        d.store_threshold = bernoulliThreshold(s.store_frac);
        if (s.group >= 0) {
            d.group = static_cast<int>(
                std::lower_bound(group_ids.begin(), group_ids.end(),
                                 s.group) -
                group_ids.begin());
            groups_[static_cast<std::size_t>(d.group)]
                .members.push_back(i);
        }
        draws_.push_back(d);
    }
    if (spec_.streams.empty() && spec_.refs_per_instr > 0.0)
        MW_FATAL(spec_.name,
                 ": refs_per_instr > 0 but no data streams given");
    data_threshold_ = spec_.streams.empty()
        ? never_threshold
        : bernoulliThreshold(spec_.refs_per_instr);
    cursors_.assign(spec_.streams.size(), 0);
    reuse_left_.assign(spec_.streams.size(), 0);
    reset();
}

void
SyntheticWorkload::reset()
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
    for (Group &group : groups_) {
        group.cursor = 0;
        group.rr = 0;
        const auto &first = spec_.streams[group.members.front()];
        group.reuse_left = first.reuse ? first.reuse : 1;
    }
    selectRoutine();
}

void
SyntheticWorkload::scatterState()
{
    // Independent stream cursors: a uniform position on the walk.
    for (std::size_t i = 0; i < spec_.streams.size(); ++i) {
        if (draws_[i].group >= 0)
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
    for (Group &group : groups_) {
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

void
SyntheticWorkload::selectRoutine()
{
    const std::size_t chosen =
        pickIndex(routine_bounds_, rng_.uniformBits53());
    cur_routine_ = chosen;
    cur_offset_ = 0;
    const double mean = spec_.routines[chosen].mean_repeats;
    // Geometric number of repeats with the requested mean (>= 1).
    repeats_left_ = mean <= 1.0
        ? 1
        : 1 + rng_.geometric(1.0 / mean);
}

SyntheticWorkload::DataRef
SyntheticWorkload::nextGroupData(const StreamDraw &sd)
{
    // Lockstep groups: serve members round-robin off one shared
    // cursor, advancing it only after a full round (with reuse).
    Group &g = groups_[static_cast<std::size_t>(sd.group)];
    const std::size_t member = g.members[g.rr];
    const DataStream &ms = spec_.streams[member];
    const Addr maddr =
        (ms.base + g.cursor) & ~static_cast<Addr>(ms.access_size - 1);
    const DataRef ref{maddr,
                      draw(rng_, draws_[member].store_threshold),
                      ms.access_size};
    g.rr = (g.rr + 1) % static_cast<std::uint32_t>(g.members.size());
    if (g.rr == 0) {
        if (g.reuse_left > 1) {
            --g.reuse_left;
        } else {
            g.reuse_left = ms.reuse ? ms.reuse : 1;
            g.cursor = wrapStep(g.cursor, ms.stride, ms.size);
        }
    }
    return ref;
}

void
SyntheticWorkload::advanceRoutineEnd(const CodeRoutine &routine)
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

std::uint64_t
SyntheticWorkload::generate(std::uint64_t max_refs, const RefSink &sink)
{
    return generateInto(max_refs, sink);
}

} // namespace memwall
