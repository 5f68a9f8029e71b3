/**
 * @file
 * Synthetic reference-stream generation.
 *
 * SPEC'95 binaries and a SPARC Shade toolchain are not available, so
 * each benchmark is modelled by a SyntheticWorkload: an instruction-
 * stream model (weighted routines of straight-line code that loop and
 * call each other) interleaved with a data-stream model (a weighted
 * mixture of strided walks, uniform random regions and pointer
 * chases). The parameters per benchmark live in src/workloads/; this
 * file provides the engine. See DESIGN.md, "Substitutions".
 */

#ifndef MEMWALL_TRACE_SYNTHETIC_HH
#define MEMWALL_TRACE_SYNTHETIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "trace/ref.hh"

namespace memwall {

/**
 * A contiguous stretch of code executed front to back. Routines
 * model loop bodies and frequently called functions; placement (the
 * base address) is significant because it determines cache
 * conflicts, e.g. the 125.turb3d loop/function conflict.
 */
struct CodeRoutine
{
    /** First byte of the routine (4-byte aligned). */
    Addr base = 0x10000;
    /** Length in bytes (one instruction = 4 bytes). */
    std::uint32_t length = 256;
    /** Relative probability of being selected next. */
    double weight = 1.0;
    /**
     * Mean number of back-to-back repetitions once selected
     * (geometric); models loop trip counts.
     */
    double mean_repeats = 1.0;
    /**
     * Index of a routine called once after each pass through this
     * routine's body (-1 = no call). Models the 125.turb3d pattern
     * of a loop invoking a function whose placement conflicts with
     * the loop in a 16-line cache. Callees must not call further.
     */
    int call_target = -1;
};

/** Access pattern of one data stream in the mixture. */
enum class StreamKind {
    Strided,  ///< base + k*stride, wrapping at size
    Random,   ///< uniform random offsets in [0, size)
    Chase,    ///< pseudo-random permutation walk (pointer chasing)
};

/** One component of the data-reference mixture. */
struct DataStream
{
    StreamKind kind = StreamKind::Strided;
    /** First byte of the region. */
    Addr base = 0x1000000;
    /** Region size in bytes. */
    std::uint64_t size = 1 * MiB;
    /** Stride in bytes (Strided only; may be negative). */
    std::int64_t stride = 8;
    /** Relative probability of being selected for a reference. */
    double weight = 1.0;
    /** Fraction of this stream's references that are stores. */
    double store_frac = 0.3;
    /** Access granularity in bytes. */
    std::uint8_t access_size = 8;
    /**
     * Mean accesses to each position before the cursor advances
     * (temporal reuse, e.g. stencil codes touch each element
     * several times). Only meaningful for Strided streams.
     */
    std::uint32_t reuse = 1;
    /**
     * Lockstep group id (-1 = independent). Streams sharing a group
     * walk with a SINGLE shared cursor, visited round-robin — the
     * "same loop index into several arrays" pattern of
     * tomcatv/swim/su2cor. With bases congruent modulo the proposed
     * cache's way size, grouped streams collide in one column-buffer
     * set on every iteration (Section 5.3's conflict blow-up).
     * Grouped streams must be Strided and share stride/reuse.
     */
    int group = -1;
};

/** Complete description of a synthetic workload. */
struct SyntheticSpec
{
    std::string name = "synthetic";
    std::vector<CodeRoutine> routines;
    std::vector<DataStream> streams;
    /** Mean data references per instruction (loads + stores). */
    double refs_per_instr = 0.35;
    /** RNG seed (per-benchmark, for reproducibility). */
    std::uint64_t seed = 1;
};

/**
 * Integer form of the floating-point weighted pick
 *
 *     pick = (k * 2^-53) * total;   // total = weights summed in order
 *     for (i = 0; i < n; ++i)
 *         if ((pick -= weights[i]) <= 0) return i;
 *     return n - 1;
 *
 * over a 53-bit draw k (Rng::uniformBits53()). Every step of that
 * loop is monotone in k, so the pick is too: it returns i for the k
 * in [b[i-1], b[i]), and the boundaries b (n - 1 of them, b[i] the
 * least k that picks past i, or 2^53 if none does) are found by
 * bisecting the loop itself. pickIndex(b, k) is then the pick for
 * every k, rounding included.
 */
std::vector<std::uint64_t> pickBoundaries(const std::vector<double> &weights);

/** The pick of a 53-bit draw @p k given pickBoundaries(). */
inline std::size_t
pickIndex(const std::vector<std::uint64_t> &bounds, std::uint64_t k)
{
    std::size_t i = 0;
    while (i < bounds.size() && k >= bounds[i])
        ++i;
    return i;
}

/**
 * Rng::bernoulli(p) as a comparison of one 53-bit draw k: for
 * 0 < p < 1, k * 2^-53 < p exactly when k < ceil(p * 2^53), and both
 * products are exact (k < 2^53, scaling by a power of two). p <= 0
 * and p >= 1 draw nothing; they map to never_threshold and
 * always_threshold.
 */
inline constexpr std::uint64_t never_threshold = 0;
inline constexpr std::uint64_t always_threshold = ~std::uint64_t{0};
std::uint64_t bernoulliThreshold(double p);

/**
 * Reference-stream generator executing a SyntheticSpec.
 *
 * Each step emits one instruction fetch from the current routine and,
 * with probability refs_per_instr, one data reference drawn from the
 * stream mixture. Every choice is drawn in integer space: the
 * probabilities and weights become thresholds and pick boundaries at
 * construction (see bernoulliThreshold() and pickBoundaries()), which
 * reproduce the floating-point draws they replace bit for bit.
 */
class SyntheticWorkload : public RefSource
{
  public:
    explicit SyntheticWorkload(SyntheticSpec spec);

    std::uint64_t generate(std::uint64_t max_refs,
                           const RefSink &sink) override;
    void reset() override;

    /**
     * Scatter the generator state to an approximate draw from its
     * stationary distribution: stream cursors land uniformly on
     * their walk cycles, the current routine is re-picked, and the
     * instruction pointer lands mid-body. Deterministic given the
     * spec seed. Stratified sampling units call this so each
     * independent substream measures steady-state behaviour instead
     * of the cold start-of-stream phase (fresh cursors at zero and
     * the first routine's prologue are not representative of the
     * long-run reference mix).
     */
    void scatterState();

    /**
     * Restart as a generator built from the spec with @p seed would:
     * reset() under the new seed, without redoing the construction-
     * time work. Stratified sampling units each draw from their own
     * seed.
     */
    void
    reseed(std::uint64_t seed)
    {
        spec_.seed = seed;
        reset();
    }

    /**
     * Same stream as generate(), but delivered to a statically typed
     * sink: the emission loop and @p sink inline into one body, with
     * no std::function indirection per reference. generate() and the
     * batch helpers below are thin wrappers over this.
     */
    template <typename Fn>
    std::uint64_t
    generateInto(std::uint64_t max_refs, Fn &&sink)
    {
        const auto fetch = [&sink](Addr pc) { sink(MemRef::fetch(pc)); };
        return emit<false>(max_refs, fetch, sink);
    }

    /**
     * The stream of generateInto(), split by side for consumers whose
     * instruction and data caches are separate, so only the order
     * within each side matters. Each straight run of fetches — the
     * consecutive instructions of one routine body, cut at the end
     * of the body and of the window — reaches @p fetch_run as one
     * (first_pc, count) call for the fetches at first_pc,
     * first_pc + 4, ...; it is delivered after the data references
     * issued alongside it, which reach @p data one MemRef at a time.
     * A window boundary ends the run, so windows cut the stream
     * exactly where generateInto() would.
     */
    template <typename FetchRun, typename Data>
    std::uint64_t
    generateSplit(std::uint64_t max_refs, FetchRun &&fetch_run,
                  Data &&data)
    {
        return emit<true>(max_refs, fetch_run, data);
    }

    /**
     * Append up to @p max_refs references to @p out (not cleared).
     * Replaying a batch through several cache models amortises the
     * generator state machine across all of them and turns the
     * per-reference dispatch into tight per-cache loops.
     */
    std::uint64_t
    generateBatch(std::uint64_t max_refs, std::vector<MemRef> &out)
    {
        out.reserve(out.size() + max_refs);
        return generateInto(
            max_refs, [&out](const MemRef &r) { out.push_back(r); });
    }

    const SyntheticSpec &spec() const { return spec_; }

  private:
    struct DataRef
    {
        Addr addr;
        bool store;
        std::uint8_t size;
    };

    /** What each stream's draws need, worked out at construction. */
    struct StreamDraw
    {
        /** Access slots in the region (Random and Chase). */
        std::uint64_t slots = 1;
        /** Rng::uniformInt(slots)'s rejection limit. */
        std::uint64_t limit = 0;
        /** slots - 1 when slots is a power of two, else 0. */
        std::uint64_t slot_mask = 0;
        /** bernoulliThreshold(store_frac). */
        std::uint64_t store_threshold = never_threshold;
        /** Index into groups_, or -1. */
        int group = -1;
    };

    struct Group
    {
        std::vector<std::size_t> members;
        std::uint64_t cursor = 0;
        std::uint32_t rr = 0;
        std::uint32_t reuse_left = 1;
    };

    /**
     * The one emission loop behind both deliveries. Per reference
     * (Split = false), @p fetch gets each fetch's pc in stream order;
     * split, it gets each straight run once, as (first_pc, count).
     */
    template <bool Split, typename Fetch, typename Data>
    std::uint64_t
    emit(std::uint64_t max_refs, Fetch &fetch, Data &data)
    {
        // The loop draws from a local copy of the generator, which
        // stays in registers: the sinks' stores could alias rng_ and
        // would force its state through memory on every draw. The
        // out-of-line transitions draw from rng_, so the copy is
        // handed over around them.
        Rng rng = rng_;
        const std::uint64_t data_threshold = data_threshold_;
        std::uint64_t emitted = 0;
        while (emitted < max_refs) {
            // Locals for the body's fixed values, for the same reason:
            // a one-byte store into a sink may alias any member.
            const CodeRoutine &routine = spec_.routines[cur_routine_];
            const Addr base = routine.base;
            const std::uint32_t length = routine.length;
            const std::uint32_t start = cur_offset_;
            std::uint32_t offset = start;
            bool body_ended = false;
            do {
                const Addr pc = base + offset;
                if constexpr (!Split)
                    fetch(pc);
                ++emitted;
                offset += 4;
                if (offset >= length) {
                    rng_ = rng;
                    advanceRoutineEnd(routine);
                    rng = rng_;
                    body_ended = true;
                }
                // Optional data reference.
                if (emitted < max_refs && draw(rng, data_threshold)) {
                    const DataRef ref = nextData(
                        rng,
                        pickIndex(stream_bounds_, rng.uniformBits53()));
                    data(ref.store
                             ? MemRef::store(pc, ref.addr, ref.size)
                             : MemRef::load(pc, ref.addr, ref.size));
                    ++emitted;
                }
            } while (!body_ended && emitted < max_refs);
            if (!body_ended)
                cur_offset_ = offset;
            if constexpr (Split)
                fetch(base + start,
                      static_cast<std::uint64_t>(offset - start) / 4);
        }
        rng_ = rng;
        return emitted;
    }

    /** Rng::bernoulli(p) for p's @p threshold, drawing only when
     *  bernoulli() would. */
    static bool
    draw(Rng &rng, std::uint64_t threshold)
    {
        if (threshold == never_threshold)
            return false;
        return threshold == always_threshold ||
               rng.uniformBits53() < threshold;
    }

    /** The next reference of stream @p stream_index, drawn from
     *  @p rng (the emission loop's copy of rng_). */
    DataRef
    nextData(Rng &rng, std::size_t stream_index)
    {
        const StreamDraw &sd = draws_[stream_index];
        if (sd.group >= 0) {
            rng_ = rng;
            const DataRef ref = nextGroupData(sd);
            rng = rng_;
            return ref;
        }
        const DataStream &s = spec_.streams[stream_index];
        std::uint64_t &cursor = cursors_[stream_index];
        Addr addr = 0;
        switch (s.kind) {
          case StreamKind::Strided: {
            addr = s.base + cursor;
            // Temporal reuse: stay on this position until its budget
            // is spent, then advance by the stride.
            std::uint32_t &reuse_left = reuse_left_[stream_index];
            if (reuse_left > 1) {
                --reuse_left;
                break;
            }
            reuse_left = s.reuse ? s.reuse : 1;
            cursor = wrapStep(cursor, s.stride, s.size);
            break;
          }
          case StreamKind::Random: {
            // Rng::uniformInt(slots) with its limit worked out once.
            std::uint64_t v;
            do {
                v = rng();
            } while (v >= sd.limit);
            const std::uint64_t slot =
                sd.slot_mask ? v & sd.slot_mask : v % sd.slots;
            addr = s.base + slot * s.access_size;
            break;
          }
          case StreamKind::Chase: {
            // Deterministic full-period LCG walk over the region's
            // access slots: visits every slot in a scattered order,
            // the classic linked-list traversal pattern.
            const std::uint64_t slot = sd.slot_mask
                ? cursor & sd.slot_mask
                : cursor % sd.slots;
            addr = s.base + slot * s.access_size;
            cursor = (cursor * 6364136223846793005ULL +
                      1442695040888963407ULL);
            break;
          }
        }
        const bool store = draw(rng, sd.store_threshold);
        // Align to the access size.
        addr &= ~static_cast<Addr>(s.access_size - 1);
        return DataRef{addr, store, s.access_size};
    }

    /** @p cursor advanced by @p stride, wrapped into [0, size). */
    static std::uint64_t
    wrapStep(std::uint64_t cursor, std::int64_t stride,
             std::uint64_t size)
    {
        const std::int64_t next =
            static_cast<std::int64_t>(cursor) + stride;
        if (next < 0)
            return size + next; // wrap backwards
        if (static_cast<std::uint64_t>(next) >= size)
            return static_cast<std::uint64_t>(next) - size;
        return static_cast<std::uint64_t>(next);
    }

    void selectRoutine();
    /** The transitions at the end of a pass through @p routine's
     *  body: repeat it, call or return, or pick the next routine. */
    void advanceRoutineEnd(const CodeRoutine &routine);
    /** nextData() for a lockstep-group member; draws from rng_. */
    DataRef nextGroupData(const StreamDraw &sd);

    SyntheticSpec spec_;
    Rng rng_;
    /** pickBoundaries() of the routine and stream weights. */
    std::vector<std::uint64_t> routine_bounds_;
    std::vector<std::uint64_t> stream_bounds_;
    /** bernoulliThreshold(refs_per_instr); never without streams. */
    std::uint64_t data_threshold_ = never_threshold;

    // Instruction-stream state.
    std::size_t cur_routine_ = 0;
    std::uint32_t cur_offset_ = 0;
    std::uint64_t repeats_left_ = 0;
    /** Caller index while executing a callee, or -1. */
    std::ptrdiff_t call_return_ = -1;

    // Per-stream draws, cursors and remaining-reuse counters.
    std::vector<StreamDraw> draws_;
    std::vector<std::uint64_t> cursors_;
    std::vector<std::uint32_t> reuse_left_;
    /** Lockstep groups in DataStream::group id order. */
    std::vector<Group> groups_;
};

} // namespace memwall

#endif // MEMWALL_TRACE_SYNTHETIC_HH
