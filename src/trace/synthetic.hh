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
#include <map>
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
 * Reference-stream generator executing a SyntheticSpec.
 *
 * Each step emits one instruction fetch from the current routine and,
 * with probability refs_per_instr, one data reference drawn from the
 * stream mixture.
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
     * Same stream as generate(), but delivered to a statically typed
     * sink: the emission loop and @p sink inline into one body, with
     * no std::function indirection per reference. generate() and the
     * batch helpers below are thin wrappers over this.
     */
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

    void selectRoutine();
    /**
     * Step the instruction-stream state machine past one fetch. The
     * common case (next instruction of the same routine) stays
     * inline in the caller; the end-of-routine transitions live
     * out-of-line in advanceRoutineEnd().
     */
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

} // namespace memwall

#endif // MEMWALL_TRACE_SYNTHETIC_HH
