/**
 * @file
 * SPLASH PTHOR: parallel distributed-time digital circuit
 * simulation. A synthetic RISC-datapath-like netlist of two-input
 * gates is simulated for 1000 time steps with the conservative
 * synchronous algorithm: on each step every processor evaluates the
 * active gates it owns (reading the — possibly remote — outputs of
 * their fan-in gates), and schedules the fan-out of toggled gates
 * for the next step through per-processor work lists.
 */

#include "workloads/splash/splash.hh"

#include <cmath>
#include <vector>

#include "common/rng.hh"
#include "workloads/splash/splash_common.hh"

namespace memwall {

namespace {

/** Gate types of the synthetic RISC circuit. */
enum GateOp : std::uint8_t { OpAnd, OpOr, OpXor, OpNand };

} // namespace

SplashResult
runPthor(const SplashParams &params)
{
    const unsigned gates = std::max(
        512u, static_cast<unsigned>(4000 * params.scale));
    const unsigned steps = std::max(
        20u, static_cast<unsigned>(1000 * params.scale));
    const unsigned p = params.nprocs;

    MpRuntime rt(p, params.machine);
    // Netlist: per gate a 32-byte element record (output value plus
    // timestamps/event bookkeeping, as in the real PTHOR element
    // structures); the output value is the shared state the
    // processors exchange. Outputs are double-buffered so each step
    // reads the previous step's values — the conservative
    // synchronous evaluation — which also makes the computation
    // identical on every architecture.
    constexpr unsigned rec_words = 8;  // 8 x int32 = 32 bytes
    SharedArray<std::int32_t> output0(rt, gates * rec_words,
                                      "outputs0");
    SharedArray<std::int32_t> output1(rt, gates * rec_words,
                                      "outputs1");
    // Next-step activation flags (shared, written by fan-in owners).
    SharedArray<std::int32_t> active(rt, gates, "active");
    SharedArray<std::int32_t> next_active(rt, gates, "next_active");

    std::vector<std::uint32_t> fanin0(gates), fanin1(gates);
    std::vector<std::uint8_t> op(gates);
    std::vector<std::vector<std::uint32_t>> fanout(gates);

    // Build a layered netlist: gate g reads two earlier gates,
    // biased towards near neighbours (datapath locality) with a
    // fraction of long wires (control signals).
    Rng rng(194507);
    for (unsigned g = 0; g < gates; ++g) {
        auto pick = [&](unsigned limit) -> std::uint32_t {
            if (limit == 0)
                return 0;
            if (rng.bernoulli(0.8)) {
                const unsigned window = std::min(limit, 64u);
                return limit - 1 -
                       static_cast<std::uint32_t>(
                           rng.uniformInt(window));
            }
            return static_cast<std::uint32_t>(
                rng.uniformInt(limit));
        };
        fanin0[g] = pick(g);
        fanin1[g] = pick(g);
        op[g] = static_cast<std::uint8_t>(rng.uniformInt(4));
        const std::int32_t init = rng.bernoulli(0.5) ? 1 : 0;
        output0.raw(static_cast<std::size_t>(g) * rec_words) = init;
        output1.raw(static_cast<std::size_t>(g) * rec_words) = init;
        active.raw(g) = 1;
        if (g > 0) {
            fanout[fanin0[g]].push_back(g);
            fanout[fanin1[g]].push_back(g);
        }
    }

    SimBarrier barrier(p);
    std::uint64_t toggles = 0;
    SimLock toggle_lock;

    rt.run([&](SimContext &ctx) {
        const Slice mine = sliceOf(gates, ctx.cpuId(), p);
        std::uint64_t my_toggles = 0;
        std::uint64_t quiet = 0;
        (void)quiet;

        for (unsigned step = 0; step < steps; ++step) {
            SharedArray<std::int32_t> &cur =
                (step & 1) ? output1 : output0;
            SharedArray<std::int32_t> &nxt =
                (step & 1) ? output0 : output1;
            for (unsigned g = mine.first; g < mine.last; ++g) {
                if (!active.read(ctx, g))
                    continue;
                const std::int32_t a = cur.read(
                    ctx, static_cast<std::size_t>(fanin0[g]) *
                             rec_words);
                const std::int32_t b = cur.read(
                    ctx, static_cast<std::size_t>(fanin1[g]) *
                             rec_words);
                std::int32_t v = 0;
                switch (static_cast<GateOp>(op[g])) {
                  case OpAnd: v = a & b; break;
                  case OpOr: v = a | b; break;
                  case OpXor: v = a ^ b; break;
                  case OpNand: v = 1 - (a & b); break;
                }
                const std::int32_t old = cur.read(
                    ctx, static_cast<std::size_t>(g) * rec_words);
                nxt.write(ctx,
                          static_cast<std::size_t>(g) * rec_words,
                          v);
                if (v != old) {
                    ++my_toggles;
                    // Activate the fan-out for the next step
                    // (writes into other processors' partitions:
                    // the coherence traffic of event scheduling).
                    for (std::uint32_t sink : fanout[g])
                        next_active.write(ctx, sink, 1);
                } else {
                    ++quiet;
                }
            }
            barrier.wait(ctx);
            // Swap activation arrays: each processor clears its own
            // slice of the current array.
            for (unsigned g = mine.first; g < mine.last; ++g) {
                active.write(ctx, g, next_active.read(ctx, g));
                next_active.write(ctx, g, 0);
            }
            barrier.wait(ctx);
        }
        toggle_lock.acquire(ctx);
        toggles += my_toggles;
        toggle_lock.release(ctx);
    });

    return collectResult(rt, static_cast<double>(toggles));
}

} // namespace memwall
