/**
 * @file
 * Tests for the deterministic execution-driven MP scheduler, its
 * fibers, and a lockstep comparison against the threaded reference.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "mp/fiber.hh"
#include "mp/scheduler.hh"
#include "threaded_reference_scheduler.hh"

using namespace memwall;

TEST(MpScheduler, SingleCpuRunsToCompletion)
{
    MpScheduler sched(1);
    int ran = 0;
    const Tick makespan = sched.run([&](SimContext &ctx) {
        ctx.advance(10);
        ctx.advance(5);
        ++ran;
    });
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(makespan, 15u);
    EXPECT_EQ(sched.cpuTime(0), 15u);
}

TEST(MpScheduler, AllCpusRunBody)
{
    MpScheduler sched(8);
    std::atomic<int> ran{0};
    sched.run([&](SimContext &ctx) {
        ctx.advance(ctx.cpuId() + 1);
        ++ran;
    });
    EXPECT_EQ(ran.load(), 8);
    for (unsigned cpu = 0; cpu < 8; ++cpu)
        EXPECT_EQ(sched.cpuTime(cpu), cpu + 1);
}

TEST(MpScheduler, ExactModeInterleavesByVirtualTime)
{
    // quantum 0: events append in global virtual-time order.
    MpScheduler sched(2, /*quantum=*/0);
    std::vector<std::pair<unsigned, Tick>> log;
    sched.run([&](SimContext &ctx) {
        for (int i = 0; i < 5; ++i) {
            ctx.advance(ctx.cpuId() == 0 ? 3 : 5);
            log.emplace_back(ctx.cpuId(), ctx.now());
        }
    });
    // Verify the log is sorted by (time, cpu) — the lowest-first
    // discipline.
    for (std::size_t i = 1; i < log.size(); ++i) {
        EXPECT_TRUE(log[i - 1].second < log[i].second ||
                    (log[i - 1].second == log[i].second &&
                     log[i - 1].first <= log[i].first))
            << "entry " << i;
    }
}

TEST(MpScheduler, DeterministicAcrossRuns)
{
    auto run_once = [] {
        MpScheduler sched(4, 16);
        std::vector<unsigned> order;
        sched.run([&](SimContext &ctx) {
            for (int i = 0; i < 50; ++i) {
                ctx.advance(1 + (ctx.cpuId() * 7 + i) % 5);
                order.push_back(ctx.cpuId());
            }
        });
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(MpScheduler, QuantumBoundsSkew)
{
    // With quantum Q, whenever a CPU executes, it is at most Q ahead
    // of the slowest runnable CPU.
    const Tick q = 32;
    MpScheduler sched(3, q);
    std::vector<Tick> mins;
    bool ok = true;
    sched.run([&](SimContext &ctx) {
        for (int i = 0; i < 200; ++i) {
            ctx.advance(3);
            // After advance returns we hold the token: our time may
            // exceed the minimum by at most Q + one step.
            Tick me = ctx.now();
            Tick min_other = me;
            for (unsigned c = 0; c < 3; ++c)
                min_other =
                    std::min(min_other,
                             ctx.scheduler().timeOf(c));
            if (me > min_other + q + 3)
                ok = false;
        }
    });
    EXPECT_TRUE(ok);
}

TEST(MpScheduler, BlockUnblockHandshake)
{
    MpScheduler sched(2, 0);
    Tick woken_at = 0;
    sched.run([&](SimContext &ctx) {
        if (ctx.cpuId() == 0) {
            ctx.scheduler().block(0);
            woken_at = ctx.now();
            ctx.advance(1);
        } else {
            ctx.advance(100);
            ctx.scheduler().unblock(0, 500);
            ctx.advance(1);
        }
    });
    // CPU 0 resumed with its clock pushed to the unblock time.
    EXPECT_EQ(woken_at, 500u);
    EXPECT_EQ(sched.cpuTime(0), 501u);
}

TEST(MpScheduler, MakespanIsMaxTime)
{
    MpScheduler sched(3);
    const Tick makespan = sched.run([&](SimContext &ctx) {
        ctx.advance(10 * (ctx.cpuId() + 1));
    });
    EXPECT_EQ(makespan, 30u);
}

TEST(MpScheduler, ReusableForSecondRun)
{
    MpScheduler sched(2);
    sched.run([](SimContext &ctx) { ctx.advance(5); });
    const Tick second = sched.run([](SimContext &ctx) {
        ctx.advance(7);
    });
    EXPECT_EQ(second, 7u);
}

TEST(MpSchedulerDeath, DeadlockDetected)
{
    // Every CPU blocks and nobody can unblock: panic, not hang.
    EXPECT_DEATH(
        {
            MpScheduler sched(1, 0);
            sched.run([](SimContext &ctx) {
                ctx.scheduler().block(0);
            });
        },
        "deadlock");
}

TEST(MpSchedulerDeath, BlockedAtEndOfRunPanics)
{
    // CPU 1 finishes while CPU 0 waits for a wake-up nobody sends.
    EXPECT_DEATH(
        {
            MpScheduler sched(2, 0);
            sched.run([](SimContext &ctx) {
                if (ctx.cpuId() == 0)
                    ctx.scheduler().block(0);
                else
                    ctx.advance(10);
            });
        },
        "deadlock: cpu 0 is still blocked");
}

TEST(MpSchedulerDeath, UnblockChecksCpuId)
{
    EXPECT_DEATH(
        {
            MpScheduler sched(2);
            sched.run([](SimContext &ctx) {
                ctx.scheduler().unblock(2, 0);
            });
        },
        "bad cpu id");
}

TEST(MpSchedulerDeath, BodyExceptionPanicsNamingCpu)
{
    EXPECT_DEATH(
        {
            MpScheduler sched(2);
            sched.run([](SimContext &ctx) {
                ctx.advance(1);
                if (ctx.cpuId() == 1)
                    throw std::runtime_error("kernel fault");
            });
        },
        "cpu 1 body threw: kernel fault");
}

namespace {

/** Everything a scripted run leaves behind for comparison. */
struct ScriptOutcome
{
    /** (cpu, virtual time) after every script step, in run order. */
    std::vector<std::pair<unsigned, Tick>> trace;
    std::vector<Tick> final_times;
    Tick makespan = 0;
    unsigned blocks = 0;
};

/**
 * Seeded random per-CPU scripts of advance and block/unblock pairs.
 * A CPU blocks only while another CPU is still runnable, and every
 * CPU wakes all blocked peers before it finishes, so no script
 * deadlocks. Only one CPU runs at a time under either scheduler, so
 * the shared bookkeeping needs no lock.
 */
template <class Sched>
class ScriptRunner
{
  public:
    ScriptRunner(Sched &sched, unsigned ncpus, std::uint64_t seed)
        : sched_(sched), ncpus_(ncpus), seed_(seed),
          blocked_(ncpus, false), finished_(ncpus, false)
    {
    }

    void
    play(unsigned cpu)
    {
        Rng rng(seed_ * 1000003 + cpu);
        for (int step = 0; step < 150; ++step) {
            const std::uint64_t op = rng.uniformInt(19);
            if (op < 16) {
                // Mostly small steps, so clocks often land exactly on
                // the skew limit; now and then a jump past any quantum.
                const std::uint64_t size = rng.uniformInt(64);
                sched_.advance(cpu, size == 0   ? rng.uniformInt(3000)
                                    : size < 33 ? rng.uniformInt(4)
                                                : rng.uniformInt(40));
            } else if (op < 18) {
                wakeOne(cpu, rng);
            } else if (peerRunnable(cpu)) {
                blocked_[cpu] = true;
                ++out_.blocks;
                sched_.block(cpu);
            }
            out_.trace.emplace_back(cpu, sched_.timeOf(cpu));
        }
        for (unsigned peer = 0; peer < ncpus_; ++peer)
            if (blocked_[peer])
                wake(cpu, peer, rng);
        finished_[cpu] = true;
    }

    ScriptOutcome
    finish(Tick makespan)
    {
        for (unsigned cpu = 0; cpu < ncpus_; ++cpu)
            out_.final_times.push_back(sched_.cpuTime(cpu));
        out_.makespan = makespan;
        return out_;
    }

  private:
    bool
    peerRunnable(unsigned cpu) const
    {
        for (unsigned peer = 0; peer < ncpus_; ++peer)
            if (peer != cpu && !blocked_[peer] && !finished_[peer])
                return true;
        return false;
    }

    void
    wakeOne(unsigned cpu, Rng &rng)
    {
        std::vector<unsigned> waiting;
        for (unsigned peer = 0; peer < ncpus_; ++peer)
            if (blocked_[peer])
                waiting.push_back(peer);
        if (!waiting.empty())
            wake(cpu, waiting[rng.uniformInt(waiting.size())], rng);
    }

    /** Unblock @p peer at a time up to 128 cycles either side of the
     *  caller's clock, so both branches of the max() are taken. */
    void
    wake(unsigned cpu, unsigned peer, Rng &rng)
    {
        const Tick now = sched_.timeOf(cpu);
        blocked_[peer] = false;
        sched_.unblock(peer, now + rng.uniformInt(256) -
                                 std::min<Tick>(now, 128));
    }

    Sched &sched_;
    unsigned ncpus_;
    std::uint64_t seed_;
    std::vector<bool> blocked_;
    std::vector<bool> finished_;
    ScriptOutcome out_;
};

ScriptOutcome
runFibers(unsigned ncpus, Tick quantum, std::uint64_t seed)
{
    MpScheduler sched(ncpus, quantum);
    ScriptRunner<MpScheduler> runner(sched, ncpus, seed);
    const Tick makespan = sched.run(
        [&](SimContext &ctx) { runner.play(ctx.cpuId()); });
    return runner.finish(makespan);
}

ScriptOutcome
runThreads(unsigned ncpus, Tick quantum, std::uint64_t seed)
{
    ThreadedReferenceScheduler sched(ncpus, quantum);
    ScriptRunner<ThreadedReferenceScheduler> runner(sched, ncpus, seed);
    const Tick makespan =
        sched.run([&](unsigned cpu) { runner.play(cpu); });
    return runner.finish(makespan);
}

class MpSchedulerLockstep
    : public ::testing::TestWithParam<std::tuple<unsigned, Tick>>
{
};

} // namespace

TEST_P(MpSchedulerLockstep, MatchesThreadedReference)
{
    const auto [ncpus, quantum] = GetParam();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const ScriptOutcome fibers = runFibers(ncpus, quantum, seed);
        const ScriptOutcome threads = runThreads(ncpus, quantum, seed);
        EXPECT_EQ(fibers.trace, threads.trace) << "seed " << seed;
        EXPECT_EQ(fibers.final_times, threads.final_times)
            << "seed " << seed;
        EXPECT_EQ(fibers.makespan, threads.makespan) << "seed " << seed;
        EXPECT_EQ(fibers.trace.size(), ncpus * 150u);
        if (ncpus > 1) {
            EXPECT_GT(fibers.blocks, 0u) << "seed " << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    CpusByQuantum, MpSchedulerLockstep,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 8u, 16u),
                       ::testing::Values(Tick{0}, Tick{1}, Tick{64},
                                         Tick{1024})));

namespace {

/** What the two fibers of a ping-pong saw. */
template <class Switch>
struct PingPong
{
    using Context = fiber::Context<Switch>;

    fiber::Stack stack_a, stack_b;
    Context host, a{stack_a}, b{stack_b};
    std::vector<int> log;
    double third_nearest = 0, third_upward = 0;
    bool rounding_kept = true;

    /** 1/3 under the current rounding mode, computed at run time. */
    static double
    third()
    {
        volatile double one = 1.0, three = 3.0;
        return one / three;
    }

    void
    check(int mode, double expect)
    {
        rounding_kept = rounding_kept && std::fegetround() == mode &&
                        third() == expect;
    }

    /** Fiber a rounds upward; b keeps the host's round-to-nearest. */
    static void
    runA(void *arg)
    {
        auto &p = *static_cast<PingPong *>(arg);
        std::fesetround(FE_UPWARD);
        for (int i = 0; i < 3; ++i) {
            p.log.push_back(10 + i);
            p.a.switchTo(p.b);
            p.check(FE_UPWARD, p.third_upward);
        }
        p.a.exitTo(p.host);
    }

    static void
    runB(void *arg)
    {
        auto &p = *static_cast<PingPong *>(arg);
        for (int i = 0; i < 3; ++i) {
            p.check(FE_TONEAREST, p.third_nearest);
            p.log.push_back(20 + i);
            if (i == 2)
                p.b.exitTo(p.a);
            p.b.switchTo(p.a);
        }
    }

    void
    play()
    {
        std::fesetround(FE_UPWARD);
        third_upward = third();
        std::fesetround(FE_TONEAREST);
        third_nearest = third();
        ASSERT_NE(third_upward, third_nearest);
        // Twice over the same stacks: a finished fiber restarts.
        for (int round = 0; round < 2; ++round) {
            log.clear();
            a.start(&PingPong::runA, this);
            b.start(&PingPong::runB, this);
            host.switchTo(a);
            check(FE_TONEAREST, third_nearest);
            EXPECT_EQ(log, (std::vector<int>{10, 20, 11, 21, 12, 22}));
        }
        EXPECT_TRUE(rounding_kept);
    }
};

} // namespace

TEST(FiberSwitch, UcontextPingPong)
{
    PingPong<fiber::UcontextSwitch>().play();
}

TEST(FiberSwitch, NativePingPong)
{
    PingPong<fiber::NativeSwitch>().play();
}
