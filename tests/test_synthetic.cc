/**
 * @file
 * Tests for the synthetic workload generator: routine switching,
 * call structure, data-stream mixture, lockstep groups, reuse; and
 * the integer-space draws against their oracle, the floating-point
 * generator in reference_synthetic.hh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "reference_synthetic.hh"
#include "trace/synthetic.hh"
#include "workloads/spec_suite.hh"

using namespace memwall;

namespace {

SyntheticSpec
minimalSpec()
{
    SyntheticSpec spec;
    spec.name = "test";
    CodeRoutine r;
    r.base = 0x1000;
    r.length = 64;  // 16 instructions
    spec.routines = {r};
    spec.refs_per_instr = 0.0;
    spec.seed = 5;
    return spec;
}

} // namespace

TEST(Synthetic, InstructionStreamWalksRoutine)
{
    SyntheticWorkload w(minimalSpec());
    std::vector<Addr> pcs;
    w.generate(16, [&](const MemRef &r) {
        ASSERT_EQ(r.type, RefType::IFetch);
        pcs.push_back(r.pc);
    });
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(pcs[i], 0x1000 + 4 * i);
}

TEST(Synthetic, DeterministicAcrossInstances)
{
    SyntheticSpec spec = minimalSpec();
    spec.routines.push_back(
        CodeRoutine{0x2000, 128, 2.0, 3.0, -1});
    DataStream s;
    s.kind = StreamKind::Random;
    s.base = 0x100000;
    s.size = 64 * KiB;
    spec.streams = {s};
    spec.refs_per_instr = 0.4;

    SyntheticWorkload a(spec), b(spec);
    std::vector<MemRef> ra, rb;
    a.generate(5000, [&](const MemRef &r) { ra.push_back(r); });
    b.generate(5000, [&](const MemRef &r) { rb.push_back(r); });
    EXPECT_EQ(ra, rb);
}

TEST(Synthetic, GenerateIntoMatchesGenerate)
{
    SyntheticSpec spec = minimalSpec();
    DataStream s;
    s.kind = StreamKind::Random;
    s.base = 0x100000;
    s.size = 64 * KiB;
    spec.streams = {s};
    spec.refs_per_instr = 0.4;

    SyntheticWorkload a(spec), b(spec);
    std::vector<MemRef> via_generate, via_into;
    std::uint64_t na =
        a.generate(5000,
                   [&](const MemRef &r) { via_generate.push_back(r); });
    std::uint64_t nb = b.generateInto(
        5000, [&](const MemRef &r) { via_into.push_back(r); });
    EXPECT_EQ(na, nb);
    EXPECT_EQ(via_generate, via_into);
}

TEST(Synthetic, GenerateBatchMatchesGenerateAndAppends)
{
    SyntheticSpec spec = minimalSpec();
    DataStream s;
    s.kind = StreamKind::Chase;
    s.base = 0x40000;
    s.size = 16 * KiB;
    spec.streams = {s};
    spec.refs_per_instr = 0.3;

    SyntheticWorkload a(spec), b(spec);
    std::vector<MemRef> reference;
    a.generate(4000,
               [&](const MemRef &r) { reference.push_back(r); });

    // A batch of the same size reproduces the generate() stream, and
    // generateBatch appends without clearing what @p out held before.
    std::vector<MemRef> batched = {MemRef::fetch(0xdead)};
    std::uint64_t n = b.generateBatch(4000, batched);
    EXPECT_EQ(n, reference.size());
    ASSERT_EQ(batched.size(), reference.size() + 1);
    EXPECT_EQ(batched.front(), MemRef::fetch(0xdead));
    EXPECT_EQ(std::vector<MemRef>(batched.begin() + 1, batched.end()),
              reference);
}

TEST(Synthetic, ResetReplaysIdentically)
{
    SyntheticSpec spec = minimalSpec();
    DataStream s;
    s.kind = StreamKind::Chase;
    s.base = 0;
    s.size = 4096;
    spec.streams = {s};
    spec.refs_per_instr = 0.5;
    SyntheticWorkload w(spec);
    std::vector<MemRef> first, second;
    w.generate(1000, [&](const MemRef &r) { first.push_back(r); });
    w.reset();
    w.generate(1000, [&](const MemRef &r) { second.push_back(r); });
    EXPECT_EQ(first, second);
}

TEST(Synthetic, RefsPerInstrRatio)
{
    SyntheticSpec spec = minimalSpec();
    DataStream s;
    spec.streams = {s};
    spec.refs_per_instr = 0.30;
    SyntheticWorkload w(spec);
    unsigned fetches = 0, data = 0;
    w.generate(40000, [&](const MemRef &r) {
        if (r.type == RefType::IFetch)
            ++fetches;
        else
            ++data;
    });
    EXPECT_NEAR(static_cast<double>(data) / fetches, 0.30, 0.02);
}

TEST(Synthetic, StoreFractionRespected)
{
    SyntheticSpec spec = minimalSpec();
    DataStream s;
    s.store_frac = 0.25;
    spec.streams = {s};
    spec.refs_per_instr = 0.5;
    SyntheticWorkload w(spec);
    unsigned loads = 0, stores = 0;
    w.generate(60000, [&](const MemRef &r) {
        if (r.type == RefType::Load)
            ++loads;
        else if (r.type == RefType::Store)
            ++stores;
    });
    EXPECT_NEAR(static_cast<double>(stores) / (loads + stores),
                0.25, 0.02);
}

TEST(Synthetic, StridedStreamIsSequential)
{
    SyntheticSpec spec = minimalSpec();
    DataStream s;
    s.kind = StreamKind::Strided;
    s.base = 0x100000;
    s.size = 1024;
    s.stride = 8;
    s.store_frac = 0.0;
    s.reuse = 1;
    spec.streams = {s};
    spec.refs_per_instr = 1.0;  // data ref every instruction
    SyntheticWorkload w(spec);
    std::vector<Addr> addrs;
    w.generate(64, [&](const MemRef &r) {
        if (r.type != RefType::IFetch)
            addrs.push_back(r.addr);
    });
    for (std::size_t i = 1; i < addrs.size(); ++i)
        EXPECT_EQ(addrs[i], addrs[i - 1] + 8);
}

TEST(Synthetic, ReuseRepeatsPositions)
{
    SyntheticSpec spec = minimalSpec();
    DataStream s;
    s.kind = StreamKind::Strided;
    s.base = 0;
    s.size = 4096;
    s.stride = 8;
    s.store_frac = 0.0;
    s.reuse = 3;
    spec.streams = {s};
    spec.refs_per_instr = 1.0;
    SyntheticWorkload w(spec);
    std::vector<Addr> addrs;
    w.generate(18, [&](const MemRef &r) {
        if (r.type != RefType::IFetch)
            addrs.push_back(r.addr);
    });
    ASSERT_GE(addrs.size(), 6u);
    EXPECT_EQ(addrs[0], addrs[1]);
    EXPECT_EQ(addrs[1], addrs[2]);
    EXPECT_EQ(addrs[3], addrs[0] + 8);
}

TEST(Synthetic, RandomStreamStaysInRegion)
{
    SyntheticSpec spec = minimalSpec();
    DataStream s;
    s.kind = StreamKind::Random;
    s.base = 0x40000;
    s.size = 8192;
    s.access_size = 8;
    spec.streams = {s};
    spec.refs_per_instr = 1.0;
    SyntheticWorkload w(spec);
    w.generate(4000, [&](const MemRef &r) {
        if (r.type == RefType::IFetch)
            return;
        EXPECT_GE(r.addr, 0x40000u);
        EXPECT_LT(r.addr, 0x40000u + 8192u);
        EXPECT_EQ(r.addr % 8, 0u);
    });
}

TEST(Synthetic, ChaseCoversRegion)
{
    SyntheticSpec spec = minimalSpec();
    DataStream s;
    s.kind = StreamKind::Chase;
    s.base = 0x0;
    s.size = 1024;
    s.access_size = 16;
    spec.streams = {s};
    spec.refs_per_instr = 1.0;
    SyntheticWorkload w(spec);
    std::set<Addr> seen;
    w.generate(4000, [&](const MemRef &r) {
        if (r.type != RefType::IFetch)
            seen.insert(r.addr);
    });
    // 64 slots; the LCG walk should reach most of them.
    EXPECT_GT(seen.size(), 48u);
}

TEST(Synthetic, CallTargetAlternatesLoopAndFunction)
{
    // The 125.turb3d structure: a loop calls its helper after every
    // pass.
    SyntheticSpec spec;
    spec.name = "turb-mini";
    spec.seed = 3;
    CodeRoutine loop;
    loop.base = 0x1000;
    loop.length = 16;  // 4 instructions
    loop.mean_repeats = 100;
    loop.call_target = 1;
    CodeRoutine callee;
    callee.base = 0x9000;
    callee.length = 8;  // 2 instructions
    callee.weight = 0.001;
    spec.routines = {loop, callee};
    spec.refs_per_instr = 0.0;

    SyntheticWorkload w(spec);
    std::vector<Addr> pcs;
    w.generate(12, [&](const MemRef &r) { pcs.push_back(r.pc); });
    // loop pass (4), callee (2), loop pass (4), callee (2 begins).
    const std::vector<Addr> expected{
        0x1000, 0x1004, 0x1008, 0x100c, 0x9000, 0x9004,
        0x1000, 0x1004, 0x1008, 0x100c, 0x9000, 0x9004};
    EXPECT_EQ(pcs, expected);
}

TEST(Synthetic, LockstepGroupSharesCursor)
{
    SyntheticSpec spec = minimalSpec();
    DataStream a, b, c;
    a.base = 0x10000;
    b.base = 0x20000;
    c.base = 0x30000;
    for (DataStream *s : {&a, &b, &c}) {
        s->kind = StreamKind::Strided;
        s->size = 4096;
        s->stride = 8;
        s->store_frac = 0.0;
        s->reuse = 1;
        s->group = 0;
    }
    spec.streams = {a, b, c};
    spec.refs_per_instr = 1.0;
    SyntheticWorkload w(spec);
    std::vector<Addr> addrs;
    w.generate(18, [&](const MemRef &r) {
        if (r.type != RefType::IFetch)
            addrs.push_back(r.addr);
    });
    ASSERT_GE(addrs.size(), 6u);
    // Round-robin across members at the SAME offset...
    EXPECT_EQ(addrs[0], 0x10000u);
    EXPECT_EQ(addrs[1], 0x20000u);
    EXPECT_EQ(addrs[2], 0x30000u);
    // ...then the shared cursor advances.
    EXPECT_EQ(addrs[3], 0x10008u);
    EXPECT_EQ(addrs[4], 0x20008u);
    EXPECT_EQ(addrs[5], 0x30008u);
}

TEST(SyntheticDeath, RejectsBadSpecs)
{
    SyntheticSpec no_routines;
    no_routines.refs_per_instr = 0.0;
    EXPECT_EXIT(SyntheticWorkload{no_routines},
                ::testing::ExitedWithCode(1), "routine");

    SyntheticSpec bad = minimalSpec();
    bad.refs_per_instr = 0.5;  // but no streams
    EXPECT_EXIT(SyntheticWorkload{bad},
                ::testing::ExitedWithCode(1), "stream");
}

// --------------------------------------------------------------------
// The integer-space generator against the floating-point oracle.

namespace {

constexpr std::uint64_t draws53 = std::uint64_t{1} << 53;

/** Both generators over the same windows; every MemRef must match.
 *  The window lengths vary so that the data draw a window boundary
 *  suppresses falls at many points of the stream. */
void
expectSameStream(SyntheticWorkload &got, ReferenceSyntheticWorkload &want,
                 std::uint64_t refs, const std::string &what)
{
    static constexpr std::uint64_t windows[] = {1, 2, 3, 5, 64, 1000,
                                                4097, 30011};
    std::vector<MemRef> a, b;
    a.reserve(refs);
    b.reserve(refs);
    std::uint64_t done = 0;
    for (std::size_t i = 0; done < refs; ++i) {
        const std::uint64_t n =
            std::min(windows[i % std::size(windows)], refs - done);
        EXPECT_EQ(got.generateInto(
                      n, [&a](const MemRef &r) { a.push_back(r); }),
                  n);
        want.generateInto(n, [&b](const MemRef &r) { b.push_back(r); });
        done += n;
    }
    ASSERT_EQ(a.size(), b.size()) << what;
    const auto diff = std::mismatch(a.begin(), a.end(), b.begin());
    ASSERT_TRUE(diff.first == a.end())
        << what << ": reference " << (diff.first - a.begin())
        << " differs (pc " << diff.first->pc << " addr "
        << diff.first->addr << " vs pc " << diff.second->pc
        << " addr " << diff.second->addr << ")";
}

/** Construction, then reset(), then scatterState(): the same stream. */
void
expectSameGenerator(const SyntheticSpec &spec, std::uint64_t refs)
{
    SyntheticWorkload got(spec);
    ReferenceSyntheticWorkload want(spec);
    expectSameStream(got, want, refs, spec.name + " after construction");
    got.reset();
    want.reset();
    expectSameStream(got, want, refs / 2, spec.name + " after reset()");
    for (int i = 0; i < 3; ++i) {
        got.scatterState();
        want.scatterState();
        expectSameStream(got, want, refs / 4,
                         spec.name + " after scatterState() " +
                             std::to_string(i));
    }
    // reseed() is construction under another seed.
    SyntheticSpec reseeded = spec;
    reseeded.seed = spec.seed * 31 + 7;
    ReferenceSyntheticWorkload fresh(reseeded);
    got.reseed(reseeded.seed);
    expectSameStream(got, fresh, refs / 4, spec.name + " after reseed()");
}

/**
 * The split delivery of @p spec against the oracle's stream: the
 * runs, expanded, are its fetches in order, the data references its
 * data references in order, and every run stays inside one pass of
 * a routine body (at most one run per body pass and window).
 */
void
expectSplitMatches(const SyntheticSpec &spec, std::uint64_t refs,
                   std::uint64_t window)
{
    SyntheticWorkload got(spec);
    ReferenceSyntheticWorkload want(spec);
    got.scatterState();
    want.scatterState();
    std::vector<Addr> fetches;
    std::vector<MemRef> data, want_data;
    std::vector<Addr> want_fetches;
    std::uint64_t max_run = 0;
    for (std::uint64_t done = 0; done < refs; done += window) {
        EXPECT_EQ(got.generateSplit(
                      window,
                      [&](Addr first_pc, std::uint64_t count) {
                          ASSERT_GT(count, 0u);
                          max_run = std::max(max_run, count);
                          for (std::uint64_t i = 0; i < count; ++i)
                              fetches.push_back(first_pc + 4 * i);
                      },
                      [&](const MemRef &r) { data.push_back(r); }),
                  window);
        want.generateInto(window, [&](const MemRef &r) {
            if (r.type == RefType::IFetch)
                want_fetches.push_back(r.pc);
            else
                want_data.push_back(r);
        });
    }
    EXPECT_EQ(fetches, want_fetches) << spec.name;
    EXPECT_EQ(data, want_data) << spec.name;
    std::uint32_t longest = 0;
    for (const CodeRoutine &r : spec.routines)
        longest = std::max(longest, r.length / 4);
    EXPECT_LE(max_run, longest) << spec.name;
}

/** Hand specs for the corners no SPEC proxy reaches. */
std::vector<SyntheticSpec>
cornerSpecs()
{
    std::vector<SyntheticSpec> out;
    DataStream random;
    random.kind = StreamKind::Random;
    random.base = 0x200000;
    random.size = 3000; // 375 slots of 8 bytes: not a power of two
    random.store_frac = 0.25;
    DataStream chase;
    chase.kind = StreamKind::Chase;
    chase.base = 0x300004;
    chase.size = 12 * 1000; // 3000 slots of 4 bytes
    chase.access_size = 4;
    chase.weight = 0.7;
    chase.store_frac = 1.0;
    DataStream strided;
    strided.base = 0x400000;
    strided.size = 64 * KiB;
    strided.stride = -24;
    strided.reuse = 3;
    strided.weight = 2.5;
    strided.store_frac = 0.0;
    // Slots past 2^63 reject a quarter of the raw draws.
    DataStream huge;
    huge.kind = StreamKind::Random;
    huge.base = 0;
    huge.size = 3ull << 62;
    huge.access_size = 1;
    huge.weight = 0.3;
    huge.store_frac = 1.0 / 3.0;

    SyntheticSpec never = minimalSpec();
    never.name = "refs-per-instr-0";
    never.streams = {random};
    never.refs_per_instr = 0.0;
    out.push_back(never);

    SyntheticSpec always = minimalSpec();
    always.name = "refs-per-instr-1";
    always.streams = {chase, strided};
    always.refs_per_instr = 1.0;
    out.push_back(always);

    SyntheticSpec one = minimalSpec();
    one.name = "one-stream";
    one.routines.push_back(CodeRoutine{0x2002, 92, 0.5, 4.0, -1});
    one.streams = {random};
    one.refs_per_instr = 0.45;
    out.push_back(one);

    SyntheticSpec many;
    many.name = "many-routines";
    many.seed = 77;
    for (int i = 0; i < 100; ++i) {
        CodeRoutine r;
        // Unaligned bases, as 134.perl's routines have.
        r.base = 0x10000 + 0x1000 * static_cast<Addr>(i) +
                 static_cast<Addr>((i * 7) % 4);
        r.length = 4 * static_cast<std::uint32_t>(1 + (i * 13) % 61);
        r.weight = 0.1 + 0.01 * ((i * 37) % 101) + 1e-12 * i;
        r.mean_repeats = 1.0 + (i % 5) * 1.5;
        r.call_target = i % 10 == 3 ? i + 1 : -1;
        many.routines.push_back(r);
    }
    many.streams = {random, chase, strided, huge};
    many.refs_per_instr = 0.35;
    out.push_back(many);

    SyntheticSpec grouped;
    grouped.name = "lockstep-groups";
    grouped.seed = 11;
    grouped.routines = {CodeRoutine{0x8001, 400, 1.0, 6.0, 1},
                        CodeRoutine{0x9000, 36, 1.0, 1.0, -1}};
    for (int i = 0; i < 5; ++i) {
        DataStream g;
        g.base = 0x1000000 * static_cast<Addr>(i + 1);
        g.size = 256 * KiB;
        g.stride = 8;
        g.reuse = 2;
        g.group = i < 3 ? 7 : 2; // ids out of order
        g.store_frac = 0.1 * i;
        grouped.streams.push_back(g);
    }
    grouped.streams.push_back(random);
    grouped.refs_per_instr = 0.6;
    out.push_back(grouped);
    return out;
}

/** The floating-point pick pickBoundaries() replaces. */
std::size_t
floatPick(const std::vector<double> &weights, std::uint64_t k)
{
    double total = 0.0;
    for (const double w : weights)
        total += w;
    double pick = static_cast<double>(k) * 0x1.0p-53 * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        pick -= weights[i];
        if (pick <= 0.0)
            return i;
    }
    return weights.size() - 1;
}

/** @p k and its neighbours, kept to the 53-bit draws. */
std::vector<std::uint64_t>
around(std::uint64_t k)
{
    std::vector<std::uint64_t> out = {0, draws53 - 1};
    for (const std::uint64_t v : {k - 1, k, k + 1})
        if (v < draws53) // k - 1 wraps for k = 0
            out.push_back(v);
    return out;
}

/** Every weight vector a generator draws from, plus hard cases. */
std::vector<std::vector<double>>
weightSets()
{
    std::vector<std::vector<double>> out = {
        {1.0},
        {1.0, 1.0},
        {0.1, 0.2, 0.7},
        {0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
        {1e-300, 1.0},
        {3.0, 1e-17, 2.0},
        {1.0, 1e-17},
    };
    std::vector<SyntheticSpec> specs = cornerSpecs();
    for (const SpecWorkload &w : specSuite())
        specs.push_back(w.proxy);
    for (const SyntheticSpec &spec : specs) {
        std::vector<double> routines, streams;
        for (const CodeRoutine &r : spec.routines)
            routines.push_back(r.weight);
        for (const DataStream &s : spec.streams)
            streams.push_back(s.weight);
        out.push_back(routines);
        if (!streams.empty())
            out.push_back(streams);
    }
    return out;
}

} // namespace

TEST(SyntheticOracle, EverySpecProxyMatchesTheFloatingPointGenerator)
{
    for (const SpecWorkload &w : specSuite())
        expectSameGenerator(w.proxy, 200'000);
}

TEST(SyntheticOracle, CornerSpecsMatchTheFloatingPointGenerator)
{
    for (const SyntheticSpec &spec : cornerSpecs())
        expectSameGenerator(spec, 200'000);
}

TEST(SyntheticOracle, SplitDeliveryIsTheSameStreamBySide)
{
    std::vector<SyntheticSpec> specs = cornerSpecs();
    for (const SpecWorkload &w : specSuite())
        specs.push_back(w.proxy);
    for (const SyntheticSpec &spec : specs)
        for (const std::uint64_t window : {1ull, 7ull, 5000ull})
            expectSplitMatches(spec, 60'000, window);
}

TEST(SyntheticOracle, PickBoundariesMatchTheFloatingPointPick)
{
    for (const std::vector<double> &weights : weightSets()) {
        const std::vector<std::uint64_t> bounds =
            pickBoundaries(weights);
        ASSERT_EQ(bounds.size(), weights.size() - 1);
        EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
        for (const std::uint64_t b : bounds)
            for (const std::uint64_t k : around(b))
                EXPECT_EQ(pickIndex(bounds, k), floatPick(weights, k))
                    << "k = " << k << ", boundary " << b << " of "
                    << weights.size() << " weights";
    }
}

TEST(SyntheticOracle, BernoulliThresholdsMatchTheFloatingPointDraw)
{
    std::vector<double> ps = {0.3, 0.35, 1.0 / 3.0, 0.5, 1e-17,
                              1e-300, 0x1.0p-53, 3 * 0x1.0p-54,
                              std::nextafter(1.0, 0.0)};
    for (const SpecWorkload &w : specSuite()) {
        ps.push_back(w.proxy.refs_per_instr);
        for (const DataStream &s : w.proxy.streams)
            ps.push_back(s.store_frac);
    }
    for (const double p : ps) {
        const std::uint64_t t = bernoulliThreshold(p);
        ASSERT_NE(t, never_threshold) << p;
        ASSERT_NE(t, always_threshold) << p;
        for (const std::uint64_t k : around(t))
            EXPECT_EQ(k < t, static_cast<double>(k) * 0x1.0p-53 < p)
                << "p = " << p << ", k = " << k << ", threshold " << t;
    }
    EXPECT_EQ(bernoulliThreshold(0.0), never_threshold);
    EXPECT_EQ(bernoulliThreshold(-0.5), never_threshold);
    EXPECT_EQ(bernoulliThreshold(1.0), always_threshold);
    EXPECT_EQ(bernoulliThreshold(2.0), always_threshold);
}
