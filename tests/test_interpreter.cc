/**
 * @file
 * Tests for the MW32 functional interpreter: real programs compute
 * real answers and emit the right reference streams.
 */

#include <gtest/gtest.h>

#include <vector>

#include "isa/assembler.hh"
#include "isa/interpreter.hh"

using namespace memwall;

namespace {

/** Assemble, load and return an interpreter positioned at entry. */
struct TestMachine
{
    BackingStore mem;
    Interpreter cpu{mem};

    explicit TestMachine(const std::string &src)
    {
        const auto prog = assembleOrDie(src);
        prog.loadInto(mem);
        cpu.setPc(prog.entry);
    }
};

} // namespace

TEST(Interpreter, ArithmeticBasics)
{
    TestMachine m(R"(
        addi r1, r0, 6
        addi r2, r0, 7
        mul  r3, r1, r2
        sub  r4, r3, r1
        halt
    )");
    EXPECT_EQ(m.cpu.run(100), StopReason::Halted);
    EXPECT_EQ(m.cpu.state().reg(3), 42u);
    EXPECT_EQ(m.cpu.state().reg(4), 36u);
}

TEST(Interpreter, R0IsHardwiredZero)
{
    TestMachine m(R"(
        addi r0, r0, 99
        addi r1, r0, 1
        halt
    )");
    m.cpu.run(100);
    EXPECT_EQ(m.cpu.state().reg(0), 0u);
    EXPECT_EQ(m.cpu.state().reg(1), 1u);
}

TEST(Interpreter, LoopComputesSum)
{
    // Sum 1..10 = 55.
    TestMachine m(R"(
        addi r1, r0, 10    ; counter
        addi r2, r0, 0     ; acc
    loop:
        add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    )");
    EXPECT_EQ(m.cpu.run(1000), StopReason::Halted);
    EXPECT_EQ(m.cpu.state().reg(2), 55u);
    EXPECT_EQ(m.cpu.stats().taken_branches, 9u);
    EXPECT_EQ(m.cpu.stats().branches, 10u);
}

TEST(Interpreter, MemoryRoundTripAllWidths)
{
    TestMachine m(R"(
        li  r10, 0x10000
        li  r1, 0x89abcdef
        sw  r1, 0(r10)
        lw  r2, 0(r10)
        lh  r3, 0(r10)      ; sign-extended 0xcdef
        lhu r4, 0(r10)
        lb  r5, 0(r10)      ; sign-extended 0xef
        lbu r6, 0(r10)
        halt
    )");
    m.cpu.run(100);
    EXPECT_EQ(m.cpu.state().reg(2), 0x89abcdefu);
    EXPECT_EQ(m.cpu.state().reg(3), 0xffffcdefu);
    EXPECT_EQ(m.cpu.state().reg(4), 0x0000cdefu);
    EXPECT_EQ(m.cpu.state().reg(5), 0xffffffefu);
    EXPECT_EQ(m.cpu.state().reg(6), 0x000000efu);
}

TEST(Interpreter, ByteAndHalfStores)
{
    TestMachine m(R"(
        li  r10, 0x20000
        li  r1, 0x12345678
        sw  r1, 0(r10)
        addi r2, r0, 0
        sb  r2, 0(r10)
        lw  r3, 0(r10)
        sh  r2, 2(r10)
        lw  r4, 0(r10)
        halt
    )");
    m.cpu.run(100);
    EXPECT_EQ(m.cpu.state().reg(3), 0x12345600u);
    EXPECT_EQ(m.cpu.state().reg(4), 0x00005600u);
}

TEST(Interpreter, CallAndReturn)
{
    TestMachine m(R"(
        start:
            addi r1, r0, 5
            jal  ra, double
            mv   r4, r1
            halt
        double:
            add  r1, r1, r1
            ret
    )");
    EXPECT_EQ(m.cpu.run(100), StopReason::Halted);
    EXPECT_EQ(m.cpu.state().reg(4), 10u);
}

TEST(Interpreter, ShiftAndCompare)
{
    TestMachine m(R"(
        addi r1, r0, -8
        srai r2, r1, 1      ; -4
        srli r3, r1, 28     ; 0xf
        slti r4, r1, 0      ; 1
        sltu r5, r0, r1     ; 1 (unsigned -8 is huge)
        halt
    )");
    m.cpu.run(100);
    EXPECT_EQ(static_cast<std::int32_t>(m.cpu.state().reg(2)), -4);
    EXPECT_EQ(m.cpu.state().reg(3), 0xfu);
    EXPECT_EQ(m.cpu.state().reg(4), 1u);
    EXPECT_EQ(m.cpu.state().reg(5), 1u);
}

TEST(Interpreter, DivisionSemantics)
{
    TestMachine m(R"(
        addi r1, r0, 7
        addi r2, r0, 2
        div  r3, r1, r2
        rem  r4, r1, r2
        li   r5, 0x80000000
        addi r6, r0, -1
        div  r7, r5, r6
        rem  r8, r5, r6
        halt
    )");
    m.cpu.run(100);
    EXPECT_EQ(m.cpu.state().reg(3), 3u);
    EXPECT_EQ(m.cpu.state().reg(4), 1u);
    // INT_MIN / -1 wraps; INT_MIN % -1 is zero (no UB on the host).
    EXPECT_EQ(m.cpu.state().reg(7), 0x80000000u);
    EXPECT_EQ(m.cpu.state().reg(8), 0u);
}

TEST(Interpreter, DivideByZeroTraps)
{
    TestMachine m(R"(
        addi r1, r0, 7
        div  r5, r1, r0    ; zero divisor -> trap
        halt
    )");
    const Addr entry = m.cpu.state().pc;
    EXPECT_EQ(m.cpu.run(100), StopReason::DivideByZero);
    // The faulting div doesn't retire, writes nothing, and leaves
    // the pc on itself.
    EXPECT_EQ(m.cpu.stats().instructions, 1u);
    EXPECT_EQ(m.cpu.state().reg(5), 0u);
    EXPECT_EQ(m.cpu.state().pc, entry + 4);
}

TEST(Interpreter, RemainderByZeroTraps)
{
    TestMachine m(R"(
        addi r1, r0, 7
        rem  r0, r1, r0    ; traps even though rd is r0
        halt
    )");
    EXPECT_EQ(m.cpu.run(100), StopReason::DivideByZero);
    EXPECT_EQ(m.cpu.stats().instructions, 1u);
}

TEST(Interpreter, InstructionLimitStops)
{
    TestMachine m(R"(
        loop: b loop
    )");
    EXPECT_EQ(m.cpu.run(50), StopReason::InstrLimit);
    EXPECT_EQ(m.cpu.stats().instructions, 50u);
}

TEST(Interpreter, BadInstructionStops)
{
    TestMachine m(".word 0xf4000000\n");  // invalid opcode 0x3d
    EXPECT_EQ(m.cpu.run(10), StopReason::BadInstruction);

    // After a retiring instruction: the bad word stops without
    // retiring, the pc stays on it, and its fetch is the last ref.
    TestMachine after(R"(
        addi r1, r0, 9
        .word 0xf4000000
        halt
    )");
    const Addr entry = after.cpu.state().pc;
    std::vector<MemRef> refs;
    const RefSink sink = [&](const MemRef &r) { refs.push_back(r); };
    EXPECT_EQ(after.cpu.run(10, &sink), StopReason::BadInstruction);
    EXPECT_EQ(after.cpu.state().pc, entry + 4);
    EXPECT_EQ(after.cpu.stats().instructions, 1u);
    ASSERT_EQ(refs.size(), 2u);
    EXPECT_TRUE(refs.back() == MemRef::fetch(entry + 4));
}

TEST(Interpreter, EmitsReferenceStream)
{
    TestMachine m(R"(
        li  r10, 0x30000
        lw  r1, 0(r10)
        sw  r1, 4(r10)
        halt
    )");
    std::vector<MemRef> refs;
    const RefSink sink = [&](const MemRef &r) { refs.push_back(r); };
    m.cpu.run(100, &sink);

    // 5 instructions (li = 2) -> 5 fetches + 1 load + 1 store.
    unsigned fetches = 0, loads = 0, stores = 0;
    for (const auto &r : refs) {
        switch (r.type) {
          case RefType::IFetch: ++fetches; break;
          case RefType::Load: ++loads; break;
          case RefType::Store: ++stores; break;
        }
    }
    EXPECT_EQ(fetches, 5u);
    EXPECT_EQ(loads, 1u);
    EXPECT_EQ(stores, 1u);
    // The load's effective address and size are right.
    for (const auto &r : refs)
        if (r.type == RefType::Load) {
            EXPECT_EQ(r.addr, 0x30000u);
            EXPECT_EQ(r.size, 4u);
        }
}

TEST(Interpreter, StatsCountLoadsAndStores)
{
    TestMachine m(R"(
        li r10, 0x40000
        sw r0, 0(r10)
        lw r1, 0(r10)
        lw r2, 0(r10)
        halt
    )");
    m.cpu.run(100);
    EXPECT_EQ(m.cpu.stats().loads, 2u);
    EXPECT_EQ(m.cpu.stats().stores, 1u);
}

TEST(Interpreter, MisalignedWordAccessTrapsByDefault)
{
    TestMachine m(R"(
        li  r10, 0x10001
        lw  r1, 0(r10)
        halt
    )");
    EXPECT_TRUE(m.cpu.alignmentTrap());
    EXPECT_EQ(m.cpu.run(100), StopReason::AlignmentFault);
    EXPECT_EQ(m.cpu.faultAddr(), 0x10001u);
    // The faulting instruction does not retire.
    EXPECT_EQ(m.cpu.stats().instructions, 2u);
    EXPECT_EQ(m.cpu.stats().loads, 0u);
}

TEST(Interpreter, MisalignedHalfwordStoreTraps)
{
    TestMachine m(R"(
        li  r10, 0x10003
        sh  r0, 0(r10)
        halt
    )");
    EXPECT_EQ(m.cpu.run(100), StopReason::AlignmentFault);
    EXPECT_EQ(m.cpu.faultAddr(), 0x10003u);
    EXPECT_EQ(m.cpu.stats().stores, 0u);
}

TEST(Interpreter, ByteAccessNeverTraps)
{
    TestMachine m(R"(
        li  r10, 0x10001
        addi r1, r0, 0x5a
        sb  r1, 0(r10)
        lbu r2, 0(r10)
        halt
    )");
    EXPECT_EQ(m.cpu.run(100), StopReason::Halted);
    EXPECT_EQ(m.cpu.state().reg(2), 0x5au);
}

TEST(Interpreter, AlignmentTrapCanBeDisabled)
{
    TestMachine m(R"(
        li  r10, 0x10001
        sw  r0, 0(r10)
        lw  r1, 0(r10)
        halt
    )");
    m.cpu.setAlignmentTrap(false);
    EXPECT_EQ(m.cpu.run(100), StopReason::Halted);
    EXPECT_EQ(m.cpu.state().reg(1), 0u);
    EXPECT_EQ(m.cpu.stats().loads, 1u);
    EXPECT_EQ(m.cpu.stats().stores, 1u);

    // A word straddling a 4 KiB page boundary reads back whole.
    TestMachine straddle(R"(
        li  r10, 0x10ffe
        li  r1, 0xa1b2c3d4
        sw  r1, 0(r10)
        lw  r2, 0(r10)
        halt
    )");
    straddle.cpu.setAlignmentTrap(false);
    EXPECT_EQ(straddle.cpu.run(100), StopReason::Halted);
    EXPECT_EQ(straddle.cpu.state().reg(2), 0xa1b2c3d4u);
}

TEST(Interpreter, RunMatchesCappedStepLoop)
{
    const char *src = R"(
        addi r1, r0, 10
        addi r2, r0, 0
    loop:
        add  r2, r2, r1
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    )";
    for (const std::uint64_t budget : {1u, 3u, 17u, 31u, 1000u}) {
        TestMachine run_m(src);
        const StopReason sr = run_m.cpu.run(budget);

        TestMachine step_m(src);
        std::uint64_t attempted = 0;
        bool alive = true;
        while (attempted < budget && alive) {
            alive = step_m.cpu.step();
            ++attempted;
        }
        EXPECT_EQ(run_m.cpu.state().pc, step_m.cpu.state().pc)
            << "budget " << budget;
        for (unsigned i = 0; i < 32; ++i)
            EXPECT_EQ(run_m.cpu.state().reg(i),
                      step_m.cpu.state().reg(i));
        EXPECT_EQ(run_m.cpu.stats().instructions,
                  step_m.cpu.stats().instructions);
        EXPECT_EQ(run_m.cpu.stats().taken_branches,
                  step_m.cpu.stats().taken_branches);
        if (alive) {
            // The budget ended the run: InstrLimit.
            EXPECT_EQ(sr, StopReason::InstrLimit);
        } else {
            // The program ended the run: identical stop reasons.
            EXPECT_EQ(sr, step_m.cpu.lastStop());
            EXPECT_EQ(run_m.cpu.lastStop(), step_m.cpu.lastStop());
        }
    }
}

TEST(Interpreter, RunZeroDoesNotClobberLastStop)
{
    TestMachine m("halt\n");
    EXPECT_EQ(m.cpu.run(10), StopReason::Halted);
    // A zero budget behaves like a zero-iteration step() loop: it
    // reports InstrLimit but must not overwrite the recorded stop.
    EXPECT_EQ(m.cpu.run(0), StopReason::InstrLimit);
    EXPECT_EQ(m.cpu.lastStop(), StopReason::Halted);
    EXPECT_EQ(m.cpu.stats().instructions, 1u);
}

TEST(Interpreter, RunContinuesAcrossBudgets)
{
    // Two budgeted runs reach the same place as one big run.
    const char *src = R"(
        addi r1, r0, 20
    loop:
        addi r1, r1, -1
        bne  r1, r0, loop
        halt
    )";
    TestMachine split(src);
    EXPECT_EQ(split.cpu.run(7), StopReason::InstrLimit);
    EXPECT_EQ(split.cpu.lastStop(), StopReason::InstrLimit);
    EXPECT_EQ(split.cpu.run(10000), StopReason::Halted);

    TestMachine whole(src);
    whole.cpu.run(10000);
    EXPECT_EQ(split.cpu.state().pc, whole.cpu.state().pc);
    EXPECT_EQ(split.cpu.stats().instructions,
              whole.cpu.stats().instructions);
    EXPECT_EQ(split.cpu.lastStop(), whole.cpu.lastStop());
}

TEST(Interpreter, MemcpyProgram)
{
    // Copy 16 words and verify the data actually moved.
    TestMachine m(R"(
        li   r10, 0x50000    ; src
        li   r11, 0x51000    ; dst
        addi r12, r0, 16
        ; fill source with i*3
        mv   r13, r10
        addi r14, r0, 0
    fill:
        mul  r15, r14, r12
        sw   r15, 0(r13)
        addi r13, r13, 4
        addi r14, r14, 1
        bne  r14, r12, fill
        ; copy
        mv   r13, r10
        mv   r16, r11
        addi r14, r0, 0
    copy:
        lw   r15, 0(r13)
        sw   r15, 0(r16)
        addi r13, r13, 4
        addi r16, r16, 4
        addi r14, r14, 1
        bne  r14, r12, copy
        halt
    )");
    EXPECT_EQ(m.cpu.run(10000), StopReason::Halted);
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(m.mem.readU32(0x51000 + 4 * i), i * 16u);
}
