/**
 * @file
 * MW32 functional interpreter.
 *
 * Executes assembled programs against a BackingStore and emits the
 * instruction/data reference stream to an optional RefSink — the
 * execution-driven analogue of the paper's Shade front end. The
 * interpreter is purely functional (no timing); timing models consume
 * the emitted stream.
 */

#ifndef MEMWALL_ISA_INTERPRETER_HH
#define MEMWALL_ISA_INTERPRETER_HH

#include <array>
#include <cstdint>

#include "common/stats.hh"
#include "isa/instruction.hh"
#include "mem/backing_store.hh"
#include "trace/ref.hh"

namespace memwall {

/** Architectural register state. */
struct CpuState
{
    std::array<std::uint32_t, 32> regs{};
    Addr pc = 0;

    std::uint32_t reg(unsigned i) const { return regs[i & 31]; }
    void
    setReg(unsigned i, std::uint32_t v)
    {
        if ((i & 31) != 0)
            regs[i & 31] = v;  // r0 is hard-wired to zero
    }
};

/** Reasons run() stopped. */
enum class StopReason {
    Halted,         ///< executed a halt instruction
    InstrLimit,     ///< reached the max_instructions budget
    BadInstruction, ///< decoded an invalid opcode
    AlignmentFault, ///< misaligned word/halfword access (trap on)
    DivideByZero    ///< div/rem with a zero divisor
};

/** Execution statistics of an interpreter run. */
struct ExecStats
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t taken_branches = 0;
};

/** Functional MW32 CPU. */
class Interpreter
{
  public:
    explicit Interpreter(BackingStore &mem);

    CpuState &state() { return state_; }
    const CpuState &state() const { return state_; }

    /** Set the program counter. */
    void setPc(Addr pc) { state_.pc = pc; }

    /**
     * Control misaligned-access behaviour. On (the default), a
     * halfword/word load or store whose effective address is not a
     * multiple of its size traps with StopReason::AlignmentFault —
     * matching the mw32-lint `misaligned` diagnostic. Off restores
     * the historical byte-wise wrap-through for experiments that
     * deliberately probe unaligned behaviour.
     */
    void setAlignmentTrap(bool on) { trap_misaligned_ = on; }
    bool alignmentTrap() const { return trap_misaligned_; }

    /** Faulting address of the last AlignmentFault stop. */
    Addr faultAddr() const { return fault_addr_; }

    /**
     * Execute one instruction; emits refs into @p sink when given.
     * @return false if the CPU halted (or hit a bad instruction).
     */
    bool step(const RefSink *sink = nullptr);

    /**
     * Run until halt or @p max_instructions. The budget counts
     * attempted instructions; when it is exhausted by retiring
     * instructions the stop reason is InstrLimit. A zero budget
     * executes nothing, returns InstrLimit, and leaves lastStop()
     * untouched — exactly like a zero-iteration step() loop.
     */
    StopReason run(std::uint64_t max_instructions,
                   const RefSink *sink = nullptr);

    const ExecStats &stats() const { return stats_; }
    StopReason lastStop() const { return last_stop_; }

  private:
    BackingStore &mem_;
    CpuState state_;
    ExecStats stats_;
    StopReason last_stop_ = StopReason::InstrLimit;
    bool trap_misaligned_ = true;
    Addr fault_addr_ = 0;
};

} // namespace memwall

#endif // MEMWALL_ISA_INTERPRETER_HH
