/**
 * @file
 * validation_absint_crosscheck — differential verification of the
 * abstract interpreter (and the provable lint diagnostics built on
 * it) against real execution.
 *
 * Generates N seeded random MW32 programs from two families:
 *
 *  - structured assembly sources: counted loops over every branch
 *    opcode, nested loops, jump-table dispatch with andi-masked
 *    indices, calls with genuine save/restore frames, div/rem, and
 *    occasional planted bugs (div-by-zero, misaligned access,
 *    out-of-section access, uninitialised load, out-of-table jump);
 *  - instruction soup: branchy spaghetti of random ALU, memory and
 *    branch instructions that stresses the fixpoint on irregular
 *    CFGs.
 *
 * Every program is analysed (AbsInt + lint) and then stepped on the
 * reference interpreter, asserting:
 *
 *  (a) CONTAINMENT — before every instruction executes, every
 *      architectural register value lies inside the static range
 *      AbsInt computed for that program point;
 *  (b) ZERO FALSE POSITIVES — every provable diagnostic
 *      (div-by-zero, oob-access, jump-oob, misaligned, uninit-load)
 *      is dynamically true each time its instruction is reached:
 *      the divisor really is zero, the address really is misaligned
 *      / outside every assembled section / outside the jump table /
 *      never stored to.
 *
 * The soundness contract (absint.hh) excludes executions that
 * return through a clobbered link register or escape a recovered
 * jump table: the harness maintains a shadow call stack and aborts
 * verification of a program at the first wild return or
 * out-of-table jump (counted, bounded below 20%).
 *
 * Flags: --programs N (default 1000, the acceptance floor), --seed,
 * --format json.
 */

#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/absint.hh"
#include "analysis/charact.hh"
#include "analysis/lint.hh"
#include "bench_util.hh"
#include "common/rng.hh"
#include "isa/assembler.hh"
#include "isa/interpreter.hh"
#include "mem/backing_store.hh"

using namespace memwall;

namespace {

constexpr std::initializer_list<const char *> extra_flags = {
    "--programs"};

constexpr Addr code_base = 0x1000;
constexpr Addr data_base = 0x100000;
constexpr std::uint32_t data_window = 4096;
constexpr unsigned reg_window = 28;
constexpr unsigned reg_code = 26;
constexpr std::uint64_t step_budget = 10000;

// ----------------------------------------------------------------
// Structured program generator: emits assembly source.
// ----------------------------------------------------------------

struct SrcGen
{
    Rng &rng;
    std::vector<std::string> code;   ///< instruction lines
    std::vector<std::string> data;   ///< data lines (after halt)
    std::vector<std::string> funcs;  ///< functions (after halt)
    int label = 0;
    int arr = 0;

    explicit SrcGen(Rng &r) : rng(r) {}

    std::string
    lbl(const char *stem)
    {
        return std::string(stem) + std::to_string(label++);
    }

    /** Fresh .space array of @p bytes; returns its label. */
    std::string
    newArray(unsigned bytes)
    {
        std::string name = "arr" + std::to_string(arr++);
        data.push_back(name + ":");
        data.push_back("    .space " + std::to_string(bytes));
        return name;
    }

    /** Fresh .word datum; returns its label. */
    std::string
    newWord(std::uint32_t v)
    {
        std::string name = "dat" + std::to_string(arr++);
        data.push_back(name + ":");
        data.push_back("    .word " + std::to_string(v));
        return name;
    }

    void
    emit(const std::string &s)
    {
        code.push_back("    " + s);
    }

    /** A counted loop exercising one branch opcode; the body does a
     * strided store then (sometimes) a load-accumulate. */
    void
    countedLoop()
    {
        const unsigned trips =
            static_cast<unsigned>(rng.uniformRange(1, 16));
        const std::string a = newArray((trips + 1) * 4);
        const std::string head = lbl("loop");
        const bool rmw = rng.bernoulli(0.5);
        const int variant = static_cast<int>(rng.uniformInt(6));

        emit("li   r4, " + a);
        emit("addi r5, r0, " +
             std::to_string(rng.uniformInt(64)));
        switch (variant) {
          case 0:  // bne, count up
          case 1:  // blt, count up
          case 2:  // bltu, count up
            emit("addi r1, r0, 0");
            emit("addi r2, r0, " + std::to_string(trips));
            code.push_back(head + ":");
            emit("slli r3, r1, 2");
            emit("add  r3, r4, r3");
            emit("sw   r5, 0(r3)");
            if (rmw) {
                emit("lw   r6, 0(r3)");
                emit("add  r5, r5, r6");
            }
            emit("addi r1, r1, 1");
            emit(std::string(variant == 0   ? "bne "
                             : variant == 1 ? "blt "
                                            : "bltu") +
                 " r1, r2, " + head);
            break;
          case 3:  // bge, count down
          case 4:  // bgeu, count down
            emit("addi r1, r0, " + std::to_string(trips));
            emit("addi r2, r0, 1");
            code.push_back(head + ":");
            emit("slli r3, r1, 2");
            emit("add  r3, r4, r3");
            emit("sw   r5, 0(r3)");
            emit("addi r1, r1, -1");
            emit(std::string(variant == 3 ? "bge " : "bgeu") +
                 " r1, r2, " + head);
            break;
          default: {  // beq top-test: loop while i != trips
            const std::string done = lbl("done");
            emit("addi r1, r0, 0");
            emit("addi r2, r0, " + std::to_string(trips));
            code.push_back(head + ":");
            emit("beq  r1, r2, " + done);
            emit("slli r3, r1, 2");
            emit("add  r3, r4, r3");
            emit("sw   r5, 0(r3)");
            emit("addi r1, r1, 1");
            emit("b    " + head);
            code.push_back(done + ":");
            break;
          }
        }
    }

    /** Two-level nest: outer counts, inner stores/accumulates. */
    void
    nestedLoop()
    {
        const unsigned outer =
            static_cast<unsigned>(rng.uniformRange(1, 4));
        const unsigned inner =
            static_cast<unsigned>(rng.uniformRange(1, 8));
        const std::string a = newArray((inner + 1) * 4);
        const std::string oh = lbl("outer"), ih = lbl("inner");

        emit("li   r4, " + a);
        emit("addi r7, r0, 0");
        emit("addi r8, r0, " + std::to_string(outer));
        code.push_back(oh + ":");
        emit("addi r1, r0, 0");
        emit("addi r2, r0, " + std::to_string(inner));
        code.push_back(ih + ":");
        emit("slli r3, r1, 2");
        emit("add  r3, r4, r3");
        emit("sw   r7, 0(r3)");
        emit("lw   r6, 0(r3)");
        emit("add  r7, r7, r6");
        emit("addi r1, r1, 1");
        emit("bne  r1, r2, " + ih);
        emit("addi r7, r7, 1");
        emit("bne  r7, r8, " + oh);
    }

    /** Jump-table dispatch with an andi-masked index loaded from
     * data; occasionally plants an out-of-table index. */
    void
    jumpTable()
    {
        const unsigned entries = rng.bernoulli(0.5) ? 2 : 4;
        const bool plant_oob = rng.bernoulli(0.10);
        const std::string tab = "tab" + std::to_string(arr++);
        const std::string idx =
            newWord(static_cast<std::uint32_t>(
                rng.uniformInt(256)));
        const std::string join = lbl("join");
        std::vector<std::string> cases;
        for (unsigned e = 0; e < entries; ++e)
            cases.push_back(lbl("case"));

        emit("li   r4, " + tab);
        emit("li   r6, " + idx);
        emit("lw   r6, 0(r6)");
        if (plant_oob) {
            // Index provably past the table; hidden from the CFG
            // folder behind a sub so the table is still recovered.
            emit("addi r6, r0, " +
                 std::to_string(entries * 4 + 4));
            emit("sub  r6, r6, r0");
        } else {
            emit("andi r6, r6, " + std::to_string(entries - 1));
            emit("slli r6, r6, 2");
        }
        emit("add  r6, r4, r6");
        emit("lw   r7, 0(r6)");
        emit("jalr r0, r7");
        for (unsigned e = 0; e < entries; ++e) {
            code.push_back(cases[e] + ":");
            emit("addi r5, r0, " + std::to_string(e + 1));
            if (e + 1 < entries)
                emit("b    " + join);
        }
        code.push_back(join + ":");

        data.push_back(tab + ":");
        for (unsigned e = 0; e < entries; ++e)
            data.push_back("    .word " + cases[e]);
        if (plant_oob)
            // The slot past the table the planted index hits: a
            // code address again, so execution continues sanely
            // after the harness stops verifying.
            data.push_back("    .word " + join);
    }

    /** Call with a genuine save/restore frame; may nest one deep. */
    void
    callSegment(bool allow_nest)
    {
        const std::string f = lbl("func");
        const std::string inner_name =
            allow_nest && rng.bernoulli(0.4) ? lbl("func") : "";

        emit("addi r5, r0, " +
             std::to_string(rng.uniformInt(100)));
        emit("jal  ra, " + f);
        emit("add  r9, r5, r9");

        funcs.push_back(f + ":");
        funcs.push_back("    addi sp, sp, -8");
        funcs.push_back("    sw   r5, 0(sp)");
        funcs.push_back("    sw   ra, 4(sp)");
        funcs.push_back("    addi r5, r5, 3");
        if (!inner_name.empty())
            funcs.push_back("    jal  ra, " + inner_name);
        funcs.push_back("    lw   r5, 0(sp)");
        funcs.push_back("    lw   ra, 4(sp)");
        funcs.push_back("    addi sp, sp, 8");
        funcs.push_back("    ret");
        if (!inner_name.empty()) {
            funcs.push_back(inner_name + ":");
            funcs.push_back("    addi sp, sp, -4");
            funcs.push_back("    sw   r5, 0(sp)");
            funcs.push_back("    addi r5, r0, 1");
            funcs.push_back("    lw   r5, 0(sp)");
            funcs.push_back("    addi sp, sp, 4");
            funcs.push_back("    ret");
        }
    }

    /** Divide by a masked-nonzero divisor, or a planted zero. */
    void
    divSegment()
    {
        const std::string v = newWord(
            static_cast<std::uint32_t>(rng.uniformInt(1000)));
        emit("li   r6, " + v);
        emit("lw   r6, 0(r6)");
        if (rng.bernoulli(0.12)) {
            emit(rng.bernoulli(0.5) ? "div  r7, r6, r0"
                                    : "rem  r7, r6, r0");
        } else {
            emit("andi r7, r6, 15");
            emit("addi r7, r7, 1");
            emit(rng.bernoulli(0.5) ? "div  r8, r6, r7"
                                    : "rem  r8, r6, r7");
        }
    }

    /** Masked-index load from an array; the array may deliberately
     * never be stored to (planted uninit-load). */
    void
    maskedLoad(bool plant_uninit)
    {
        const unsigned mask = rng.bernoulli(0.5) ? 12 : 28;
        const std::string a = newArray(mask + 4);
        const std::string idx = newWord(
            static_cast<std::uint32_t>(rng.uniformInt(256)));
        emit("li   r4, " + a);
        emit("li   r6, " + idx);
        emit("lw   r6, 0(r6)");
        emit("andi r6, r6, " + std::to_string(mask));
        if (!plant_uninit) {
            // Initialise the slot about to be read (and the check
            // that every store is bounded needs it anyway).
            emit("add  r3, r4, r6");
            emit("sw   r5, 0(r3)");
        }
        emit("add  r3, r4, r6");
        emit("lw   r9, 0(r3)");
    }

    /** Planted misaligned or out-of-section access. */
    void
    plantedAccess()
    {
        if (rng.bernoulli(0.5)) {
            const std::string v = newWord(7);
            emit("li   r6, " + v);
            emit("addi r6, r6, 1");
            emit(rng.bernoulli(0.5) ? "lh   r7, 0(r6)"
                                    : "lw   r7, 0(r6)");
        } else {
            emit("li   r6, " +
                 std::to_string(0x200000 +
                                4 * rng.uniformInt(1000)));
            emit(rng.bernoulli(0.5) ? "sw   r5, 0(r6)"
                                    : "lw   r7, 0(r6)");
        }
    }
};

AssembledProgram
generateStructured(Rng &rng)
{
    SrcGen g(rng);
    const unsigned nseg =
        static_cast<unsigned>(rng.uniformRange(2, 5));
    g.emit("li   sp, 0x80000");
    g.emit("addi r9, r0, 0");
    g.emit("addi r5, r0, 1");
    for (unsigned s = 0; s < nseg; ++s) {
        switch (rng.uniformInt(7)) {
          case 0: g.countedLoop(); break;
          case 1: g.nestedLoop(); break;
          case 2: g.jumpTable(); break;
          case 3: g.callSegment(s == 0); break;
          case 4: g.divSegment(); break;
          case 5: g.maskedLoad(rng.bernoulli(0.12)); break;
          default:
            if (rng.bernoulli(0.2))
                g.plantedAccess();
            else
                g.countedLoop();
            break;
        }
    }
    std::string src = ".org 0x1000\nstart:\n";
    for (const std::string &l : g.code)
        src += l + "\n";
    src += "    halt\n";
    for (const std::string &l : g.funcs)
        src += l + "\n";
    for (const std::string &l : g.data)
        src += l + "\n";
    return assemble(src, "<generated>");
}

// ----------------------------------------------------------------
// Soup generator: random ALU, memory, branch and jal words. It emits
// no jalr, whose target analysis could not resolve, so most programs
// stay analysable.
// ----------------------------------------------------------------

unsigned
randomReg(Rng &rng, bool allow_r0)
{
    for (;;) {
        const auto r = static_cast<unsigned>(rng.uniformInt(32));
        if (r == reg_window || r == reg_code)
            continue;
        if (r == 0 && !allow_r0)
            continue;
        return r;
    }
}

AssembledProgram
generateSoup(Rng &rng)
{
    const auto n = static_cast<unsigned>(rng.uniformRange(8, 64));
    std::vector<std::uint32_t> words;
    words.reserve(n + 1);

    auto target_offset = [&](unsigned i) {
        const auto target =
            static_cast<std::int32_t>(rng.uniformInt(n + 1));
        return target - static_cast<std::int32_t>(i) - 1;
    };

    for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t roll = rng.uniformInt(100);
        Instruction inst;
        if (roll < 30) {
            static constexpr Opcode pool[] = {
                Opcode::Add, Opcode::Sub, Opcode::And, Opcode::Or,
                Opcode::Xor, Opcode::Sll, Opcode::Srl, Opcode::Sra,
                Opcode::Slt, Opcode::Sltu, Opcode::Mul, Opcode::Div,
                Opcode::Rem};
            inst = Instruction::r(
                pool[rng.uniformInt(std::size(pool))],
                randomReg(rng, rng.bernoulli(0.05)),
                static_cast<unsigned>(rng.uniformInt(32)),
                static_cast<unsigned>(rng.uniformInt(32)));
        } else if (roll < 55) {
            static constexpr Opcode pool[] = {
                Opcode::Addi, Opcode::Andi, Opcode::Ori,
                Opcode::Xori, Opcode::Slti, Opcode::Slli,
                Opcode::Srli, Opcode::Srai, Opcode::Lui};
            const Opcode op = pool[rng.uniformInt(std::size(pool))];
            std::int32_t imm;
            if (op == Opcode::Slli || op == Opcode::Srli ||
                op == Opcode::Srai)
                imm = static_cast<std::int32_t>(rng.uniformInt(32));
            else
                imm = static_cast<std::int32_t>(
                          rng.uniformInt(0x10000)) -
                      0x8000;
            inst = Instruction::i(
                op, randomReg(rng, rng.bernoulli(0.05)),
                static_cast<unsigned>(rng.uniformInt(32)), imm);
        } else if (roll < 68) {
            static constexpr Opcode pool[] = {
                Opcode::Lb, Opcode::Lbu, Opcode::Lh, Opcode::Lhu,
                Opcode::Lw};
            const Opcode op = pool[rng.uniformInt(std::size(pool))];
            const unsigned size = accessSize(op);
            std::int32_t off = static_cast<std::int32_t>(
                rng.uniformInt(data_window - 4));
            if (!rng.bernoulli(0.05))
                off &= ~static_cast<std::int32_t>(size - 1);
            inst = Instruction::i(
                op, randomReg(rng, rng.bernoulli(0.05)),
                reg_window, off);
        } else if (roll < 80) {
            static constexpr Opcode pool[] = {Opcode::Sb, Opcode::Sh,
                                              Opcode::Sw};
            const Opcode op = pool[rng.uniformInt(std::size(pool))];
            const unsigned size = accessSize(op);
            std::int32_t off = static_cast<std::int32_t>(
                rng.uniformInt(data_window - 4));
            if (!rng.bernoulli(0.05))
                off &= ~static_cast<std::int32_t>(size - 1);
            inst = Instruction::i(
                op, static_cast<unsigned>(rng.uniformInt(32)),
                reg_window, off);
        } else if (roll < 92) {
            static constexpr Opcode pool[] = {
                Opcode::Beq, Opcode::Bne, Opcode::Blt, Opcode::Bge,
                Opcode::Bltu, Opcode::Bgeu};
            inst = Instruction::branch(
                pool[rng.uniformInt(std::size(pool))],
                static_cast<unsigned>(rng.uniformInt(32)),
                static_cast<unsigned>(rng.uniformInt(32)),
                target_offset(i));
        } else if (roll < 96) {
            inst = Instruction::jal(rng.bernoulli(0.5) ? 31u : 0u,
                                    target_offset(i));
        } else if (roll < 98) {
            words.push_back(0xf4000000u |
                            static_cast<std::uint32_t>(
                                rng.uniformInt(0x10000)));
            continue;
        } else {
            if (rng.bernoulli(0.5))
                inst = Instruction::halt();
            else
                inst.op = Opcode::Sync;
        }
        words.push_back(inst.encode());
    }
    words.push_back(Instruction::halt().encode());

    AssembledProgram prog;
    prog.entry = code_base;
    for (std::size_t i = 0; i < words.size(); ++i) {
        const Addr a = code_base + 4 * i;
        prog.words[a] = words[i];
        prog.source_map.instr_lines[a] =
            static_cast<unsigned>(i + 1);
    }
    return prog;
}

// ----------------------------------------------------------------
// Verification harness
// ----------------------------------------------------------------

struct Totals
{
    std::uint64_t programs = 0;
    std::uint64_t nontop = 0;
    std::uint64_t aborted = 0;  ///< wild return / table escape
    std::uint64_t steps = 0;
    std::uint64_t containment_checks = 0;
    std::uint64_t violations = 0;
    std::uint64_t false_positives = 0;
    std::map<std::string, std::uint64_t> verified;
};

void
dumpProgram(const AssembledProgram &prog)
{
    for (const auto &[addr, word] : prog.words) {
        bool ok = true;
        const Instruction inst = Instruction::decode(word, &ok);
        std::fprintf(stderr, "  0x%05" PRIx64 ": %08x  %s\n", addr,
                     word,
                     ok ? inst.disassemble().c_str()
                        : "<undecodable>");
    }
}

/** Verify one program. @return false on any soundness failure. */
bool
verifyProgram(const AssembledProgram &asmprog, Rng &rng,
              std::uint64_t index, Totals &totals)
{
    Program prog = Program::build(asmprog);
    if (prog.size() == 0)
        return true;
    Cfg cfg = Cfg::build(prog);
    Dataflow df = Dataflow::build(prog, cfg);
    StaticCharacterization chr = characterize(prog, cfg, df);
    AbsInt ai = AbsInt::build(prog, cfg, df, chr);
    annotateRanges(prog, chr, ai);
    const auto diags = lint(prog, cfg, df, chr, ai);
    if (!ai.topMode())
        ++totals.nontop;

    // Provable diagnostics by instruction address.
    static const std::set<std::string> provable = {
        "div-by-zero", "oob-access", "jump-oob", "misaligned",
        "uninit-load"};
    std::map<Addr, std::vector<const Diagnostic *>> checks;
    for (const Diagnostic &d : diags)
        if (provable.contains(d.id))
            checks[d.addr].push_back(&d);

    // Assembled sections for the oob predicate.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sect;
    for (const auto &[a, w] : asmprog.words) {
        (void)w;
        sect.emplace_back(a, a + 4);
    }
    for (const auto &[b, e] : asmprog.source_map.space_regions)
        sect.emplace_back(b, e);

    // Jump tables by load-instruction address.
    std::map<Addr, const JumpTable *> table_of;
    for (const JumpTable &jt : cfg.jumpTables())
        table_of[prog.instr(jt.load_instr).addr] = &jt;

    BackingStore mem;
    asmprog.loadInto(mem);
    Interpreter cpu(mem);
    cpu.setPc(asmprog.entry);
    cpu.state().setReg(reg_window,
                       static_cast<std::uint32_t>(data_base));
    cpu.state().setReg(reg_code,
                       static_cast<std::uint32_t>(asmprog.entry));
    for (unsigned r = 1; r <= 8; ++r)
        cpu.state().setReg(r,
                           static_cast<std::uint32_t>(rng()));

    std::set<Addr> stored;  ///< every byte some store has written
    std::vector<Addr> shadow;  ///< return addresses of live calls

    auto fail = [&](const std::string &what, Addr pc) {
        std::fprintf(stderr,
                     "FAILURE in program %" PRIu64
                     " at pc 0x%llx: %s\n",
                     index,
                     static_cast<unsigned long long>(pc),
                     what.c_str());
        dumpProgram(asmprog);
        return false;
    };

    for (std::uint64_t s = 0; s < step_budget; ++s) {
        const Addr pc = cpu.state().pc;
        const std::size_t idx = prog.indexOf(pc);
        if (idx == Program::npos)
            break;  // fell outside the program image
        const InstrRecord &rec = prog.instr(idx);

        // (a) containment of every register in its static range.
        for (unsigned r = 0; r < 32; ++r) {
            ++totals.containment_checks;
            if (!ai.before(idx, r).contains(
                    cpu.state().reg(r))) {
                ++totals.violations;
                return fail(
                    "r" + std::to_string(r) + " = " +
                        std::to_string(cpu.state().reg(r)) +
                        " outside static range " +
                        ai.before(idx, r).str(),
                    pc);
            }
        }

        const Instruction &in = rec.inst;
        const std::uint32_t a = cpu.state().reg(in.rs1);
        const std::uint32_t ea =
            a + static_cast<std::uint32_t>(in.imm);
        const unsigned size =
            rec.decoded && (isLoad(in.op) || isStore(in.op))
                ? accessSize(in.op)
                : 0;

        // (b) each provable diagnostic is dynamically true.
        auto it = checks.find(pc);
        if (it != checks.end() && rec.decoded) {
            for (const Diagnostic *d : it->second) {
                bool ok = true;
                if (d->id == "div-by-zero") {
                    ok = cpu.state().reg(in.rs2) == 0;
                } else if (d->id == "misaligned") {
                    ok = size > 1 && ea % size != 0;
                } else if (d->id == "oob-access") {
                    for (const auto &[sb, se] : sect)
                        if (sb < ea + size && ea < se)
                            ok = false;
                } else if (d->id == "jump-oob") {
                    const JumpTable *jt = table_of[pc];
                    ok = jt != nullptr &&
                         (ea + 4 <= jt->begin || ea >= jt->end);
                } else if (d->id == "uninit-load") {
                    for (unsigned b = 0; b < size; ++b)
                        if (stored.contains(ea + b))
                            ok = false;
                }
                if (!ok) {
                    ++totals.false_positives;
                    return fail("diagnostic [" + d->id +
                                    "] is dynamically false",
                                pc);
                }
                ++totals.verified[d->id];
            }
        }

        // Contract boundaries: stop verifying at the first wild
        // return or out-of-table index load.
        if (rec.decoded) {
            auto ti = table_of.find(pc);
            if (ti != table_of.end() &&
                (ea < ti->second->begin || ea >= ti->second->end)) {
                ++totals.aborted;
                return true;
            }
            if (in.op == Opcode::Jalr && in.rd == 0 &&
                in.rs1 == 31) {
                const Addr dest = (static_cast<Addr>(a) +
                                   static_cast<std::uint32_t>(
                                       in.imm)) &
                                  ~Addr{3};
                if (shadow.empty() || shadow.back() != dest) {
                    ++totals.aborted;
                    return true;
                }
                shadow.pop_back();
            } else if ((in.op == Opcode::Jal ||
                        in.op == Opcode::Jalr) &&
                       in.rd != 0) {
                shadow.push_back(pc + 4);
            }
        }

        const bool retired = cpu.step();
        ++totals.steps;
        if (rec.decoded && isStore(in.op) &&
            cpu.lastStop() != StopReason::AlignmentFault)
            for (unsigned b = 0; b < size; ++b)
                stored.insert(ea + b);
        if (!retired)
            break;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opt = benchutil::parse(argc, argv, extra_flags);
    const std::uint64_t programs = opt.extra.contains("--programs")
        ? benchutil::parseU64Flag(
              opt.extraOr("--programs", "").c_str(), "--programs",
              argv[0], extra_flags)
        : 1000;
    if (programs == 0)
        benchutil::usageError(argv[0], extra_flags,
                              "--programs must be > 0");
    if (!opt.json())
        benchutil::banner(
            "abstract interpretation vs execution differential "
            "crosscheck",
            opt);

    Rng rng(opt.seed);
    Totals totals;
    std::uint64_t failures = 0;
    for (std::uint64_t i = 0; i < programs; ++i) {
        AssembledProgram prog;
        if (rng.bernoulli(0.55)) {
            prog = generateStructured(rng);
            if (!prog.ok()) {
                std::fprintf(stderr,
                             "generator emitted bad assembly:\n");
                for (const auto &e : prog.errors)
                    std::fprintf(stderr, "  %s\n",
                                 e.format("<generated>").c_str());
                return 2;
            }
        } else {
            prog = generateSoup(rng);
        }
        ++totals.programs;
        if (!verifyProgram(prog, rng, i, totals))
            ++failures;
    }

    const double nontop_frac =
        static_cast<double>(totals.nontop) /
        static_cast<double>(totals.programs);
    const double aborted_frac =
        static_cast<double>(totals.aborted) /
        static_cast<double>(totals.programs);

    if (opt.json()) {
        std::printf("{\n");
        std::printf("  \"programs\": %" PRIu64 ",\n",
                    totals.programs);
        std::printf("  \"nontop\": %" PRIu64 ",\n", totals.nontop);
        std::printf("  \"aborted\": %" PRIu64 ",\n",
                    totals.aborted);
        std::printf("  \"steps\": %" PRIu64 ",\n", totals.steps);
        std::printf("  \"containment_checks\": %" PRIu64 ",\n",
                    totals.containment_checks);
        std::printf("  \"violations\": %" PRIu64 ",\n",
                    totals.violations);
        std::printf("  \"false_positives\": %" PRIu64 ",\n",
                    totals.false_positives);
        std::printf("  \"verified\": {");
        bool first = true;
        for (const auto &[id, n] : totals.verified) {
            std::printf("%s\"%s\": %" PRIu64, first ? "" : ", ",
                        id.c_str(), n);
            first = false;
        }
        std::printf("},\n");
        std::printf("  \"failures\": %" PRIu64 "\n", failures);
        std::printf("}\n");
    } else {
        std::printf("programs analysed : %" PRIu64
                    " (%.0f%% with non-trivial ranges)\n",
                    totals.programs, nontop_frac * 100);
        std::printf("steps verified    : %" PRIu64 " (%" PRIu64
                    " containment checks)\n",
                    totals.steps, totals.containment_checks);
        std::printf("aborted (contract): %" PRIu64 "\n",
                    totals.aborted);
        std::printf("diagnostics held  :");
        for (const auto &[id, n] : totals.verified)
            std::printf(" %s=%" PRIu64, id.c_str(), n);
        std::printf("\n");
        std::printf("violations        : %" PRIu64 "\n",
                    totals.violations);
        std::printf("false positives   : %" PRIu64 "\n",
                    totals.false_positives);
    }

    if (failures != 0) {
        std::fprintf(stderr,
                     "FAIL: %" PRIu64 " unsound program%s\n",
                     failures, failures == 1 ? "" : "s");
        return 1;
    }
    // Self-checks: the fuzz must actually exercise the analysis.
    if (nontop_frac < 0.3) {
        std::fprintf(stderr,
                     "FAIL: only %.0f%% of programs analysed with "
                     "non-trivial ranges\n",
                     nontop_frac * 100);
        return 1;
    }
    if (aborted_frac > 0.2) {
        std::fprintf(stderr,
                     "FAIL: %.0f%% of programs aborted "
                     "verification (contract escapes)\n",
                     aborted_frac * 100);
        return 1;
    }
    if (programs >= 500)
        for (const char *id :
             {"div-by-zero", "misaligned", "oob-access",
              "jump-oob", "uninit-load"})
            if (totals.verified[id] == 0) {
                std::fprintf(stderr,
                             "FAIL: no dynamically verified [%s] "
                             "diagnostic in %" PRIu64 " programs\n",
                             id, programs);
                return 1;
            }
    if (!opt.json())
        std::printf("\nPASS: ranges sound and diagnostics "
                    "dynamically true across %" PRIu64
                    " programs\n",
                    programs);
    return 0;
}
