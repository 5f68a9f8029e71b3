/**
 * @file
 * mwasm — assembler / disassembler / runner for MW32 programs.
 *
 *   mwasm asm  prog.s            assemble, print words + symbols
 *   mwasm dis  prog.s            assemble, then disassemble
 *   mwasm run  prog.s [options]  execute on the functional CPU
 *
 * run options (anything else, a flag without its value or a
 * non-numeric --max is a usage error, exit 2):
 *   --max N        instruction budget (default 10M)
 *   --trace F      capture the reference stream to F (MWTR format)
 *   --pim          also time the run on the integrated device
 *   --regs         dump registers at exit
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/parse_unsigned.hh"
#include "core/memwall.hh"

using namespace memwall;

namespace {

[[noreturn]] void
usageError(const std::string &why)
{
    std::fprintf(stderr,
                 "mwasm: %s\n"
                 "usage: mwasm asm|dis prog.s\n"
                 "       mwasm run prog.s [--max N] [--trace F] [--pim] "
                 "[--regs]\n",
                 why.c_str());
    std::exit(2);
}

std::string
slurp(const char *path)
{
    std::ifstream is(path);
    if (!is) {
        std::fprintf(stderr, "mwasm: cannot open '%s'\n", path);
        std::exit(1);
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

AssembledProgram
assembleFile(const char *path)
{
    const AssembledProgram prog = assemble(slurp(path), path);
    if (!prog.ok()) {
        for (const auto &e : prog.errors)
            std::fprintf(stderr, "%s\n", e.format(path).c_str());
        std::exit(1);
    }
    return prog;
}

int
cmdAsm(const char *path)
{
    const AssembledProgram prog = assembleFile(path);
    std::printf("; %zu words, entry 0x%llx\n", prog.words.size(),
                static_cast<unsigned long long>(prog.entry));
    for (const auto &[addr, word] : prog.words)
        std::printf("%08llx: %08x\n",
                    static_cast<unsigned long long>(addr), word);
    std::printf("\n; symbols\n");
    for (const auto &[name, value] : prog.symbols)
        std::printf("%-24s 0x%llx\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    return 0;
}

int
cmdDis(const char *path)
{
    const AssembledProgram prog = assembleFile(path);
    for (const auto &[addr, word] : prog.words) {
        bool ok = true;
        const Instruction inst = Instruction::decode(word, &ok);
        std::printf("%08llx: %08x  %s\n",
                    static_cast<unsigned long long>(addr), word,
                    ok ? inst.disassemble().c_str()
                       : ".word (data)");
    }
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    const char *path = nullptr;
    const char *trace_path = nullptr;
    std::uint64_t max_instr = 10'000'000;
    bool pim = false, regs = false;
    for (int i = 0; i < argc; ++i) {
        const char *arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError(std::string("missing value for ") + arg);
            return argv[++i];
        };
        if (std::strcmp(arg, "--max") == 0) {
            const char *text = value();
            const auto max = parseUnsigned(text);
            if (!max)
                usageError(std::string("invalid value '") + text +
                           "' for --max");
            max_instr = *max;
        } else if (std::strcmp(arg, "--trace") == 0)
            trace_path = value();
        else if (std::strcmp(arg, "--pim") == 0)
            pim = true;
        else if (std::strcmp(arg, "--regs") == 0)
            regs = true;
        else if (arg[0] == '-')
            usageError(std::string("unknown flag '") + arg + "'");
        else if (!path)
            path = arg;
        else
            usageError(std::string("unexpected argument '") + arg +
                       "'");
    }
    if (!path)
        usageError("run: missing input file");

    const AssembledProgram prog = assembleFile(path);
    BackingStore mem;
    prog.loadInto(mem);
    Interpreter cpu(mem);
    cpu.setPc(prog.entry);

    TraceBuffer trace;
    PimDevice device;
    PipelineSim pipeline(device, PipelineConfig{});

    RefSink sink = [&](const MemRef &ref) {
        if (trace_path)
            trace.record(ref);
        if (pim)
            pipeline.consume(ref);
    };
    const bool need_sink = trace_path || pim;
    const StopReason stop =
        cpu.run(max_instr, need_sink ? &sink : nullptr);
    pipeline.drain();

    const char *why = stop == StopReason::Halted ? "halt"
        : stop == StopReason::InstrLimit         ? "instruction limit"
        : stop == StopReason::AlignmentFault     ? "alignment fault"
        : stop == StopReason::DivideByZero       ? "divide by zero"
                                                 : "bad instruction";
    std::printf("stopped: %s after %llu instructions "
                "(%llu loads, %llu stores, %llu branches)\n",
                why,
                static_cast<unsigned long long>(
                    cpu.stats().instructions),
                static_cast<unsigned long long>(cpu.stats().loads),
                static_cast<unsigned long long>(cpu.stats().stores),
                static_cast<unsigned long long>(
                    cpu.stats().branches));

    if (pim) {
        std::printf("integrated device: %.3f CPI, %.1f us at "
                    "200 MHz\n",
                    pipeline.cpi(),
                    device.config().clock.cyclesToNs(
                        pipeline.cycles()) /
                        1000.0);
        const PimDeviceStats stats = device.stats();
        std::printf("  icache %.3f%% miss, dcache %.3f%% miss, "
                    "%llu DRAM accesses\n",
                    100.0 * stats.icache.missRate(),
                    100.0 * stats.dcache.missRate(),
                    static_cast<unsigned long long>(
                        stats.dram_accesses));
    }
    if (trace_path) {
        if (!trace.save(trace_path)) {
            std::fprintf(stderr, "mwasm: cannot write '%s'\n",
                         trace_path);
            return 1;
        }
        std::printf("trace: %zu references -> %s\n", trace.size(),
                    trace_path);
    }
    if (regs) {
        for (unsigned r = 0; r < 32; ++r)
            std::printf("r%-2u = 0x%08x%s", r,
                        cpu.state().reg(r),
                        (r % 4 == 3) ? "\n" : "   ");
    }
    return (stop == StopReason::BadInstruction ||
            stop == StopReason::AlignmentFault ||
            stop == StopReason::DivideByZero)
               ? 1
               : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        usageError("missing command or input file");
    const bool is_asm = std::strcmp(argv[1], "asm") == 0;
    if (is_asm || std::strcmp(argv[1], "dis") == 0) {
        if (argv[2][0] == '-')
            usageError(std::string("unknown flag '") + argv[2] + "'");
        if (argc > 3)
            usageError(std::string("unexpected argument '") + argv[3] +
                       "'");
        return is_asm ? cmdAsm(argv[2]) : cmdDis(argv[2]);
    }
    if (std::strcmp(argv[1], "run") == 0)
        return cmdRun(argc - 2, argv + 2);
    usageError(std::string("unknown command '") + argv[1] + "'");
}
