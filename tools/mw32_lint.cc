/**
 * @file
 * mw32-lint — static analysis of MW32 assembly programs.
 *
 *   mw32-lint [options] prog.mw32s [more.mw32s ...]
 *
 * options:
 *   --error-on=ID[,ID...]  promote diagnostics to errors ("all")
 *   --cfg                  dump basic blocks, edges and loops
 *   --charact              dump the static workload characterization
 *   --ranges               dump abstract value ranges (loop IVs and
 *                          memory effective addresses)
 *   --format=json          machine-readable diagnostics + ranges
 *   -q                     suppress the per-file summary line
 *
 * Exit status: 2 on assembly failure or bad usage, 1 if any
 * diagnostic of Severity::Error was emitted, else 0.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/absint.hh"
#include "analysis/charact.hh"
#include "analysis/lint.hh"
#include "common/json_text.hh"
#include "isa/assembler.hh"

using namespace memwall;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mw32-lint [--error-on=ID[,ID...]] [--cfg] "
        "[--charact] [--ranges] [--format=json] [-q] "
        "prog.mw32s ...\n       IDs:");
    for (const std::string &id : lintIds())
        std::fprintf(stderr, " %s", id.c_str());
    std::fprintf(stderr, " all\n");
    return 2;
}

void
dumpCfg(const Program &prog, const Cfg &cfg)
{
    std::printf("; %zu blocks, %zu loops%s\n", cfg.size(),
                cfg.loops().size(),
                cfg.irreducible() ? ", irreducible" : "");
    for (const BasicBlock &bb : cfg.blocks()) {
        std::printf("; bb%u [0x%llx..0x%llx] lines %u..%u ->", bb.id,
                    static_cast<unsigned long long>(
                        prog.instr(bb.first).addr),
                    static_cast<unsigned long long>(
                        prog.instr(bb.last).addr),
                    prog.line(bb.first), prog.line(bb.last));
        for (unsigned s : bb.succs)
            std::printf(" bb%u", s);
        if (bb.is_exit)
            std::printf(" exit");
        if (bb.has_unknown_succ)
            std::printf(" ?");
        if (!cfg.reachable()[bb.id])
            std::printf(" (unreachable)");
        std::printf("\n");
    }
    for (const Loop &l : cfg.loops())
        std::printf("; loop header bb%u depth %u (%zu blocks)\n",
                    l.header, l.depth, l.blocks.size());
}

void
dumpCharact(const StaticCharacterization &chr)
{
    std::printf("; mix: %.1f alu, %.1f load, %.1f store, %.1f "
                "branch, %.1f jump, %.1f other (%s)\n",
                chr.counts.alu, chr.counts.load, chr.counts.store,
                chr.counts.branch, chr.counts.jump, chr.counts.other,
                chr.counts_exact ? "exact" : "approximate");
    for (const LoopChar &l : chr.loops) {
        if (l.trip)
            std::printf("; loop line %u depth %u trip %llu (%llu "
                        "static instrs)\n",
                        l.header_line, l.depth,
                        static_cast<unsigned long long>(l.trip),
                        static_cast<unsigned long long>(
                            l.body_instrs));
        else
            std::printf("; loop line %u depth %u trip unknown\n",
                        l.header_line, l.depth);
    }
    for (const MemOpChar &m : chr.memops) {
        const char *kind =
            m.kind == MemOpChar::Kind::Constant   ? "constant"
            : m.kind == MemOpChar::Kind::Strided  ? "strided"
                                                  : "unknown";
        std::printf("; %s line %u: %s", m.is_store ? "store" : "load",
                    m.line, kind);
        if (m.kind == MemOpChar::Kind::Strided)
            std::printf(" stride %lld",
                        static_cast<long long>(m.stride));
        if (m.region_known)
            std::printf(" region [0x%llx, 0x%llx)",
                        static_cast<unsigned long long>(
                            m.region_begin),
                        static_cast<unsigned long long>(
                            m.region_end));
        std::printf("\n");
    }
    std::printf("; footprint: %llu bytes%s\n",
                static_cast<unsigned long long>(chr.footprint_bytes),
                chr.footprint_known ? "" : " (incomplete)");
}

void
dumpRanges(const StaticCharacterization &chr, const AbsInt &ai)
{
    if (ai.topMode()) {
        std::printf("; ranges: top (unbounded control flow)\n");
        return;
    }
    for (const LoopChar &l : chr.loops) {
        if (!l.trip_sound)
            continue;
        for (const LoopIv &iv : l.ivs)
            std::printf("; ranges: loop line %u r%u = %lld + "
                        "k*%lld, k <= %llu\n",
                        l.header_line, iv.reg,
                        static_cast<long long>(iv.init),
                        static_cast<long long>(iv.step),
                        static_cast<unsigned long long>(l.trip));
    }
    for (const MemOpChar &m : chr.memops)
        std::printf("; ranges: %s line %u ea %s\n",
                    m.is_store ? "store" : "load", m.line,
                    ai.addressRange(m.instr).str().c_str());
    if (chr.footprint_bounded)
        std::printf("; ranges: footprint <= %llu bytes\n",
                    static_cast<unsigned long long>(
                        chr.footprint_bound_bytes));
}

void
printJson(const std::string &file,
          const std::vector<Diagnostic> &diags,
          const StaticCharacterization &chr, const AbsInt &ai,
          bool last)
{
    std::printf("  {\n    \"file\": \"%s\",\n",
                jsontext::escape(file).c_str());
    std::printf("    \"top_mode\": %s,\n",
                ai.topMode() ? "true" : "false");
    std::printf("    \"diagnostics\": [");
    for (std::size_t i = 0; i < diags.size(); ++i) {
        const Diagnostic &d = diags[i];
        std::printf(
            "%s\n      {\"id\": \"%s\", \"severity\": \"%s\", "
            "\"line\": %u, \"addr\": %llu, \"message\": \"%s\"}",
            i ? "," : "", jsontext::escape(d.id).c_str(),
            d.severity == Severity::Error ? "error" : "warning",
            d.line, static_cast<unsigned long long>(d.addr),
            jsontext::escape(d.message).c_str());
    }
    std::printf("%s],\n", diags.empty() ? "" : "\n    ");
    std::printf("    \"loops\": [");
    bool first = true;
    for (const LoopChar &l : chr.loops) {
        std::printf("%s\n      {\"line\": %u, \"depth\": %u, "
                    "\"trip\": %llu, \"trip_sound\": %s, "
                    "\"ivs\": [",
                    first ? "" : ",", l.header_line, l.depth,
                    static_cast<unsigned long long>(l.trip),
                    l.trip_sound ? "true" : "false");
        for (std::size_t i = 0; i < l.ivs.size(); ++i)
            std::printf("%s{\"reg\": %u, \"init\": %lld, "
                        "\"step\": %lld}",
                        i ? ", " : "", l.ivs[i].reg,
                        static_cast<long long>(l.ivs[i].init),
                        static_cast<long long>(l.ivs[i].step));
        std::printf("]}");
        first = false;
    }
    std::printf("%s],\n", first ? "" : "\n    ");
    std::printf("    \"memops\": [");
    first = true;
    for (const MemOpChar &m : chr.memops) {
        std::printf("%s\n      {\"line\": %u, \"store\": %s, "
                    "\"size\": %u, \"ea\": \"%s\"",
                    first ? "" : ",", m.line,
                    m.is_store ? "true" : "false", m.size,
                    jsontext::escape(ai.addressRange(m.instr).str())
                        .c_str());
        if (m.range_known)
            std::printf(", \"range\": [%llu, %llu]",
                        static_cast<unsigned long long>(
                            m.range_begin),
                        static_cast<unsigned long long>(
                            m.range_end));
        std::printf("}");
        first = false;
    }
    std::printf("%s],\n", first ? "" : "\n    ");
    std::printf("    \"footprint_bounded\": %s,\n",
                chr.footprint_bounded ? "true" : "false");
    std::printf("    \"footprint_bound_bytes\": %llu\n",
                static_cast<unsigned long long>(
                    chr.footprint_bound_bytes));
    std::printf("  }%s\n", last ? "" : ",");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string error_on;
    bool show_cfg = false, show_charact = false, quiet = false;
    bool show_ranges = false, json = false;
    int nerrors = 0;
    std::vector<const char *> files;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--error-on=", 11) == 0) {
            if (!error_on.empty())
                error_on += ",";
            error_on += arg + 11;
            continue;
        }
        if (std::strcmp(arg, "--cfg") == 0) {
            show_cfg = true;
            continue;
        }
        if (std::strcmp(arg, "--charact") == 0) {
            show_charact = true;
            continue;
        }
        if (std::strcmp(arg, "--ranges") == 0) {
            show_ranges = true;
            continue;
        }
        if (std::strcmp(arg, "--format=json") == 0) {
            json = true;
            continue;
        }
        if (std::strcmp(arg, "--format=text") == 0) {
            json = false;
            continue;
        }
        if (std::strcmp(arg, "-q") == 0) {
            quiet = true;
            continue;
        }
        if (arg[0] == '-')
            return usage();
        files.push_back(arg);
    }
    if (files.empty())
        return usage();

    if (json)
        std::printf("[\n");
    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        const char *arg = files[fi];
        std::ifstream is(arg);
        if (!is) {
            std::fprintf(stderr, "mw32-lint: cannot open '%s'\n",
                         arg);
            return 2;
        }
        std::ostringstream ss;
        ss << is.rdbuf();

        AssembledProgram asmprog = assemble(ss.str(), arg);
        if (!asmprog.ok()) {
            for (const auto &e : asmprog.errors)
                std::fprintf(stderr, "%s\n",
                             e.format(arg).c_str());
            return 2;
        }

        Program prog = Program::build(asmprog);
        Cfg cfg = Cfg::build(prog);
        Dataflow df = Dataflow::build(prog, cfg);
        StaticCharacterization chr = characterize(prog, cfg, df);
        AbsInt ai = AbsInt::build(prog, cfg, df, chr);
        annotateRanges(prog, chr, ai);

        auto diags = lint(prog, cfg, df, chr, ai);
        if (!promoteErrors(diags, error_on)) {
            std::fprintf(stderr,
                         "mw32-lint: unknown ID in --error-on=%s\n",
                         error_on.c_str());
            return usage();
        }

        int ferr = 0, fwarn = 0;
        for (const Diagnostic &d : diags)
            if (d.severity == Severity::Error)
                ++ferr;
            else
                ++fwarn;
        nerrors += ferr;

        if (json) {
            printJson(arg, diags, chr, ai,
                      fi + 1 == files.size());
            continue;
        }
        if (show_cfg)
            dumpCfg(prog, cfg);
        if (show_charact)
            dumpCharact(chr);
        if (show_ranges)
            dumpRanges(chr, ai);
        for (const Diagnostic &d : diags)
            std::printf("%s\n", d.format(arg).c_str());
        if (!quiet)
            std::printf("%s: %d error(s), %d warning(s)\n", arg,
                        ferr, fwarn);
    }
    if (json)
        std::printf("]\n");
    return nerrors != 0 ? 1 : 0;
}
