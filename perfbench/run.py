#!/usr/bin/env python3
"""The memwall benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the perfbench program
and mw-server from the checkout's sources with CMake (Release) into
.bench_build/; later runs reuse that build.

Workloads (see BENCHMARK.json for why each exists):
  spec-missrate   Fig 7/8 miss rates and Tables 1/3/4, serial passes;
                  not listed in BENCHMARK.json: its memory-bound
                  simulation slows by up to 1.7x for minutes at a time
                  under memory contention from other tenants of a shared
                  machine, more than the gate's bounds allow
  splash-mp       Figs 13-17, every arch x cpu point, serial passes
  server-catalog  closed-loop request mix against the mw-server daemon

With --trace 0 the last stdout line carries every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric. The line before
it is a human-readable summary with provenance; the program's spans go
to .bench_build/perfbench-traces/. Documents that do not depend on the
seed are checked against digests.json; everything else is checked by
perfbench itself (independent renders, SPLASH checksums).

End-to-end metrics, per workload (batch = spec-missrate, splash-mp):
  setup_s         batch: process start to "ready", median of 15 spawns;
                  server: daemon spawn to first ping, median of 9; in
                  both, about half the samples before the run, half after
  pass_s          batch: one pass over every point; each point's median
                  over the run's passes, summed. server: seconds per 100
                  completed operations (one block of the mix)
  sim_refs_per_s  simulated references per host second (SPEC refs
                  generated, SPLASH data accesses, refs of fresh
                  server responses)
  req_per_s       documents (batch) or requests (server) per second
  op_p50_ms/p90   batch: percentiles of the per-point medians; server:
                  run-request latency over the whole run
  peak_rss_mb     batch: perfbench's; server: the daemon's after the
                  first 2000 operations
Nothing is pinned: the programs run on every processor, as users run
them. failed/attempted is printed as fail_frac in the summary line,
with pass_cpu_s, the median CPU seconds of a pass (batch workloads).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "perfbench-traces"
WORKLOADS = ("spec-missrate", "splash-mp", "server-catalog")
# A seed kept out of tuning, for confirming a later claim.
HELD_OUT_SEED = 104729
SETUP_SAMPLES = 15
RUN_TIMEOUT_S = 170


def fail(why):
    print(f"perfbench: {why}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the build up to date."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def bench_cmd(args, work_dir):
    return [str(BUILD / "perfbench"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work-dir", work_dir,
            "--server-bin", str(BUILD / "mw-server")]


def setup_samples(args, work_dir, count):
    """Process start to first timed operation (batch workloads):
    perfbench does its set-up, prints "ready" and exits."""
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(bench_cmd(args, work_dir) + ["--setup-only"],
                                cwd=ROOT, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - t0)
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            fail("set-up probe failed")
    return samples


def run_bench(args, work_dir):
    """Run perfbench in its own process group, so a timeout also stops
    the mw-server daemons it spawned."""
    proc = subprocess.Popen(bench_cmd(args, work_dir), cwd=ROOT,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"perfbench exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    return json.loads(lines[-1])


def check_documents(report, digests):
    """Seed-independent documents against the kept digests."""
    bad = []
    for name, digest in report["documents"]:
        if digests.get(name) != digest:
            bad.append(f"{name} digest {digest} != {digests.get(name)}")
    return bad


def summary(args, spec, report, metrics, failed, attempted):
    notes = report["notes"]
    parts = [f"workload={args.workload}", f"seed={args.seed}",
             f"held_out_seed={HELD_OUT_SEED}", f"trace={args.trace}"]
    for key in ("nproc", "compiler", "build_type", "optimized", "build_id",
                "passes", "points", "pass_cpu_s", "requests", "clients",
                "hits",
                "misses"):
        if key in notes:
            parts.append(f"{key}={notes[key]}")
    if notes.get("optimized") != "true":
        parts.append("WARNING=non-optimised build measures a different "
                     "program")
    shown = [m["name"] for m in spec]
    if args.trace == 0 and args.workload == "server-catalog":
        shown += ["server.hit_p50_ms", "server.hit_p99_ms",
                  "server.miss_p50_ms", "server.miss_p90_ms"]
    for name in shown:
        m = report["metrics"].get(name) or metrics.get(name)
        if m:
            parts.append(f"{name}={m['value']:.6g}[{m['unit']}]")
    parts.append(f"fail_frac={failed / attempted:.6g}")
    return "# " + " ".join(parts)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["per_layer" if args.trace else "end_to_end"]
    digests = json.loads((HERE / "digests.json").read_text())
    build()

    work = (Path(".bench_build") / "perfbench-run" /
            f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(ROOT / work, ignore_errors=True)
    try:
        # Half the set-up samples before the run and half after it, so
        # a short slow phase of the host does not move them all.
        timed = args.workload != "server-catalog" and not args.trace
        setup = []
        if timed:
            setup += setup_samples(args, str(work), SETUP_SAMPLES // 2 + 1)
        report = run_bench(args, str(work))
        if timed:
            setup += setup_samples(args, str(work), SETUP_SAMPLES // 2)
        trace = report["notes"].get("trace_file")
        if trace:
            TRACES.mkdir(parents=True, exist_ok=True)
            shutil.move(str(ROOT / trace), str(TRACES / Path(trace).name))
    finally:
        shutil.rmtree(ROOT / work, ignore_errors=True)

    if setup:
        report["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
    bad = check_documents(report, digests)
    failures = report["failures"] + bad
    attempted = max(1, report["attempted"])
    failed = min(attempted, report["failed"] + len(bad))

    metrics = {}
    for m in spec:
        got = report["metrics"].get(m["name"])
        if got is None:
            fail(f"perfbench did not measure {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} in {got['unit']}, expected {m['unit']}")
        metrics[m["name"]] = got
    for why in failures:
        print(f"# FAILED: {why}")
    print(summary(args, spec, report, metrics, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
