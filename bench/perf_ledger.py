#!/usr/bin/env python3
"""Performance ledger of the memwall benches (BENCH_*.json).

Record a ledger from the bench binaries of one build directory:

    bench/perf_ledger.py BUILD_DIR --out BENCH_name.json

runs the ten catalog benches plus fig11, fig12, sec56 and
validation_cpi_crosscheck at --quick and full size, at --jobs 1 and
--jobs 4, five times each, printing each run's wall time to stderr.
The repetitions are interleaved (every entry runs once per round, in
a fixed order), so a host that drifts for minutes at a time spreads
its drift over all entries instead of biasing one.
Each run's wall time comes from the clock around fork/wait; user and
sys seconds and minor faults come from os.wait4's rusage. The ledger
keeps every sample plus its median and quartiles, the host (nproc,
CPU model), the compiler and build type from the build's CMake cache,
the source tree's `git describe`, and a build id (a hash of the
binaries that ran).

Compare two ledgers:

    bench/perf_ledger.py --compare OLD.json NEW.json

prints every entry the two share with its wall-time ratio and flags an
entry as SLOWER when NEW's median wall time is more than 10% above
OLD's median AND above OLD's upper quartile, i.e. outside OLD's IQR.
Exit status 1 when any entry is flagged, 0 otherwise.

Standard library only.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

BENCHES = [
    "fig7_icache_miss",
    "fig8_dcache_miss",
    "table1_ss5_vs_ss10",
    "table3_spec_estimates",
    "table4_spec_estimates_vc",
    "fig13_lu",
    "fig14_mp3d",
    "fig15_ocean",
    "fig16_water",
    "fig17_pthor",
    "fig11_cache_latency_impact",
    "fig12_memory_latency_impact",
    "sec56_bank_sweep",
    "validation_cpi_crosscheck",
]

SIZES = ("quick", "full")
JOBS = (1, 4)
REPS = 5
METRICS = ("wall_s", "user_s", "sys_s", "minflt")

# --compare flags NEW when its median is this much above OLD's median
# and above OLD's upper quartile.
SLOWER_RATIO = 1.10


def entry_key(entry):
    return "%s %s j%d" % (entry["bench"], entry["size"], entry["jobs"])


def summarize(samples):
    """Median and quartiles of a list of numbers."""
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "samples": samples}


def run_once(binary, args):
    """Run one bench to completion; return its rusage numbers."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([binary] + args,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen, or it would wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.exit("perf_ledger: %s %s exited %d\n%s"
                     % (binary, " ".join(args), proc.returncode,
                        err.read().decode(errors="replace")))
    return {"wall_s": wall, "user_s": usage.ru_utime,
            "sys_s": usage.ru_stime, "minflt": usage.ru_minflt}


def cmake_cache(build_dir):
    cache = {}
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if ":" in line and "=" in line and line[0] not in "#/":
                    name, _, value = line.rstrip("\n").partition("=")
                    cache[name.split(":")[0]] = value
    except OSError:
        pass
    return cache


def first_line(cmd, cwd=None):
    try:
        out = subprocess.run(cmd, cwd=cwd, capture_output=True,
                             text=True, check=True).stdout
        return out.splitlines()[0].strip() if out else ""
    except (OSError, subprocess.CalledProcessError):
        return ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def host_info(build_dir, binaries):
    cache = cmake_cache(build_dir)
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    digest = hashlib.sha256()
    for path in binaries:
        with open(path, "rb") as f:
            digest.update(f.read())
    source = cache.get("CMAKE_HOME_DIRECTORY", "")
    return {
        "host": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                 "platform": platform.platform()},
        "compiler": first_line([compiler, "--version"]) or compiler,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "source": first_line(["git", "describe", "--always", "--dirty"],
                             cwd=source or None),
        "build_id": digest.hexdigest()[:16],
    }


def record(args):
    bench_dir = os.path.join(args.build_dir, "bench")
    binaries = [os.path.join(bench_dir, b) for b in BENCHES]
    for path in binaries:
        if not os.access(path, os.X_OK):
            sys.exit("perf_ledger: no bench binary %s" % path)

    plan = [(b, s, j) for b in BENCHES for s in SIZES for j in JOBS]
    samples = {p: {m: [] for m in METRICS} for p in plan}
    for rep in range(REPS):
        for bench, size, j in plan:
            flags = (["--quick"] if size == "quick" else []) + \
                ["--jobs", str(j)]
            got = run_once(os.path.join(bench_dir, bench), flags)
            for m in METRICS:
                samples[(bench, size, j)][m].append(got[m])
            print("rep %d %s %s j%d: %.3f s" % (rep + 1, bench, size, j,
                                                 got["wall_s"]),
                  file=sys.stderr)

    ledger = host_info(args.build_dir, binaries)
    ledger["reps"] = REPS
    ledger["entries"] = [
        dict({"bench": b, "size": s, "jobs": j},
             **{m: summarize(samples[(b, s, j)][m]) for m in METRICS})
        for b, s, j in plan]
    text = json.dumps(ledger, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def slower(old, new):
    """True when NEW's wall median is >10% above OLD's and above
    OLD's upper quartile."""
    o, n = old["wall_s"], new["wall_s"]
    return n["median"] > SLOWER_RATIO * o["median"] and \
        n["median"] > o["q3"]


def compare(old_path, new_path, out=sys.stdout):
    """Print the comparison; return the keys flagged SLOWER."""
    with open(old_path) as f:
        old = {entry_key(e): e for e in json.load(f)["entries"]}
    with open(new_path) as f:
        new = {entry_key(e): e for e in json.load(f)["entries"]}
    flagged = []
    print("%-44s %10s %10s %8s" % ("entry (wall s, median)", "old",
                                   "new", "speedup"), file=out)
    for key, o in old.items():
        if key not in new:
            print("%-44s only in %s" % (key, old_path), file=out)
            continue
        n = new[key]
        om, nm = o["wall_s"]["median"], n["wall_s"]["median"]
        mark = ""
        if slower(o, n):
            flagged.append(key)
            mark = "  SLOWER (old IQR %.3f-%.3f)" % (o["wall_s"]["q1"],
                                                     o["wall_s"]["q3"])
        print("%-44s %10.3f %10.3f %7.2fx%s"
              % (key, om, nm, om / nm if nm > 0 else 0.0, mark),
              file=out)
    for key in new:
        if key not in old:
            print("%-44s only in %s" % (key, new_path), file=out)
    print("%d entr%s slower" % (len(flagged),
                                "y" if len(flagged) == 1 else "ies"),
          file=out)
    return flagged


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Record or compare BENCH_*.json ledgers.")
    parser.add_argument("build_dir", nargs="?",
                        help="build directory whose bench/ to run")
    parser.add_argument("--out", help="ledger file (default stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    if not args.build_dir:
        parser.error("give a build directory or --compare OLD NEW")
    return record(args)


if __name__ == "__main__":
    sys.exit(main())
