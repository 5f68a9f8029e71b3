#!/usr/bin/env python3
"""Smoke test of the benchmark's contract and output schema.

    python3 perfbench/test_schema.py        (from the root of a checkout)

Checks BENCHMARK.json against the benchmark contract, runs every
workload briefly and validates the result line against it, runs one
traced workload for the per-layer metrics, and checks that the
benchmark fails cleanly in a directory without the repository's
sources. Takes about half a minute, most of it in the SPLASH pass.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


class Contract(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end",
                                      "per_layer"})
        self.assertLessEqual(len((ROOT / "BENCHMARK.json").read_bytes()),
                             64 * 1024)
        self.assertTrue(1 <= len(BENCH["command"]) <= 32)
        self.assertTrue(all(len(c) <= 200 for c in BENCH["command"]))
        self.assertTrue(1 <= len(BENCH["paths"]) <= 16)
        for p in BENCH["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertIsInstance(BENCH["run_seconds"], int)
        self.assertTrue(1 <= BENCH["run_seconds"] <= 60)
        self.assertTrue(2 <= len(BENCH["workloads"]) <= 8)
        for w in BENCH["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
        self.assertTrue(1 <= len(BENCH["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(BENCH["per_layer"]) <= 128)
        names = [m["name"] for m in BENCH["workloads"] + BENCH["end_to_end"]
                 + BENCH["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        bounds = {}
        for m in BENCH["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25)
            bounds[m["name"]] = m["bound"]
        for m in BENCH["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


def result_of(test, proc, metrics):
    test.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    test.assertEqual(set(result), {"correct", "attempted", "failed",
                                   "metrics"})
    test.assertIs(result["correct"], True, proc.stdout[-3000:])
    test.assertIsInstance(result["attempted"], int)
    test.assertIsInstance(result["failed"], int)
    test.assertGreaterEqual(result["attempted"], 1)
    test.assertEqual(result["failed"], 0)
    test.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
    for m in metrics:
        got = result["metrics"][m["name"]]
        test.assertEqual(set(got), {"value", "unit"})
        test.assertEqual(got["unit"], m["unit"], m["name"])
        test.assertIsInstance(got["value"], (int, float))
        test.assertTrue(math.isfinite(got["value"]), m["name"])
    return result


class Output(unittest.TestCase):
    def test_every_workload_end_to_end(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = run(["--workload", w["name"], "--seed", "3",
                            "--seconds", "1", "--trace", "0"])
                result = result_of(self, proc, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])

    def test_traced_run_per_layer(self):
        proc = run(["--workload", "server-catalog", "--seed", "3",
                    "--seconds", "2", "--trace", "1"])
        result_of(self, proc, BENCH["per_layer"])

    def test_fails_without_sources(self):
        bare = ROOT / ".bench_build" / "schema-test-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in BENCH["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", BENCH["workloads"][0]["name"], "--seed",
                    "1", "--seconds", "1", "--trace", "0"], cwd=bare,
                   timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
