#!/usr/bin/env python3
"""bench/perf_ledger.py --compare on two hand-written ledgers.

tests/perf_ledger/{old,new}.json hold one entry per case of the
SLOWER rule (more than 10% slower than OLD's median AND above OLD's
upper quartile):
  fig7  full j1  20% slower, outside a tight IQR     -> flagged
  fig8  full j1  20% slower, inside a wide IQR       -> not flagged
  table3 full j1  5.6% slower, outside a tight IQR   -> not flagged
  table4 full j4  2x faster                          -> not flagged
  fig13 / fig14   in one ledger only                 -> reported only

Run: python3 tests/test_perf_ledger.py
"""

import io
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
LEDGER = os.path.join(HERE, "..", "bench", "perf_ledger.py")
OLD = os.path.join(HERE, "perf_ledger", "old.json")
NEW = os.path.join(HERE, "perf_ledger", "new.json")


class CompareTest(unittest.TestCase):
    def test_flags_exactly_the_slower_entry(self):
        sys.path.insert(0, os.path.dirname(LEDGER))
        import perf_ledger
        out = io.StringIO()
        flagged = perf_ledger.compare(OLD, NEW, out=out)
        self.assertEqual(flagged, ["fig7_icache_miss full j1"])
        text = out.getvalue()
        self.assertIn("only in", text)
        self.assertIn("fig13_lu quick j1", text)
        self.assertIn("fig14_mp3d quick j1", text)
        self.assertEqual(text.count("SLOWER"), 1)

    def test_cli_exit_status(self):
        slower = subprocess.run(
            [sys.executable, LEDGER, "--compare", OLD, NEW],
            capture_output=True, text=True)
        self.assertEqual(slower.returncode, 1, slower.stderr)
        self.assertIn("1 entry slower", slower.stdout)
        # NEW against itself flags nothing.
        same = subprocess.run(
            [sys.executable, LEDGER, "--compare", NEW, NEW],
            capture_output=True, text=True)
        self.assertEqual(same.returncode, 0, same.stdout)
        self.assertIn("0 entries slower", same.stdout)


if __name__ == "__main__":
    unittest.main()
