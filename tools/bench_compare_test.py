#!/usr/bin/env python3
"""Unit tests for bench_compare.py (run by ctest as bench_compare_py).

Covers the gate semantics that keep the perf trajectory honest:

  * --strict escalates the stale-baseline and missing-fresh-run warn
    paths to a non-zero exit, so a bench that silently stops running
    fails CI instead of rotting.
  * the zero/absent-baseline division path: a baseline measurement of 0
    (or a non-numeric fresh value) must neither crash the ratio gate nor
    silently drop the field from comparison forever -- it warns, and
    --strict turns that into a failure.
  * correctness-field changes fail regardless of --strict.
  * timing fields that no suffix rule catches (op_scan's faultpoint row)
    are measurements, not correctness fields.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "bench_compare.py"

META = {"compiler": "gcc 12.2.0", "hw_threads": 1}


def doc(bench: str, rows: list[dict]) -> dict:
    return {"bench": bench, "meta": dict(META), "results": rows}


def run(old: Path, new: Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new), *flags],
        capture_output=True, text=True)


class BenchCompareTest(unittest.TestCase):
    def setUp(self) -> None:
        self._tmp = tempfile.TemporaryDirectory()
        root = Path(self._tmp.name)
        self.old_dir = root / "old"
        self.new_dir = root / "new"
        self.old_dir.mkdir()
        self.new_dir.mkdir()

    def tearDown(self) -> None:
        self._tmp.cleanup()

    def write(self, where: Path, name: str, document: dict) -> None:
        (where / name).write_text(json.dumps(document))

    def test_identical_documents_pass_strict(self) -> None:
        d = doc("threads", [{"n": 1000, "t": 2, "median_ms": 2.0,
                             "packed": True}])
        self.write(self.old_dir, "BENCH_threads.json", d)
        self.write(self.new_dir, "BENCH_threads.json", d)
        p = run(self.old_dir, self.new_dir, "--strict")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)

    def test_stale_baseline_warns_and_strict_escalates(self) -> None:
        self.write(self.old_dir, "BENCH_shard.json", doc("shard", []))
        p = run(self.old_dir, self.new_dir)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("no matching fresh run", p.stdout)
        p = run(self.old_dir, self.new_dir, "--strict")
        self.assertEqual(p.returncode, 1,
                         "--strict must escalate a stale baseline")

    def test_missing_baseline_warns_and_strict_escalates(self) -> None:
        # A fresh bench nobody committed a baseline for is coverage that
        # never got gated; it must not pass --strict silently.
        d = doc("shard", [{"n": 1000, "variant": "ram", "median_ms": 1.0}])
        self.write(self.old_dir, "BENCH_other.json", doc("other", []))
        self.write(self.new_dir, "BENCH_other.json", doc("other", []))
        self.write(self.new_dir, "BENCH_shard.json", d)
        p = run(self.old_dir, self.new_dir)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("no committed baseline", p.stdout)
        p = run(self.old_dir, self.new_dir, "--strict")
        self.assertEqual(p.returncode, 1,
                         "--strict must escalate a missing baseline")

    def test_zero_baseline_division_path_warns_not_crashes(self) -> None:
        old = doc("shard", [{"n": 10, "variant": "ram", "median_ms": 0.0}])
        new = doc("shard", [{"n": 10, "variant": "ram", "median_ms": 5.0}])
        self.write(self.old_dir, "BENCH_shard.json", old)
        self.write(self.new_dir, "BENCH_shard.json", new)
        p = run(self.old_dir, self.new_dir)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("baseline is 0.0", p.stdout)
        self.assertIn("ratio gate skipped", p.stdout)
        p = run(self.old_dir, self.new_dir, "--strict")
        self.assertEqual(p.returncode, 1,
                         "--strict must escalate the ungateable field")

    def test_non_numeric_fresh_value_warns_not_crashes(self) -> None:
        old = doc("shard", [{"n": 10, "variant": "ram", "median_ms": 2.0}])
        new = doc("shard", [{"n": 10, "variant": "ram",
                             "median_ms": "fast"}])
        self.write(self.old_dir, "BENCH_shard.json", old)
        self.write(self.new_dir, "BENCH_shard.json", new)
        p = run(self.old_dir, self.new_dir)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("not numeric", p.stdout)

    def test_correctness_field_change_fails_without_strict(self) -> None:
        old = doc("shard", [{"n": 10, "variant": "ram", "median_ms": 2.0,
                             "packed": True}])
        new = doc("shard", [{"n": 10, "variant": "ram", "median_ms": 2.0,
                             "packed": False}])
        self.write(self.old_dir, "BENCH_shard.json", old)
        self.write(self.new_dir, "BENCH_shard.json", new)
        p = run(self.old_dir, self.new_dir)
        self.assertEqual(p.returncode, 1, p.stdout + p.stderr)
        self.assertIn("correctness field", p.stdout)

    def test_measurement_regression_warns_then_strict_fails(self) -> None:
        old = doc("shard", [{"n": 10, "variant": "ram", "median_ms": 2.0}])
        new = doc("shard", [{"n": 10, "variant": "ram", "median_ms": 3.0}])
        self.write(self.old_dir, "BENCH_shard.json", old)
        self.write(self.new_dir, "BENCH_shard.json", new)
        p = run(self.old_dir, self.new_dir)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("regressed", p.stdout)
        p = run(self.old_dir, self.new_dir, "--strict")
        self.assertEqual(p.returncode, 1)

    def test_op_scan_faultpoint_timings_are_measurements(self) -> None:
        # op_scan's faultpoint row carries a timing ratio and a per-call
        # time: noise moves them, so they warn like any measurement
        # rather than failing as if a different kernel had run.
        old = doc("op_scan", [{"tier": "faultpoint", "median_ms": 2.0,
                               "vs_dispatched": 1.0,
                               "fire_ns_per_call": 2.0}])
        new = doc("op_scan", [{"tier": "faultpoint", "median_ms": 2.0,
                               "vs_dispatched": 1.5,
                               "fire_ns_per_call": 3.0}])
        self.write(self.old_dir, "BENCH_op_scan.json", old)
        self.write(self.new_dir, "BENCH_op_scan.json", new)
        p = run(self.old_dir, self.new_dir)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertNotIn("correctness field", p.stdout)
        self.assertIn("vs_dispatched regressed", p.stdout)
        self.assertIn("fire_ns_per_call regressed", p.stdout)
        p = run(self.old_dir, self.new_dir, "--strict")
        self.assertEqual(p.returncode, 1)


if __name__ == "__main__":
    unittest.main()
