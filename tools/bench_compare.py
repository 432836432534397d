#!/usr/bin/env python3
"""Diff fresh BENCH_*.json documents against the committed perf trajectory.

Usage:
    bench_compare.py OLD NEW [options]

OLD and NEW are BENCH_*.json files, or directories holding them (matched
by file name). The comparison has three severity classes:

  * correctness fields (execution-shape booleans like "packed" or
    "phase2_parallel", and any string field) must match exactly -> FAIL
    (exit 1). These say WHICH code ran; a change is a behaviour
    regression no matter how fast it was.
  * measurement fields (medians, latencies, throughputs, efficiencies)
    beyond --threshold (default 10%) in the bad direction -> WARN.
    Warnings exit 0 -- shared runners are noisy -- unless --strict.
  * missing rows / files in NEW -> WARN (the bench did not run or lost
    coverage).

Provenance: every document carries the stamp from lr90::stamp_provenance
(git_sha, compiler, hw_threads). When compiler or hw_threads differ
between OLD and NEW the perf numbers are not comparable; the default is
to refuse (exit 2) so nobody mis-reads a hardware change as a
regression. --lenient-cross-machine instead skips
the measurement comparison with a notice but still enforces the
correctness fields, which is how CI checks runner output against the
dev-machine trajectory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# Fields that identify a row (the comparison key), in every bench.
KEY_FIELDS = {"n", "variant", "w", "t", "op", "clients", "tier", "method",
              "backend", "shape"}

# Numeric measurement fields where LOWER is better.
LOWER_BETTER_SUFFIXES = ("_ms", "_ns", "_us", "ns_per_elem", "p50_us",
                         "p99_us")
# Exact-name measurements (timings and timing ratios that no suffix rule
# catches).
LOWER_BETTER_NAMES = {"vs_hard_coded", "vs_dispatched", "fire_ns_per_call"}
# Numeric measurement fields where HIGHER is better.
HIGHER_BETTER_SUFFIXES = ("req_per_s", "_efficiency", "parallel_frac")
HIGHER_BETTER_PREFIXES = ("speedup",)

# Provenance metadata that must match for timings to be comparable.
# git_sha is deliberately NOT here: comparing across commits is the point.
PROVENANCE_FIELDS = ("compiler", "hw_threads")

# Execution-shape fields that legitimately follow the hardware (the
# planner picks cursors/threads from the machine's thread count): checked
# same-machine, skipped cross-machine. "packed" is NOT here -- operator
# lane capability does not depend on hardware.
HW_SHAPE_FIELDS = {"cursors", "picked_t", "picked_w"}


def classify(field: str, value) -> str:
    """One of 'key', 'lower', 'higher', 'correctness', 'ignore'."""
    if field in KEY_FIELDS:
        return "key"
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if field.endswith(LOWER_BETTER_SUFFIXES) or field in LOWER_BETTER_NAMES:
            return "lower"
        if field.endswith(HIGHER_BETTER_SUFFIXES) or field.startswith(
                HIGHER_BETTER_PREFIXES):
            return "higher"
        # Numeric, but neither a key nor a known measurement: the
        # execution-shape counters (packed, phase2_parallel, cursors...).
        return "correctness"
    return "correctness"  # strings and booleans describe what ran


def row_key(row: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in row.items()
                        if k in KEY_FIELDS))


class Report:
    def __init__(self) -> None:
        self.failures: list[str] = []
        self.warnings: list[str] = []
        self.notes: list[str] = []

    def fail(self, msg: str) -> None:
        self.failures.append(msg)
        self._emit("error", msg)

    def warn(self, msg: str) -> None:
        self.warnings.append(msg)
        self._emit("warning", msg)

    def note(self, msg: str) -> None:
        self.notes.append(msg)
        print(f"note: {msg}")

    @staticmethod
    def _emit(level: str, msg: str) -> None:
        print(f"{level.upper()}: {msg}")
        if os.environ.get("GITHUB_ACTIONS"):
            print(f"::{level}::{msg}")


def load(path: Path) -> dict:
    with path.open() as f:
        return json.load(f)


def provenance_matches(old: dict, new: dict, rep: Report, name: str) -> bool:
    ok = True
    for field in PROVENANCE_FIELDS:
        a = old.get("meta", {}).get(field)
        b = new.get("meta", {}).get(field)
        if a != b:
            rep.note(f"{name}: provenance differs on {field!r}: "
                     f"{a!r} (old) vs {b!r} (new)")
            ok = False
    return ok


def compare_doc(name: str, old: dict, new: dict, threshold: float,
                compare_perf: bool, rep: Report) -> None:
    if old.get("bench") != new.get("bench"):
        rep.fail(f"{name}: bench name changed: "
                 f"{old.get('bench')!r} -> {new.get('bench')!r}")
        return
    old_rows = {row_key(r): r for r in old.get("results", [])}
    new_rows = {row_key(r): r for r in new.get("results", [])}
    for key, old_row in old_rows.items():
        new_row = new_rows.get(key)
        ident = ", ".join(f"{k}={v}" for k, v in key)
        if new_row is None:
            rep.warn(f"{name}: row missing from new results ({ident})")
            continue
        for field, old_val in old_row.items():
            kind = classify(field, old_val)
            if kind == "key":
                continue
            new_val = new_row.get(field)
            if new_val is None:
                rep.warn(f"{name}: field {field!r} missing ({ident})")
                continue
            if kind == "correctness":
                if field in HW_SHAPE_FIELDS and not compare_perf:
                    continue  # hardware-following planner choice
                if old_val != new_val:
                    rep.fail(f"{name}: correctness field {field!r} changed "
                             f"{old_val!r} -> {new_val!r} ({ident})")
                continue
            if not compare_perf:
                continue
            if not isinstance(new_val, (int, float)) or isinstance(
                    new_val, bool):
                rep.warn(f"{name}: {field} is not numeric in fresh "
                         f"results ({new_val!r}) ({ident})")
                continue
            if not old_val > 0:
                # A zero or negative baseline cannot anchor a ratio; the
                # old silent skip here meant such a field was never gated
                # again. Say so -- under --strict that is a failure.
                rep.warn(f"{name}: {field} baseline is {old_val!r}, "
                         f"ratio gate skipped ({ident})")
                continue
            ratio = new_val / old_val
            if kind == "lower" and ratio > 1.0 + threshold:
                rep.warn(f"{name}: {field} regressed {ratio - 1.0:+.1%} "
                         f"({old_val:.4g} -> {new_val:.4g}) ({ident})")
            elif kind == "higher" and ratio < 1.0 - threshold:
                rep.warn(f"{name}: {field} regressed {ratio - 1.0:+.1%} "
                         f"({old_val:.4g} -> {new_val:.4g}) ({ident})")


def collect(path: Path) -> dict[str, Path]:
    if path.is_dir():
        return {p.name: p for p in sorted(path.glob("BENCH_*.json"))}
    return {path.name: path}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path, help="committed trajectory file/dir")
    ap.add_argument("new", type=Path, help="fresh results file/dir")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative regression that triggers a warning")
    ap.add_argument("--strict", action="store_true",
                    help="warnings become failures (local runs)")
    ap.add_argument("--lenient-cross-machine", action="store_true",
                    help="on provenance mismatch, skip perf comparison "
                         "instead of refusing (CI runners)")
    args = ap.parse_args()

    rep = Report()
    old_files = collect(args.old)
    new_files = collect(args.new)
    if not old_files:
        rep.warn(f"no BENCH_*.json under {args.old}")
    compared = 0
    stale = [name for name in old_files if name not in new_files]
    if stale:
        # A committed baseline nobody re-measures is a gate that stopped
        # gating: say exactly which benches went missing from the run.
        rep.warn("baseline(s) with no matching fresh run -- these benches "
                 "did not execute: " + ", ".join(stale))
    for name in sorted(new_files.keys() - old_files.keys()):
        rep.warn(f"{name}: fresh results have no committed baseline "
                 f"(commit one under bench/trajectory/ so it is gated)")
    for name, old_path in old_files.items():
        new_path = new_files.get(name)
        if new_path is None:
            continue  # already warned in the stale-baseline summary
        old_doc, new_doc = load(old_path), load(new_path)
        same_machine = provenance_matches(old_doc, new_doc, rep, name)
        if not same_machine and not args.lenient_cross_machine:
            print(f"REFUSED: {name}: provenance differs; perf numbers are "
                  "not comparable across machines/toolchains. Re-run on "
                  "matching hardware or pass --lenient-cross-machine to "
                  "check correctness fields only.")
            return 2
        if not same_machine:
            rep.note(f"{name}: cross-machine -- correctness fields only")
        compare_doc(name, old_doc, new_doc, args.threshold,
                    compare_perf=same_machine, rep=rep)
        compared += 1

    print(f"\ncompared {compared} document(s): "
          f"{len(rep.failures)} failure(s), {len(rep.warnings)} warning(s)")
    if rep.failures:
        return 1
    if rep.warnings and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
