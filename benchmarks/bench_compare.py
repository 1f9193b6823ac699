"""Compare a fresh benchmark record against its committed baseline.

The perf trajectory lives in a JSON record CI regenerates on every run
(``BENCH_training.json`` from :mod:`bench_fig4_training`) and a committed
snapshot of it under ``BENCH_baseline/``.  This script diffs the fresh
record against the snapshot:

* **integers are invariants** — bytes on the wire, synchronisation
  rounds, Ce/Cd/Cs/Cc op counts, and the workload shape are deterministic
  protocol properties, so any drift is a real behaviour change and fails
  the comparison exactly;
* **floats are measurements** — wall seconds and throughput vary with the
  runner, so they only fail outside a generous multiplicative tolerance
  (default ``--rel-tol 10``: flag a >10x regression or speedup, which on
  shared CI hardware means "a different algorithm", not noise);
* **structure is pinned** — a key present on one side only fails, so a
  renamed or dropped metric cannot silently leave the trajectory.

Usage::

    python benchmarks/bench_compare.py BENCH_baseline/BENCH_training.json \
        BENCH_training.json [--rel-tol 10]

Exit status: 0 when every metric is within tolerance, 1 otherwise.  When
an integer invariant legitimately changes (a protocol round saved, a wire
format slimmed), regenerate the snapshot and commit it with the change so
the diff documents the shift.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def compare(
    baseline: object, fresh: object, rel_tol: float, prefix: str = ""
) -> list[str]:
    """Return a list of human-readable mismatch descriptions (empty = ok)."""
    problems: list[str] = []
    if isinstance(baseline, dict) and isinstance(fresh, dict):
        for key in sorted(baseline.keys() | fresh.keys()):
            where = f"{prefix}.{key}" if prefix else key
            if key not in fresh:
                problems.append(f"{where}: present in baseline, missing in fresh record")
            elif key not in baseline:
                problems.append(f"{where}: new metric not in baseline (regenerate the snapshot)")
            else:
                problems.extend(compare(baseline[key], fresh[key], rel_tol, where))
        return problems
    # bool is an int subclass; compare it structurally, not numerically.
    if isinstance(baseline, bool) or isinstance(fresh, bool):
        if baseline != fresh:
            problems.append(f"{prefix}: {baseline!r} != {fresh!r}")
        return problems
    if isinstance(baseline, int) and isinstance(fresh, int):
        if baseline != fresh:
            problems.append(
                f"{prefix}: invariant drifted, baseline {baseline} != fresh {fresh}"
            )
        return problems
    if isinstance(baseline, (int, float)) and isinstance(fresh, (int, float)):
        if baseline == fresh:
            return problems
        if baseline <= 0 or fresh <= 0:
            problems.append(
                f"{prefix}: non-positive measurement, baseline {baseline} vs fresh {fresh}"
            )
            return problems
        ratio = fresh / baseline
        if ratio > rel_tol or ratio < 1 / rel_tol:
            problems.append(
                f"{prefix}: measurement off by {ratio:.2f}x "
                f"(baseline {baseline:.6g}, fresh {fresh:.6g}, "
                f"tolerance {rel_tol:g}x)"
            )
        return problems
    if type(baseline) is not type(fresh) or baseline != fresh:
        problems.append(f"{prefix}: {baseline!r} != {fresh!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed snapshot JSON")
    parser.add_argument("fresh", type=Path, help="freshly generated JSON")
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=10.0,
        metavar="X",
        help=(
            "multiplicative tolerance for float measurements: fail when "
            "fresh/baseline leaves [1/X, X] (default: 10)"
        ),
    )
    args = parser.parse_args(argv)
    if args.rel_tol < 1:
        parser.error("--rel-tol must be >= 1")
    try:
        baseline = json.loads(args.baseline.read_text())
        fresh = json.loads(args.fresh.read_text())
    except (OSError, ValueError) as exc:
        print(f"bench_compare: cannot load records: {exc}", file=sys.stderr)
        return 1
    problems = compare(baseline, fresh, args.rel_tol)
    if problems:
        print(f"bench_compare: {args.fresh} drifted from {args.baseline}:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"bench_compare: {args.fresh} matches {args.baseline} "
        f"(integers exact, floats within {args.rel_tol:g}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
