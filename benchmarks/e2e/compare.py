"""Set two sets of result files against each other, one row per workload x metric.

    python benchmarks/e2e/run.py compare --parent A/*.txt --change B/*.txt

A result file is the captured standard output of one untraced run: its
``run: {...}`` line names the workload, its last line holds the metrics.
Every row gets exactly one verdict:

``unchanged``   the change's median is no worse than the parent's by more
                than the metric's bound (and it is not ``improved``)
``regressed``   it is worse by more than the bound
``improved``    it is better by more than the distance between the parent's
                own quartiles, and the change wins at least nine tenths of
                the pairs (files are paired in the order given, ties count
                for neither side)
``unresolved``  either side's spread (quartile distance over median) is
                wider than the bound and the two sides' runs interleave

Integer metrics are compared exactly (both sides must have run the same
seeds): any difference is ``improved`` or ``regressed``.  Every ratio is
printed with its base.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any

#: Metrics that repeat exactly between runs of one program.
EXACT = ("train_bytes", "train_rounds")
#: Below this absolute change a timing is not called worse, whatever the
#: share: set-up is ~15 ms of random prime search.
ABSOLUTE_FLOOR = {"setup_s": 0.05}
WIN_SHARE = 0.9


def load_result(path: Path) -> tuple[str, dict[str, Any]]:
    """``(workload, result object)`` of one captured run."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    header = next((line for line in reversed(lines) if line.startswith("run: ")), None)
    if header is None or not lines[-1].startswith("{"):
        raise SystemExit(f"{path}: not the captured output of a benchmark run")
    return json.loads(header[len("run: "):])["workload"], json.loads(lines[-1])


def _collect(paths: list[Path]) -> dict[str, list[dict[str, Any]]]:
    runs: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for path in paths:
        workload, result = load_result(path)
        runs[workload].append(result)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: list[float], change: list[float], *, better: str, bound: float,
    exact: bool = False, floor: float = 0.0,
) -> tuple[str, str]:
    """The row's verdict and the ratio behind it, stated with its base."""
    sign = 1.0 if better == "lower" else -1.0
    p1, p, p3 = _quartiles(parent)
    c1, c, c3 = _quartiles(change)
    worse = sign * (c - p)  # > 0: the change reads worse
    ratio = f"{(c - p) / p:+.2%} of parent median {p:.6g}" if p else f"{c - p:+.6g} (parent median 0)"
    if exact:
        # Both sides ran the same seeds, so equal code gives equal lists.
        if sorted(parent) == sorted(change):
            return "unchanged", ratio
        mean_worse = sign * (statistics.fmean(change) - statistics.fmean(parent))
        word = "regressed" if mean_worse > 0 else "improved" if mean_worse < 0 else "unresolved"
        return word, ratio
    spread = max((p3 - p1) / p if p else 0.0, (c3 - c1) / c if c else 0.0)
    disjoint = (
        sign * (min(change) - max(parent)) > 0 or sign * (max(change) - min(parent)) < 0
    )
    if spread > bound and not disjoint:
        return "unresolved", f"{ratio}; spread {spread:.2%} of median exceeds bound {bound:.0%}"
    if worse > max(bound * p, floor):
        return "regressed", ratio
    pairs = list(zip(parent, change))
    wins = sum(sign * (b - a) < 0 for a, b in pairs)
    if worse < 0 and -worse > p3 - p1 and pairs and wins >= WIN_SHARE * len(pairs):
        return "improved", f"{ratio}; change wins {wins} of {len(pairs)} pairs"
    return "unchanged", ratio


def compare(
    parent: dict[str, list[dict[str, Any]]],
    change: dict[str, list[dict[str, Any]]],
    specs: dict[str, dict[str, Any]],
) -> list[tuple[str, str, str]]:
    """Print the table; return ``(workload, metric, verdict)`` per row."""
    rows: list[tuple[str, str, str]] = []
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload}: runs on one side only, not compared")
            continue
        sides = (parent[workload], change[workload])
        print(f"{workload}  (parent n={len(sides[0])}, change n={len(sides[1])})")
        for name, spec in specs.items():
            values = [[run["metrics"][name]["value"] for run in side] for side in sides]
            word, ratio = verdict(
                *values, better=spec["better"], bound=spec["bound"],
                exact=name in EXACT, floor=ABSOLUTE_FLOOR.get(name, 0.0),
            )
            quart = ["{:.6g} [{:.6g}, {:.6g}]".format(q[1], q[0], q[2]) for q in map(_quartiles, values)]
            print(
                f"  {name:<20} {spec['unit']:<6} parent {quart[0]:<34} change {quart[1]:<34} "
                f"{word:<10} {ratio}"
            )
            rows.append((workload, name, word))
        shares = [
            sum(run["failed"] for run in side) / sum(run["attempted"] for run in side)
            for side in sides
        ]
        word = "regressed" if shares[1] > shares[0] else "improved" if shares[1] < shares[0] else "unchanged"
        attempted = [sum(run["attempted"] for run in side) for side in sides]
        print(
            f"  {'failed_share':<20} {'ratio':<6} parent {shares[0]:.6g} of {attempted[0]} operations"
            f"   change {shares[1]:.6g} of {attempted[1]} operations   {word}"
        )
        rows.append((workload, "failed_share", word))
    return rows


def main(argv: list[str], specs: dict[str, dict[str, Any]]) -> int:
    """``specs`` are BENCHMARK.json's end-to-end metrics by name."""
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    rows = compare(_collect(args.parent), _collect(args.change), specs)
    tally = {word: sum(1 for row in rows if row[2] == word) for word in
             ("improved", "unchanged", "regressed", "unresolved")}
    print("verdicts: " + ", ".join(f"{count} {word}" for word, count in tally.items()))
    return 1 if tally["regressed"] else 0
