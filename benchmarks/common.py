"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper (its module
docstring names which) at a laptop-friendly scale: the paper's cluster ran hours-long C++/GMP
workloads; this reproduction keeps every sweep point to seconds and reports
*wall time*, *modeled time* (op counts x calibrated costs + LAN model), and
the raw operation counts, so the paper's shapes can be checked at both the
measured and the modeled level (:mod:`repro.analysis.costmodel`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.analysis import opcount
from repro.analysis.calibration import PrimitiveCosts, calibrate
from repro.analysis.costmodel import NetworkModel, modeled_time
from repro.core import PivotConfig
from repro.data import make_classification, make_regression, vertical_partition
from repro.federation import Federation
from repro.tree import TreeParams

#: Scaled-down defaults mirroring Table 4's structure (paper defaults in
#: parentheses): m=3 (3), n=60 (50K), d_bar=2 (15), b=2 (8), h=2 (4).
DEFAULTS = {"m": 3, "n": 60, "d_bar": 2, "b": 2, "h": 2, "classes": 2}

#: One LAN model for every modeled-time figure.
LAN = NetworkModel()

_calibration_cache: dict[tuple[int, int], PrimitiveCosts] = {}


def calibrated_costs(m: int, keysize: int) -> PrimitiveCosts:
    key = (m, keysize)
    if key not in _calibration_cache:
        _calibration_cache[key] = calibrate(m, keysize, repeats=10)
    return _calibration_cache[key]


@dataclass
class RunResult:
    wall_seconds: float
    modeled_seconds: float
    ops: dict[str, int]
    extra: dict


def build_context(
    task: str = "classification",
    m: int = DEFAULTS["m"],
    n: int = DEFAULTS["n"],
    d_bar: int = DEFAULTS["d_bar"],
    b: int = DEFAULTS["b"],
    h: int = DEFAULTS["h"],
    protocol: str = "basic",
    keysize: int = 256,
    seed: int = 7,
    classes: int = DEFAULTS["classes"],
    transport=None,
) -> Federation:
    d = m * d_bar
    if task == "classification":
        X, y = make_classification(n, d, n_classes=classes, seed=seed)
    else:
        X, y = make_regression(n, d, seed=seed)
    partition = vertical_partition(X, y, m, task=task)
    if protocol == "enhanced":
        # Row continuity only: BENCH_baseline's enhanced row was recorded
        # at 512 bits, the key the q-wrap once forced at h = 2.  The
        # protocol itself runs at any depth under the key basic uses.
        keysize = max(keysize, 512)
    config = PivotConfig(
        keysize=keysize,
        tree=TreeParams(max_depth=h, max_splits=b),
        protocol=protocol,
        seed=seed,
    )
    return Federation.from_partition(partition, config, transport=transport)


def timed_run(fn, context: Federation | None = None, costs: PrimitiveCosts | None = None) -> RunResult:
    """Run fn() once, capturing wall time, op counts and modeled time."""
    with opcount.counting() as ops:
        start = time.perf_counter()
        extra = fn()
        wall = time.perf_counter() - start
    rounds = n_bytes = 0
    if context is not None:
        rounds = context.engine.stats.rounds + context.bus.rounds
        n_bytes = context.engine.stats.bytes + context.bus.bytes
    modeled = 0.0
    if costs is not None:
        modeled = modeled_time(ops, costs, rounds=rounds, n_bytes=n_bytes, network=LAN)
    return RunResult(wall, modeled, dict(ops), {"returned": extra})


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(header)
    ]
    print(f"\n== {title} ==")
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
