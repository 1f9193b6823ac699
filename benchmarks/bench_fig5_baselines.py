"""Figure 5: Pivot vs the SPDZ-DT and NPD-DT baselines (§8.3.3).

Training time for Pivot-Basic, Pivot-Enhanced, SPDZ-DT and NPD-DT while
varying the number of clients m (5a) and samples n (5b).

Shapes to reproduce from the paper:
* SPDZ-DT is the slowest secure protocol and grows fastest in both m and n
  (every one of its O(ndb) comparisons crosses the network);
* Pivot-Basic achieves a large speedup over SPDZ-DT that *widens* with n
  (paper: up to 37.5x at n=200K); Pivot-Enhanced sits in between;
* NPD-DT is essentially free — the cost of privacy is the entire gap.

Wall time in this single-process simulation under-weights SPDZ-DT (its cost
is communication rounds, which cost ~0 in-process), so the headline series
is *modeled time* = op costs + LAN round/byte model — the same cost
structure as the paper's testbed (:mod:`repro.analysis.costmodel`).

    python benchmarks/bench_fig5_baselines.py
    pytest benchmarks/bench_fig5_baselines.py --benchmark-only

``--smoke`` runs one point, m = 3 and n = 30, and exits non-zero unless
the modeled times keep the paper's order, NPD-DT < Pivot-Basic < SPDZ-DT:

    python benchmarks/bench_fig5_baselines.py --smoke
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import (
    DEFAULTS,
    LAN,
    RunResult,
    build_context,
    calibrated_costs,
    print_table,
    timed_run,
)
from repro.analysis.costmodel import modeled_time
from repro.baselines import NpdDecisionTree, SpdzDecisionTree
from repro.core import TreeTrainer


def run_pivot(protocol: str, m: int, n: int):
    context = build_context(protocol=protocol, m=m, n=n)
    costs = calibrated_costs(m, context.config.keysize)
    return timed_run(lambda: TreeTrainer(context).fit(), context, costs)


def run_spdz(m: int, n: int):
    context = build_context(m=m, n=n)  # reuse the partition/config shape
    from repro.tree import TreeParams

    tree = SpdzDecisionTree(
        context.partition,
        TreeParams(max_depth=DEFAULTS["h"], max_splits=DEFAULTS["b"]),
        seed=3,
    )
    costs = calibrated_costs(m, 256)
    result = timed_run(lambda: tree.fit(), None, None)
    result.modeled_seconds = modeled_time(
        result.ops,
        costs,
        rounds=tree.engine.stats.rounds,
        n_bytes=tree.engine.stats.bytes,
        network=LAN,
    )
    return result


def run_npd(m: int, n: int):
    context = build_context(m=m, n=n)
    from repro.tree import TreeParams

    tree = NpdDecisionTree(
        context.partition,
        TreeParams(max_depth=DEFAULTS["h"], max_splits=DEFAULTS["b"]),
    )
    start = time.perf_counter()
    tree.fit()
    wall = time.perf_counter() - start
    modeled = wall + LAN.time(tree.bus.rounds, tree.bus.bytes)
    return RunResult(wall, modeled, {}, {"bus": tree.bus.snapshot()})


def sweep(parameter: str, values: list[int]) -> list[list]:
    rows = []
    for value in values:
        m = value if parameter == "m" else DEFAULTS["m"]
        n = value if parameter == "n" else DEFAULTS["n"]
        basic = run_pivot("basic", m, n)
        enhanced = run_pivot("enhanced", m, n)
        spdz = run_spdz(m, n)
        npd = run_npd(m, n)
        rows.append([
            f"{parameter}={value}",
            basic.modeled_seconds,
            enhanced.modeled_seconds,
            spdz.modeled_seconds,
            npd.modeled_seconds,
            f"{spdz.modeled_seconds / basic.modeled_seconds:.1f}x",
            f"{spdz.modeled_seconds / enhanced.modeled_seconds:.1f}x",
        ])
    return rows


def test_fig5_spdz_slowest_secure(benchmark):
    def run():
        return (
            run_pivot("basic", 3, DEFAULTS["n"]).modeled_seconds,
            run_spdz(3, DEFAULTS["n"]).modeled_seconds,
        )

    basic, spdz = benchmark.pedantic(run, rounds=1, iterations=1)
    assert spdz > basic


def test_fig5b_speedup_widens_with_n(benchmark):
    def run():
        speedups = []
        for n in (30, 90):
            basic = run_pivot("basic", 3, n).modeled_seconds
            spdz = run_spdz(3, n).modeled_seconds
            speedups.append(spdz / basic)
        return speedups

    small, large = benchmark.pedantic(run, rounds=1, iterations=1)
    assert large > small


def smoke() -> int:
    """One sweep point with two checks; returns the exit status."""
    basic = run_pivot("basic", 3, 30)
    spdz = run_spdz(3, 30)
    npd = run_npd(3, 30)
    print_table(
        "Figure 5 smoke — m=3, n=30",
        ["Pivot-Basic(s)", "SPDZ-DT(s)", "NPD-DT(s)", "NPD-DT wall(s)",
         "NPD-DT bytes"],
        [[basic.modeled_seconds, spdz.modeled_seconds, npd.modeled_seconds,
          npd.wall_seconds, npd.extra["bus"]["bytes"]]],
    )
    failures = []
    if not npd.modeled_seconds < basic.modeled_seconds:
        failures.append("NPD-DT is not faster than Pivot-Basic in modeled time")
    if not spdz.modeled_seconds > basic.modeled_seconds:
        failures.append("SPDZ-DT is not slower than Pivot-Basic in modeled time")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="one point, m=3 n=30, with checks"
    )
    if parser.parse_args().smoke:
        sys.exit(smoke())
    header = ["sweep", "Pivot-Basic(s)", "Pivot-Enh(s)", "SPDZ-DT(s)",
              "NPD-DT(s)", "SPDZ/basic", "SPDZ/enh"]
    print_table(
        "Figure 5a — modeled training time vs m (LAN model + calibrated op costs)",
        header,
        sweep("m", [2, 3, 4]),  # paper: 2..10
    )
    print_table(
        "Figure 5b — modeled training time vs n",
        header,
        sweep("n", [30, 60, 120]),  # paper: 5K..200K
    )
    print("\nPaper shapes: SPDZ-DT slowest and steepest (its speedup column "
          "widens with n — the paper reports up to 37.5x for basic at "
          "n=200K); NPD-DT ~free; enhanced between basic and SPDZ-DT.")


if __name__ == "__main__":
    main()
