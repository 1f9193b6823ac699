"""Figure 4g-4h: per-sample prediction time (§8.3.2).

Compares Pivot-Basic (Algorithm 4), Pivot-Enhanced (§5.2 shared-model
prediction) and the non-private NPD-DT path walk, varying the number of
clients m (4g) and the tree depth h (4h).

Basic prediction is reported per sample at batch 1 and at batch 64: one
Algorithm 4 round-robin serves a whole batch, so at batch 64 the m + 1
rounds and the (slot-packed) threshold decryption are shared and what is
left per sample is the (m - 1)·L re-masked leaf ciphertexts — the term
Fig. 4g's "linear in m" is about.

Shapes to reproduce:
* basic prediction grows with m (round-robin [η] updates), enhanced barely
  (4g);
* enhanced prediction grows with h (2^h - 1 secure comparisons) much faster
  than basic (4h) — basic wins for deeper trees, matching the paper's
  crossover at h >= 3;
* NPD-DT is orders of magnitude cheaper — the price of leaking the path.

    python benchmarks/bench_fig4_prediction.py
    pytest benchmarks/bench_fig4_prediction.py --benchmark-only
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from common import DEFAULTS, build_context, print_table
from repro.baselines import NpdDecisionTree, npd_predict
from repro.core import TreeTrainer, run_predict_batch

N_PREDICTIONS = 8
BATCH = 64


def _time_per_prediction(fn, rows) -> float:
    start = time.perf_counter()
    for row in rows:
        fn(row)
    return (time.perf_counter() - start) / len(rows) * 1000  # ms


def run_point(m: int, h: int) -> dict[str, float]:
    basic_ctx = build_context(m=m, h=h, n=40, protocol="basic")
    basic_model = TreeTrainer(basic_ctx).fit()
    enhanced_ctx = build_context(m=m, h=h, n=40, protocol="enhanced")
    enhanced_model = TreeTrainer(enhanced_ctx).fit()
    npd = NpdDecisionTree(basic_ctx.partition, basic_ctx.config.tree)
    npd_model = npd.fit()

    rows = _rows_for(basic_ctx, N_PREDICTIONS)
    batch = _rows_for(basic_ctx, BATCH)
    start = time.perf_counter()
    run_predict_batch(basic_model, basic_ctx, batch)
    basic_batched = (time.perf_counter() - start) / BATCH * 1000  # ms
    return {
        "basic": _time_per_prediction(
            lambda r: run_predict_batch(basic_model, basic_ctx, r), rows
        ),
        "basic_batched": basic_batched,
        "enhanced": _time_per_prediction(
            lambda r: run_predict_batch(enhanced_model, enhanced_ctx, r, "enhanced"), rows
        ),
        "npd": _time_per_prediction(
            lambda r: npd_predict(npd_model, basic_ctx.partition, r, npd.bus), rows
        ),
        "t": basic_model.n_internal,
    }


def _rows_for(context, count: int) -> np.ndarray:
    d = sum(len(c) for c in context.partition.columns_per_client)
    rng = np.random.default_rng(5)
    return rng.normal(size=(count, d))


def test_fig4g_basic_grows_with_m(benchmark):
    def run():
        return run_point(m=2, h=2), run_point(m=4, h=2)

    small, large = benchmark.pedantic(run, rounds=1, iterations=1)
    assert large["basic"] > small["basic"]


def test_fig4h_enhanced_grows_with_h(benchmark):
    def run():
        return run_point(m=3, h=1), run_point(m=3, h=3)

    shallow, deep = benchmark.pedantic(run, rounds=1, iterations=1)
    assert deep["enhanced"] > 1.5 * shallow["enhanced"]


def test_npd_is_cheapest(benchmark):
    def run():
        return run_point(m=3, h=2)

    point = benchmark.pedantic(run, rounds=1, iterations=1)
    assert point["npd"] < point["basic"]
    assert point["npd"] < point["enhanced"]


def main() -> None:
    rows_m = []
    for m in (2, 3, 4):  # paper: 2..10
        point = run_point(m=m, h=DEFAULTS["h"])
        rows_m.append(
            [f"m={m}", point["basic"], point["basic_batched"], point["enhanced"],
             point["npd"]]
        )
    header = [
        "sweep", "Pivot-Basic (batch 1)", f"Pivot-Basic (batch {BATCH})",
        "Pivot-Enhanced", "NPD-DT",
    ]
    print_table(
        "Figure 4g — prediction time per sample vs m (milliseconds)",
        header,
        rows_m,
    )

    rows_h = []
    for h in (1, 2, 3):  # paper: 2..6
        point = run_point(m=DEFAULTS["m"], h=h)
        rows_h.append(
            [f"h={h} (t={point['t']})", point["basic"], point["basic_batched"],
             point["enhanced"], point["npd"]]
        )
    print_table(
        "Figure 4h — prediction time per sample vs h (milliseconds)",
        header,
        rows_h,
    )
    print("\nPaper shapes: basic grows with m (4g) — at batch 64 on its "
          "(m - 1)·L masks per sample alone; enhanced grows with h and loses "
          "to basic once trees deepen (4h; at batch 64, at every depth "
          "here); NPD-DT is ~free but leaks the prediction path.")


if __name__ == "__main__":
    main()
