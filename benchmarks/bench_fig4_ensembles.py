"""Figure 4f: ensemble training time vs number of trees W (§8.3.1).

Four series as in the paper: RF classification, RF regression, GBDT
classification, GBDT regression.

Shapes to reproduce:
* all four scale ~linearly in W;
* RF classification is slightly slower than RF regression (more classes ->
  more label vectors);
* GBDT regression is slower than RF regression (encrypted residual
  bookkeeping between rounds);
* GBDT classification is the slowest by a clear margin (one-vs-rest: W·c
  trees, plus one secure softmax over all samples each round).

``--smoke`` instead prints, per estimator × protocol, the MPC rounds, bus
rounds and dealer material (``DealerUsage``) of one fit and of one predict
call at R = 1, 10 and 20 rows, and asserts that a predict call's rounds do
not grow with R: every estimator predicts its rows in one batch.

    python benchmarks/bench_fig4_ensembles.py
    python benchmarks/bench_fig4_ensembles.py --smoke
    pytest benchmarks/bench_fig4_ensembles.py --benchmark-only
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from common import build_context, print_table, timed_run
from repro.core import GBDTTrainer, ForestTrainer, LogisticTrainer
from repro.mpc.dealer import DealerUsage

W_VALUES = [1, 2, 3]  # paper: 2..32
SMALL = dict(n=24, d_bar=2, b=2, h=1, m=3)
PREDICT_ROWS = (1, 10, 20)

#: name -> (task, trainer factory) for the --smoke cost table.
ESTIMATORS = {
    "RF-Class": ("classification", lambda ctx: ForestTrainer(ctx, n_trees=2, seed=1)),
    "RF-Regr": ("regression", lambda ctx: ForestTrainer(ctx, n_trees=2, seed=1)),
    "GBDT-Class": ("classification", lambda ctx: GBDTTrainer(ctx, n_rounds=2)),
    "GBDT-Regr": ("regression", lambda ctx: GBDTTrainer(ctx, n_rounds=2)),
    "Logistic": ("classification", lambda ctx: LogisticTrainer(ctx, n_epochs=1)),
}


def run_rf(task: str, w: int):
    context = build_context(task=task, classes=3 if task == "classification" else 2, **SMALL)
    return timed_run(
        lambda: ForestTrainer(context, n_trees=w, seed=1).fit(), context
    )


def run_gbdt(task: str, w: int):
    context = build_context(task=task, classes=3 if task == "classification" else 2, **SMALL)
    return timed_run(
        lambda: GBDTTrainer(context, n_rounds=w, learning_rate=0.5).fit(), context
    )


def test_fig4f_gbdt_classification_slowest(benchmark):
    def run():
        return (
            run_rf("classification", 2).wall_seconds,
            run_rf("regression", 2).wall_seconds,
            run_gbdt("regression", 2).wall_seconds,
            run_gbdt("classification", 2).wall_seconds,
        )

    rf_c, rf_r, gb_r, gb_c = benchmark.pedantic(run, rounds=1, iterations=1)
    assert gb_c > gb_r  # one-vs-rest + secure softmax overhead
    assert gb_c > rf_c


def test_fig4f_linear_in_w(benchmark):
    def run():
        return run_rf("regression", 1).wall_seconds, run_rf("regression", 3).wall_seconds

    one, three = benchmark.pedantic(run, rounds=1, iterations=1)
    assert three > 1.8 * one


def _costs(context) -> dict[str, int]:
    return {
        "mpc_rounds": context.engine.stats.rounds,
        "bus_rounds": context.bus.rounds,
        **context.engine.dealer.usage.snapshot(),
    }


def _spent(context, fn) -> dict[str, int]:
    before = _costs(context)
    fn()
    return {key: value - before[key] for key, value in _costs(context).items()}


def cost_table() -> list[list]:
    """One row per estimator × protocol × phase: a fit, then one predict
    call at each of PREDICT_ROWS rows.  Raises if a predict call's MPC or
    bus rounds depend on how many rows it has."""
    rows = []
    for name, (task, factory) in ESTIMATORS.items():
        protocols = ("basic",) if name == "Logistic" else ("basic", "enhanced")
        for protocol in protocols:
            classes = 2 if name == "Logistic" else 3
            context = build_context(task=task, protocol=protocol, classes=classes, **SMALL)
            trainer = factory(context)
            held_out = np.random.default_rng(5).normal(
                size=(max(PREDICT_ROWS), SMALL["m"] * SMALL["d_bar"])
            )
            phases = {"fit": _spent(context, trainer.fit)}
            for count in PREDICT_ROWS:
                phases[f"predict R={count}"] = _spent(
                    context, lambda: trainer.predict(held_out[:count])
                )
            context.assert_drained()
            context.close()
            predicts = {
                (cost["mpc_rounds"], cost["bus_rounds"])
                for phase, cost in phases.items()
                if phase.startswith("predict")
            }
            assert len(predicts) == 1, (
                f"{name}/{protocol}: predict rounds depend on R: {phases}"
            )
            for phase, cost in phases.items():
                rows.append([name, protocol, phase, *cost.values()])
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="print fit and predict rounds and dealer material per estimator "
        "× protocol, and check predict rounds do not grow with the rows",
    )
    if parser.parse_args().smoke:
        rows = cost_table()
        header = ["estimator", "protocol", "phase", "MPC rounds", "bus rounds",
                  *DealerUsage().snapshot()]
        print_table(
            "Ensemble and logistic costs per fit and per predict call "
            f"(n={SMALL['n']}, h={SMALL['h']}, m={SMALL['m']}, 2 trees/rounds)",
            header,
            rows,
        )
        print(f"\nSMOKE OK: predict MPC and bus rounds equal at R = {PREDICT_ROWS} "
              "for every estimator × protocol")
        return
    rows = []
    for w in W_VALUES:
        rows.append([
            f"W={w}",
            run_rf("classification", w).wall_seconds,
            run_gbdt("classification", w).wall_seconds,
            run_rf("regression", w).wall_seconds,
            run_gbdt("regression", w).wall_seconds,
        ])
    print_table(
        "Figure 4f — ensemble training time vs W (seconds; "
        f"n={SMALL['n']}, h={SMALL['h']}, b={SMALL['b']})",
        ["sweep", "RF-Class", "GBDT-Class", "RF-Regr", "GBDT-Regr"],
        rows,
    )
    print("\nPaper shapes: linear in W; GBDT-Classification slowest "
          "(one-vs-rest + secure softmax), RF cheapest.")


if __name__ == "__main__":
    main()
