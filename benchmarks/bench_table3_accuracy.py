"""Table 3: model accuracy, Pivot vs non-private baselines (§8.2).

Reproduces the paper's accuracy comparison on the three (simulated — see
:mod:`repro.data.datasets`) datasets: bank marketing and credit card (classification
accuracy), appliances energy (regression MSE), each for DT, RF and GBDT.

Paper's claim to reproduce: "the Pivot algorithms achieve accuracy
comparable to the non-private baselines" — the *gap* should be small, the
absolute values depend on the (simulated) data.

Scaling: the paper uses the full UCI datasets and 10 trials; this bench
subsamples each dataset and runs TRIALS trials so the secure protocols
finish in minutes rather than days.

    python benchmarks/bench_table3_accuracy.py
    pytest benchmarks/bench_table3_accuracy.py --benchmark-only
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np

from common import print_table
from repro.core import (
    PivotConfig,
    TreeTrainer,
    GBDTTrainer,
    ForestTrainer,
    run_predict_batch,
)
from repro.data import PAPER_DATASETS, vertical_partition
from repro.federation import Federation
from repro.tree import (
    DecisionTree,
    GBDTClassifier,
    GBDTRegressor,
    RandomForest,
    TreeParams,
)
from repro.tree.metrics import accuracy, mean_squared_error

TRIALS = 2  # paper: 10
TRAIN_N, TEST_N = 60, 40  # paper: full datasets
PARAMS = TreeParams(max_depth=2, max_splits=2)
N_TREES = 2  # RF trees / GBDT rounds (paper sweeps W)


def _score(task, predicted, actual) -> float:
    if task == "classification":
        return accuracy(predicted, actual)
    return mean_squared_error(predicted, actual)


def evaluate_dataset(name: str, seed: int) -> dict[str, float]:
    dataset = PAPER_DATASETS[name]().subsample(TRAIN_N + TEST_N, seed=seed)
    train, test = dataset.train_test_split(TEST_N / (TRAIN_N + TEST_N), seed=seed)
    task = dataset.task
    partition = vertical_partition(train.features, train.labels, 3, task=task)
    config = PivotConfig(keysize=256, tree=PARAMS, seed=seed)
    context = Federation.from_partition(partition, config)

    out: dict[str, float] = {}
    # -- single trees ------------------------------------------------------
    pivot_dt = TreeTrainer(context).fit()
    out["Pivot-DT"] = _score(
        task, run_predict_batch(pivot_dt, context, test.features), test.labels
    )
    np_dt = DecisionTree(task, PARAMS).fit(train.features, train.labels)
    out["NP-DT"] = _score(task, np_dt.predict(test.features), test.labels)

    # -- random forests ----------------------------------------------------
    pivot_rf = ForestTrainer(context, n_trees=N_TREES, seed=seed).fit()
    out["Pivot-RF"] = _score(task, pivot_rf.predict(test.features), test.labels)
    np_rf = RandomForest(task, n_trees=N_TREES, params=PARAMS, seed=seed).fit(
        train.features, train.labels
    )
    out["NP-RF"] = _score(task, np_rf.predict(test.features), test.labels)

    # -- GBDT ----------------------------------------------------------------
    pivot_gbdt = GBDTTrainer(context, n_rounds=N_TREES, learning_rate=0.5).fit()
    out["Pivot-GBDT"] = _score(task, pivot_gbdt.predict(test.features), test.labels)
    if task == "classification":
        np_gbdt = GBDTClassifier(n_rounds=N_TREES, learning_rate=0.5, params=PARAMS)
    else:
        np_gbdt = GBDTRegressor(n_rounds=N_TREES, learning_rate=0.5, params=PARAMS)
    np_gbdt.fit(train.features, train.labels)
    out["NP-GBDT"] = _score(task, np_gbdt.predict(test.features), test.labels)
    return out


def run_table3() -> list[list]:
    rows = []
    for name in PAPER_DATASETS:
        trials = [evaluate_dataset(name, seed) for seed in range(TRIALS)]
        averaged = {
            key: float(np.mean([t[key] for t in trials])) for key in trials[0]
        }
        rows.append(
            [name]
            + [
                f"{averaged[k]:.4f}"
                for k in ("Pivot-DT", "NP-DT", "Pivot-RF", "NP-RF",
                          "Pivot-GBDT", "NP-GBDT")
            ]
        )
    return rows


def test_table3_accuracy_gap(benchmark):
    """The headline claim: Pivot ~ non-private accuracy on the same data."""

    def run():
        return evaluate_dataset("bank_marketing", seed=0)

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    assert abs(scores["Pivot-DT"] - scores["NP-DT"]) < 0.15
    assert abs(scores["Pivot-RF"] - scores["NP-RF"]) < 0.15


def test_table3_regression_gap(benchmark):
    def run():
        return evaluate_dataset("appliances_energy", seed=0)

    scores = benchmark.pedantic(run, rounds=1, iterations=1)
    # MSE within a factor of each other (same data, same grid).
    assert scores["Pivot-DT"] < 2.5 * scores["NP-DT"] + 1e-6


def main() -> None:
    rows = run_table3()
    print_table(
        "Table 3 — model accuracy (classification: accuracy, higher better; "
        "appliances_energy: MSE, lower better)",
        ["dataset", "Pivot-DT", "NP-DT", "Pivot-RF", "NP-RF",
         "Pivot-GBDT", "NP-GBDT"],
        rows,
    )
    print(f"\n({TRIALS} trials, {TRAIN_N} train / {TEST_N} test samples per "
          "trial, simulated datasets — see repro.data.datasets. The claim under "
          "reproduction is the small Pivot-vs-NP gap, matching the paper's "
          "Table 3.)")


if __name__ == "__main__":
    main()
