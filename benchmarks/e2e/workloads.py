"""The four named workloads, their seeded inputs and the plaintext oracle.

Every workload is one closed loop with one client: m = 3 parties in one
process on the in-memory transport, a 512-bit key, threshold decryption by
real share combination.  Sizes and the reason each workload exists are in
the README next to this file; later issues refer to workloads by ``name``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro import PivotConfig
from repro.data import make_classification
from repro.tree import DecisionTree, DecisionTreeModel, TreeParams
from repro.tree.metrics import gini_gain
from repro.tree.splits import candidate_splits_matrix

N_PARTIES = 3
KEYSIZE = 512
#: Data draws tried per seed until one is kept (see :func:`make_inputs`);
#: also the stride between the data seeds of two benchmark seeds, so no two
#: (seed, draw) pairs share a data seed.
MAX_DRAWS = 1024
#: Least Gini gain of every internal node of a kept draw, and least lead of
#: its chosen split over the runner-up.  The protected trainer compares gains
#: in fixed point and stops under 2**-9 (0.002); this clears that 2.5 times.
GAIN_MARGIN = 0.005
#: Held-out candidates generated per predicted row (see :func:`make_inputs`).
HELDOUT_POOL = 4


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    n: int  # training rows
    dbar: int  # features per party
    b: int  # candidate splits per feature
    h: int  # maximum depth
    predict_rows: int

    @property
    def tree(self) -> TreeParams:
        return TreeParams(max_depth=self.h, max_splits=self.b)

    def quartered(self) -> "Workload":
        """The ``--smoke`` size: a quarter of the rows, same tree shape knobs.

        n stays at four samples per leaf or more, or no draw grows a full tree.
        """
        return dataclasses.replace(
            self, n=max(4 * 2**self.h, self.n // 4), predict_rows=max(4, self.predict_rows // 4)
        )


#: Why each workload exists is recorded in BENCHMARK.json and the README.
#: Held-out rows times 2**h leaves is a multiple of 256 on the basic
#: workloads: Algorithm 4 takes one obfuscator per leaf per row from a pool
#: that refills 256 at a time, so any other row count pays for a refill it
#: only partly uses, and how partly depends on what the fit left behind.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tall-basic", "basic", n=200, dbar=1, b=2, h=2, predict_rows=64),
        Workload("wide-basic", "basic", n=48, dbar=2, b=2, h=2, predict_rows=64),
        Workload("enhanced", "enhanced", n=24, dbar=1, b=2, h=2, predict_rows=300),
        Workload("predict-deep", "basic", n=48, dbar=1, b=2, h=3, predict_rows=64),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Seeded inputs of one run: what the parties hold and what is held out."""

    columns: tuple[tuple[int, ...], ...]  # global column ids per party
    train: np.ndarray  # n x d, global column order
    y: np.ndarray  # n training labels (party 0 holds them)
    heldout: np.ndarray  # predict_rows x d
    data_seed: int
    draws: int  # data draws rejected before this one was kept

    def train_blocks(self) -> list[np.ndarray]:
        return [self.train[:, list(cols)] for cols in self.columns]

    def heldout_blocks(self) -> list[np.ndarray]:
        return [self.heldout[:, list(cols)] for cols in self.columns]


def _balanced_rows(predicted: np.ndarray, rows: int) -> np.ndarray | None:
    """Indices of ``rows`` candidates, half of each predicted class, in order."""
    zeros = np.flatnonzero(predicted == 0)[: rows // 2]
    ones = np.flatnonzero(predicted == 1)[: rows - rows // 2]
    if len(zeros) + len(ones) < rows:
        return None
    return np.sort(np.concatenate([zeros, ones]))


def _decisive(
    model: DecisionTreeModel, params: TreeParams, train: np.ndarray, labels: np.ndarray
) -> bool:
    """Whether fixed-point arithmetic cannot grow a different tree.

    True when the tree is full, every internal node's chosen split beats
    both zero and every other candidate by ``GAIN_MARGIN``, and no leaf's
    label is a tie.  On these small n two candidates often induce the same
    partition; the secure argmax may then pick the other one, a correct
    model that the row-by-row oracle check would count as failed rows.
    """
    grid = candidate_splits_matrix(train, params.max_splits)
    pending = [(model.root, np.ones(len(train), dtype=bool))]
    leaves = 0
    while pending:
        node, here = pending.pop()
        counts = np.bincount(labels[here], minlength=2)
        if node.is_leaf:
            leaves += 1
            if counts[0] == counts[1]:
                return False
            continue
        gains = sorted(
            gini_gain(
                np.bincount(labels[here & (train[:, column] <= t)], minlength=2),
                np.bincount(labels[here & (train[:, column] > t)], minlength=2),
            )
            for column, thresholds in enumerate(grid)
            for t in thresholds
        )
        if gains[-1] < GAIN_MARGIN or gains[-1] - gains[-2] < GAIN_MARGIN:
            return False
        goes_left = train[:, node.feature] <= node.threshold
        left, right = node.children()
        pending += [(left, here & goes_left), (right, here & ~goes_left)]
    return leaves == 2**params.max_depth


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Generate the run's data from ``seed`` alone.

    The driver compares runs at different seeds, so every seed must be the
    same amount of work and must have one right answer.  Draw k of
    benchmark seed s uses data seed ``s * MAX_DRAWS + k``; a draw is kept
    when

    * plaintext CART on the training rows is :func:`_decisive`: the
      protocols do a fixed amount of work per tree node, so time, bytes and
      rounds follow the *shape* of the tree, and only the full tree is the
      same shape at every seed;
    * ``HELDOUT_POOL`` times as many held-out candidates as needed hold
      enough rows of either predicted class to take exactly half of each.
      Algorithm 4's last step decrypts [k] = z . [eta]; for a row predicted
      class 0 that ciphertext is the deterministic encryption of zero and
      its three partial decryptions are free, so per-row time follows the
      share of rows predicted class 1.

    Both choices look at the plaintext tree only, never at the system under
    test.
    """
    d = N_PARTIES * workload.dbar
    columns = tuple(
        tuple(int(c) for c in block)
        for block in np.array_split(np.arange(d), N_PARTIES)
    )
    rows = workload.predict_rows
    for draw in range(MAX_DRAWS):
        data_seed = seed * MAX_DRAWS + draw
        X, y = make_classification(
            workload.n + HELDOUT_POOL * rows, d, n_classes=2, seed=data_seed
        )
        train, labels = X[: workload.n], y[: workload.n]
        model = DecisionTree("classification", workload.tree).fit(train, labels, n_classes=2)
        if not _decisive(model, workload.tree, train, labels):
            continue
        candidates = X[workload.n :]
        picked = _balanced_rows(model.predict(candidates), rows)
        if picked is not None:
            return Inputs(columns, train, labels, candidates[picked], data_seed, draw)
    raise ValueError(
        f"workload {workload.name!r}: no decisive, balanced draw in {MAX_DRAWS} at seed {seed}"
    )


def pivot_config(workload: Workload) -> PivotConfig:
    """The fixed protocol configuration, restricted to knobs that still exist.

    ROADMAP items 2/3 plan to delete ``decrypt_mode``, ``keygen`` and the
    batch/worker switches; filtering by the dataclass's own fields lets this
    file survive each deletion without an edit.
    """
    wanted = {
        "keysize": KEYSIZE,
        "protocol": workload.protocol,
        "tree": workload.tree,
        "seed": 0,
        "decrypt_mode": "combine",
        "keygen": "dealer",
        "batch_crypto": True,
        "crypto_workers": 0,
    }
    known = {f.name for f in dataclasses.fields(PivotConfig)}
    return PivotConfig(**{k: v for k, v in wanted.items() if k in known})


def oracle_predictions(
    workload: Workload, inputs: Inputs, split_values: list[list[list[float]]]
) -> np.ndarray:
    """Plaintext CART on the same rows and the federation's own candidate grid.

    ``split_values[i][j]`` are party i's thresholds for her j-th local
    column; they are mapped back to global columns so the plaintext tree
    searches exactly the grid the protected one searched.
    """
    grid: list[list[float]] = [[] for _ in range(inputs.train.shape[1])]
    for cols, party_values in zip(inputs.columns, split_values):
        for column, values in zip(cols, party_values):
            grid[column] = list(values)
    tree = DecisionTree("classification", workload.tree)
    tree.fit(inputs.train, inputs.y, split_candidates=grid, n_classes=2)
    return tree.predict(inputs.heldout)
