"""Every estimator predicts a batch of rows in one call (§7).

R rows predict what R single-row calls and the plaintext reference
predict, and a predict call's MPC and bus rounds are the same at every R:
no estimator loops over rows.  GBDT training's softmax is one call over
all samples, so its rounds do not grow with n either.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.core import ForestTrainer, GBDTTrainer, LogisticTrainer
from repro.data import make_classification, make_regression
from repro.tree import TreeParams
from repro.tree.gbdt import softmax_rows

from tests.core.conftest import make_context

N_TRAIN = 16
ROWS = 20
PARAMS = TreeParams(max_depth=1, max_splits=2)

CASES = [
    (kind, task, protocol)
    for kind in ("forest", "gbdt")
    for task in ("classification", "regression")
    for protocol in ("basic", "enhanced")
] + [("logistic", "classification", "basic")]


def _data(kind, task):
    if task == "regression":
        return make_regression(N_TRAIN + ROWS, 4, seed=1)
    classes = 2 if kind == "logistic" else 3
    return make_classification(N_TRAIN + ROWS, 4, n_classes=classes, seed=1)


@lru_cache(maxsize=None)
def _fitted(kind, task, protocol):
    X, y = _data(kind, task)
    ctx = make_context(X[:N_TRAIN], y[:N_TRAIN], task, protocol=protocol, params=PARAMS)
    if kind == "forest":
        trainer = ForestTrainer(ctx, n_trees=2, seed=5).fit()
    elif kind == "gbdt":
        trainer = GBDTTrainer(ctx, n_rounds=2).fit()
    else:
        trainer = LogisticTrainer(ctx, n_epochs=1).fit()
    return ctx, trainer, X[N_TRAIN:]


#: Rows whose top two classes (or whose logistic score and 0) are closer
#: than this are ties at the MPC's 2^-16 scale: converting a score to
#: shares rounds it either way, so any of the tied classes is an answer.
TIE_WINDOW = 2.0**-14


def _reference(kind, task, rows):
    """(the plaintext answer per row, the rows it decides): the aggregate
    of the basic fit's released trees (the enhanced fit grows the same
    trees, hidden), or the sign of the logistic score x·θ under the
    decrypted weights."""
    ctx, trainer, _ = _fitted(kind, task, "basic")
    everywhere = np.ones(len(rows), dtype=bool)
    if kind == "logistic":  # σ(z) >= 1/2 iff z >= 0
        weights = [
            ctx.threshold.joint_decrypt(w.ciphertext) * 2.0**w.exponent
            for block in trainer.weights
            for w in block
        ]
        columns = [c for cols in ctx.partition.columns_per_client for c in cols]
        z = rows[:, columns] @ np.asarray(weights)
        return (z >= 0).astype(int), np.abs(z) > TIE_WINDOW
    if kind == "forest":
        per_tree = np.stack([model.predict(rows) for model in trainer.models])
        if task == "regression":
            return per_tree.mean(axis=0), everywhere
        votes = [np.bincount(col.astype(int), minlength=trainer.n_classes) for col in per_tree.T]
        return np.asarray([int(np.argmax(v)) for v in votes]), everywhere
    if task == "regression":
        steps = [trainer.learning_rate * model.predict(rows) for model in trainer.models]
        return np.sum(steps, axis=0) * trainer.label_scale, everywhere
    scores = np.zeros((len(rows), trainer.n_classes))
    for round_models in trainer.class_models:
        for k, model in enumerate(round_models):
            scores[:, k] += trainer.learning_rate * model.predict(rows)
    top_two = np.sort(scores, axis=1)[:, -2:]
    # Softmax is monotone: the raw scores decide.
    return np.argmax(scores, axis=1), top_two[:, 1] - top_two[:, 0] > TIE_WINDOW


def _assert_same(task, got, want, scale=1.0):
    if task == "classification":
        assert list(got) == list(want)
    else:  # enhanced shares pick up ±1 ulp of trunc_pr noise per call
        assert np.allclose(got, want, atol=1e-3 * max(1.0, scale))


@pytest.mark.parametrize("kind, task, protocol", CASES)
def test_rows_in_one_call(kind, task, protocol):
    ctx, trainer, rows = _fitted(kind, task, protocol)
    scale = abs(_data(kind, task)[1]).max()
    rounds = {}
    for count in (1, 10, ROWS):
        mpc, bus = ctx.engine.stats.rounds, ctx.bus.rounds
        batch = trainer.predict(rows[:count])
        rounds[count] = (ctx.engine.stats.rounds - mpc, ctx.bus.rounds - bus)
    assert rounds[1] == rounds[10] == rounds[ROWS], rounds
    reference, decided = _reference(kind, task, rows)
    assert decided.sum() >= ROWS // 2
    singles = np.asarray([trainer.predict(rows[r : r + 1])[0] for r in range(10)])
    _assert_same(task, singles[decided[:10]], batch[:10][decided[:10]], scale)
    _assert_same(task, batch[decided], reference[decided], scale)
    ctx.assert_drained()


def test_softmax_residuals_cost_the_same_rounds_at_every_n():
    """One conversion, one softmax over the n rows of c scores, one
    conversion back: the MPC and bus rounds of a boosting round's residual
    step are the same at n = 8 and n = 24."""
    ctx, trainer, _ = _fitted("gbdt", "classification", "basic")
    c = trainer.n_classes
    rng = np.random.default_rng(4)
    rounds = {}
    for n in (8, 24):
        values = rng.uniform(-1.0, 1.0, size=(n, c))
        labels = rng.integers(0, c, size=n)
        scores = [ctx.batch.encrypt_vector(values[:, k].tolist()) for k in range(c)]
        onehot = [
            ctx.batch.encrypt_vector([float(label == k) for label in labels])
            for k in range(c)
        ]
        mpc, bus = ctx.engine.stats.rounds, ctx.bus.rounds
        residuals = trainer._softmax_residuals(scores, onehot)
        rounds[n] = (ctx.engine.stats.rounds - mpc, ctx.bus.rounds - bus)
        got = np.asarray(
            [ctx.joint_decrypt_batch(column, tag="test") for column in residuals]
        ).T
        want = np.eye(c)[labels] - softmax_rows(values)
        assert np.allclose(got, want, atol=0.02)
    assert rounds[8] == rounds[24], rounds
    ctx.assert_drained()
