"""Secure gain computation (§4.1-4.2, Eq. 5/6/8) against plaintext metrics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import opcount
from repro.core.gain import NodeStats, SplitStats, secure_split_gains
from repro.mpc import FixedPointOps, MPCEngine
from repro.tree import metrics

relaxed = settings(
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture()
def fx():
    return FixedPointOps(MPCEngine(3, seed=55))


def share_counts(fx, counts):
    return [fx.share(float(c)) for c in counts]


def make_classification_stats(fx, left_counts, right_counts):
    left = np.asarray(left_counts, dtype=float)
    right = np.asarray(right_counts, dtype=float)
    node = NodeStats(
        n=fx.share(float(left.sum() + right.sum())),
        totals=share_counts(fx, left + right),
    )
    split = SplitStats(
        n_left=fx.share(float(left.sum())),
        n_right=fx.share(float(right.sum())),
        left=share_counts(fx, left),
        right=share_counts(fx, right),
    )
    return node, split


@relaxed
@given(
    left=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=3),
    right=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=3),
)
def test_paper_mode_matches_eq5(fx, left, right):
    size = max(len(left), len(right))
    left = left + [0] * (size - len(left))
    right = right + [0] * (size - len(right))
    if sum(left) == 0 or sum(right) == 0:
        return  # degenerate split: masked by validity handling
    node, split = make_classification_stats(fx, left, right)
    (gains,), _ = secure_split_gains(fx, "classification", [node], [[split]], 0.0)
    secure = fx.open(gains)[0]
    expected = metrics.gini_gain(np.array(left), np.array(right))
    assert secure == pytest.approx(expected, abs=5e-3)


def test_regression_paper_mode_matches_eq6(fx):
    y_left = np.array([0.2, 0.4, 0.1])
    y_right = np.array([-0.5, -0.2])
    stats = lambda v: (len(v), float(v.sum()), float((v**2).sum()))  # noqa: E731
    node = NodeStats(
        n=fx.share(5.0),
        totals=[
            fx.share(float(y_left.sum() + y_right.sum())),
            fx.share(float((y_left**2).sum() + (y_right**2).sum())),
        ],
    )
    split = SplitStats(
        n_left=fx.share(3.0),
        n_right=fx.share(2.0),
        left=[fx.share(float(y_left.sum())), fx.share(float((y_left**2).sum()))],
        right=[fx.share(float(y_right.sum())), fx.share(float((y_right**2).sum()))],
    )
    (gains,), _ = secure_split_gains(fx, "regression", [node], [[split]], 0.0)
    expected = metrics.variance_gain(stats(y_left), stats(y_right))
    assert fx.open(gains)[0] == pytest.approx(expected, abs=5e-3)


def test_empty_side_yields_nonpositive_gain(fx):
    """A split with an empty child must never beat a genuine split."""
    node, split = make_classification_stats(fx, [5, 5], [0, 0])
    (gains,), (threshold,) = secure_split_gains(
        fx, "classification", [node], [[split]], 0.0
    )
    gain, limit = fx.open([gains[0], threshold])
    assert gain <= limit + 2e-3


# -- generated nodes: both tasks, grouped by denominator -------------


def _generated_node(fx, rng, task, n_splits):
    """A node of 4-40 samples with ``n_splits`` random two-sided splits:
    shared statistics plus the plaintext (left, right) statistics of each."""
    n = int(rng.integers(4, 41))
    if task == "classification":
        labels = rng.integers(0, 3, size=n)
        columns = [(labels == k).astype(float) for k in range(3)]
    else:
        labels = rng.uniform(-1.0, 1.0, size=n)
        columns = [labels, labels**2]

    def stats(mask):
        return float(mask.sum()), [float(col[mask].sum()) for col in columns]

    def shared(values):
        return [fx.share(v) for v in values]

    node = NodeStats(fx.share(float(n)), shared(stats(np.ones(n, bool))[1]))
    splits, plain = [], []
    for _ in range(n_splits):
        goes_left = rng.permutation(n) < rng.integers(1, n)  # both sides non-empty
        (n_l, left), (n_r, right) = stats(goes_left), stats(~goes_left)
        splits.append(
            SplitStats(fx.share(n_l), fx.share(n_r), shared(left), shared(right))
        )
        plain.append(((n_l, left), (n_r, right)))
    return n, node, splits, plain


def _plaintext_gain(task, left, right):
    (n_l, stats_l), (n_r, stats_r) = left, right
    if task == "classification":
        return metrics.gini_gain(np.array(stats_l), np.array(stats_r))
    return metrics.variance_gain((n_l, *stats_l), (n_r, *stats_r))


def _gain_step_cs(fx, task, n_splits):
    """Beaver multiplications of one node's gain step: per distinct
    denominator (2S + 1 of them, one ``div`` call) Norm's c = b·v, AppRcr,
    x and its squarings, plus the per-fraction work."""
    normalisation = 3 + fx.theta
    per_numerator = fx.theta + 2
    classes = 3 if task == "classification" else 2  # statistics per side
    squares = 3 if task == "classification" else 1  # squared fractions per purity
    groups = 2 * n_splits + 1
    numerators = classes + n_splits + 2 * classes * n_splits
    products = squares + n_splits * (2 * squares + 2)  # purities, w_l·P_l, w_r·P_r
    return groups * normalisation + numerators * per_numerator + products


@settings(
    deadline=None,
    max_examples=16,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    task=st.sampled_from(["classification", "regression"]),
    n_splits=st.integers(min_value=1, max_value=4),
)
def test_generated_nodes_match_plaintext_metrics(fx, seed, task, n_splits):
    n, node, splits, plain = _generated_node(
        fx, np.random.default_rng(seed), task, n_splits
    )
    stats = fx.engine.stats
    before = stats.rounds
    fx.div([[fx.share(1.0)]], [fx.share(2.0)])
    div_rounds, before = stats.rounds - before, stats.rounds
    with opcount.counting() as ops, mock.patch.object(fx, "div", wraps=fx.div) as div:
        (gains,), (threshold,) = secure_split_gains(fx, task, [node], [splits], 0.0)
    assert div.call_count == 1  # one Norm for the node's 2S + 1 denominators
    assert ops["cs"] == _gain_step_cs(fx, task, n_splits)
    # Besides the division, one batch of products (multiply, then truncate)
    # per dependent step whatever S: the squares, then the weights.
    assert stats.rounds - before == div_rounds + 2 * 2
    for gain, (left, right) in zip(fx.open(gains), plain):
        expected = _plaintext_gain(task, left, right)
        assert gain == pytest.approx(expected, abs=5e-3)
