"""Secure gain computation (§4.1-4.2, Eq. 5/6/8) against plaintext metrics."""

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
    gains, _ = secure_split_gains(fx, "classification", node, [split], "paper", 0.0)
    secure = fx.open(gains[0])
    expected = metrics.gini_gain(np.array(left), np.array(right))
    assert secure == pytest.approx(expected, abs=5e-3)


def test_reduced_mode_ranks_like_paper_mode(fx):
    splits_counts = [
        ([10, 2], [3, 9]),
        ([6, 6], [7, 5]),
        ([12, 0], [1, 11]),
    ]
    node = None
    split_stats = []
    for left, right in splits_counts:
        n, s = make_classification_stats(fx, left, right)
        node = n  # same parent for all (counts sum equal by construction)
        split_stats.append(s)
    paper_gains, _ = secure_split_gains(
        fx, "classification", node, split_stats, "paper", 0.0
    )
    reduced_gains, _ = secure_split_gains(
        fx, "classification", node, split_stats, "reduced", 0.0
    )
    paper_order = np.argsort([fx.open(g) for g in paper_gains])
    reduced_order = np.argsort([fx.open(g) for g in reduced_gains])
    assert list(paper_order) == list(reduced_order)


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
    gains, _ = secure_split_gains(fx, "regression", node, [split], "paper", 0.0)
    expected = metrics.variance_gain(stats(y_left), stats(y_right))
    assert fx.open(gains[0]) == pytest.approx(expected, abs=5e-3)


def test_empty_side_yields_nonpositive_gain(fx):
    """A split with an empty child must never beat a genuine split."""
    node, split = make_classification_stats(fx, [5, 5], [0, 0])
    gains, threshold = secure_split_gains(
        fx, "classification", node, [split], "paper", 0.0
    )
    assert fx.open(gains[0]) <= fx.open(threshold) + 2e-3


def test_min_gain_moves_threshold_reduced_mode(fx):
    node, split = make_classification_stats(fx, [8, 1], [2, 9])
    _, thr_zero = secure_split_gains(
        fx, "classification", node, [split], "reduced", 0.0
    )
    _, thr_pos = secure_split_gains(
        fx, "classification", node, [split], "reduced", 0.05
    )
    assert fx.open(thr_pos) > fx.open(thr_zero)


# -- generated nodes: every mode and task, grouped by denominator -------------


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


def _plaintext_gain(task, gain_mode, left, right):
    (n_l, stats_l), (n_r, stats_r) = left, right
    if task == "classification":
        metric = metrics.gini_gain if gain_mode == "paper" else metrics.reduced_gini_score
        return metric(np.array(stats_l), np.array(stats_r))
    metric = (
        metrics.variance_gain if gain_mode == "paper" else metrics.reduced_variance_score
    )
    return metric((n_l, *stats_l), (n_r, *stats_r))


def _gain_step_cs(fx, task, gain_mode, n_splits, width):
    """Beaver multiplications of one node's gain step: 2S + 1 normalisations
    (one per distinct denominator) plus the per-fraction work."""
    normalisation = (2 * width - 1) + 3 + fx.theta  # Norm, AppRcr, x and its squarings
    per_numerator = fx.theta + 2
    classes = 3 if task == "classification" else 2  # statistics per side
    squares = 3 if task == "classification" else 1  # fx.mul(v, v) per purity
    groups = 2 * n_splits + 1
    if gain_mode == "reduced":
        return groups * (normalisation + per_numerator + squares)
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
    gain_mode=st.sampled_from(["paper", "reduced"]),
    n_splits=st.integers(min_value=1, max_value=4),
)
def test_generated_nodes_match_plaintext_metrics(fx, seed, task, gain_mode, n_splits):
    n, node, splits, plain = _generated_node(
        fx, np.random.default_rng(seed), task, n_splits
    )
    width = n.bit_length() + fx.f  # the trainer's declaration for n samples
    with opcount.counting() as ops:
        gains, threshold = secure_split_gains(
            fx, task, node, splits, gain_mode, 0.0, count_bits=width
        )
    assert ops["cs"] == _gain_step_cs(fx, task, gain_mode, n_splits, width)
    for gain, (left, right) in zip(gains, plain):
        expected = _plaintext_gain(task, gain_mode, left, right)
        assert fx.open(gain) == pytest.approx(expected, abs=5e-3)
    undeclared, _ = secure_split_gains(fx, task, node, splits, gain_mode, 0.0)
    for gain, wide in zip(gains, undeclared):
        assert fx.open(gain) == pytest.approx(fx.open(wide), abs=1e-3)
    if gain_mode == "reduced":
        # The parent's statistic: an empty side against the whole node.
        totals = [sum(pair) for pair in zip(plain[0][0][1], plain[0][1][1])]
        expected = _plaintext_gain(task, gain_mode, (0.0, [0.0] * len(totals)), (n, totals))
        assert fx.open(threshold) == pytest.approx(expected, abs=5e-3)
