"""Differential privacy (§9.2, Algorithms 5-6)."""

import statistics

import pytest

from repro.core import DPConfig, TreeTrainer
from repro.core.dp import DPMechanisms
from repro.mpc import FixedPointOps, MPCEngine
from repro.tree import TreeParams

from tests.core.conftest import make_context


@pytest.fixture(scope="module")
def fx():
    return FixedPointOps(MPCEngine(3, seed=77))


def test_epsilon_validated(fx):
    with pytest.raises(ValueError):
        DPMechanisms(fx, DPConfig(epsilon=0.0))


def test_budget_accounting():
    cfg = DPConfig(epsilon=0.5)
    assert cfg.total_budget(max_depth=4) == pytest.approx(2 * 0.5 * 5)


def test_laplace_sample_distribution(fx):
    dp = DPMechanisms(fx, DPConfig(epsilon=1.0))
    samples = fx.open(dp.laplace_sample(0.0, 1.0, 150))
    # Lap(0, 1): mean 0, std sqrt(2); wide tolerances for 150 draws with a
    # 2^-16 sampling grid and the ln-range clamp.
    assert abs(statistics.mean(samples)) < 0.35
    assert 0.9 < statistics.stdev(samples) < 2.0


def test_laplace_location_shift(fx):
    dp = DPMechanisms(fx, DPConfig(epsilon=1.0))
    samples = fx.open(dp.laplace_sample(5.0, 0.5, 80))
    assert abs(statistics.mean(samples) - 5.0) < 0.5


def test_laplace_noise_scales_with_epsilon(fx):
    tight = DPMechanisms(fx, DPConfig(epsilon=10.0))
    loose = DPMechanisms(fx, DPConfig(epsilon=0.5))
    tight_spread = statistics.stdev(fx.open(tight.laplace_noise(1.0, 60)))
    loose_spread = statistics.stdev(fx.open(loose.laplace_noise(1.0, 60)))
    assert loose_spread > 3 * tight_spread


def test_exponential_mechanism_interface(fx):
    """One (index, one-hot) per row of scores; rows may differ in length."""
    dp = DPMechanisms(fx, DPConfig(epsilon=2.0))
    scores = [fx.share(s) for s in (0.1, 0.9, 0.3)]
    (index, onehot), (single, only) = dp.exponential_mechanism(
        [scores, [fx.share(0.5)]]
    )
    i, *bits = fx.engine.open_many([index, *onehot])
    assert 0 <= i < 3
    assert bits == [int(j == i) for j in range(3)]
    assert fx.engine.open_many([single, *only]) == [0, 1]


def test_exponential_mechanism_prefers_high_scores(fx):
    dp = DPMechanisms(fx, DPConfig(epsilon=8.0))
    row = [fx.share(s) for s in (0.0, 0.0, 3.0)]
    picks = fx.engine.open_many(
        [index for index, _ in dp.exponential_mechanism([row] * 40, sensitivity=2.0)]
    )
    assert picks.count(2) > 25


def test_exponential_mechanism_empty_rejected(fx):
    dp = DPMechanisms(fx, DPConfig(epsilon=1.0))
    with pytest.raises(ValueError):
        dp.exponential_mechanism([[]])
    assert dp.exponential_mechanism([]) == []


def test_dp_training_produces_valid_tree(small_classification):
    X, y = small_classification
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = make_context(
        X, y, "classification", params=params, dp=DPConfig(epsilon=5.0), seed=13
    )
    model = TreeTrainer(ctx).fit()
    assert model.max_depth <= 2
    for leaf in model.leaves():
        assert leaf.prediction in (0, 1)
    # Under DP the gain-based pruning is skipped; only prune-count opens.
    tags = {tag.split("-d")[0] for tag, _ in ctx.revealed}
    assert "prune-gain" not in tags


def test_dp_training_with_tight_budget_still_works(small_classification):
    X, y = small_classification
    params = TreeParams(max_depth=1, max_splits=2)
    ctx = make_context(
        X, y, "classification", params=params, dp=DPConfig(epsilon=0.1), seed=14
    )
    model = TreeTrainer(ctx).fit()
    assert model.max_depth <= 1


def test_dp_accuracy_degrades_gracefully(small_classification):
    """High epsilon ~ non-private accuracy; this is the §9.2 trade-off."""
    from repro.tree.metrics import accuracy
    from repro.core import run_predict_batch

    X, y = small_classification
    params = TreeParams(max_depth=2, max_splits=2)
    private_ctx = make_context(
        X, y, "classification", params=params, dp=DPConfig(epsilon=20.0), seed=15
    )
    private = TreeTrainer(private_ctx).fit()
    public_ctx = make_context(X, y, "classification", params=params, seed=15)
    public = TreeTrainer(public_ctx).fit()
    acc_private = accuracy(run_predict_batch(private, private_ctx, X), y)
    acc_public = accuracy(run_predict_batch(public, public_ctx, X), y)
    assert acc_private >= acc_public - 0.25
