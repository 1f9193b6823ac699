"""Basic-protocol training (§4): protocol-equivalence with plaintext CART,
pruning behaviour, privacy of the transcript, and cost accounting."""

import numpy as np
import pytest

from repro.analysis import opcount
from repro.core import TreeTrainer
from repro.tree import DecisionTree, TreeParams

from tests.core.conftest import global_signature, global_split_grid, make_context


def plaintext_reference(context, X, y, params):
    task = context.partition.task
    grid = global_split_grid(context)
    return DecisionTree(task, params).fit(X, y, split_candidates=grid)


def test_classification_equals_plaintext_cart(small_classification):
    X, y = small_classification
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = make_context(X, y, "classification", params=params)
    model = TreeTrainer(ctx).fit()
    reference = plaintext_reference(ctx, X, y, params)
    assert global_signature(model.root, ctx.partition) == global_signature(
        reference.root, ctx.partition
    )


def test_multiclass_equals_plaintext_cart(small_multiclass):
    X, y = small_multiclass
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = make_context(X, y, "classification", params=params, seed=3)
    model = TreeTrainer(ctx).fit()
    reference = plaintext_reference(ctx, X, y, params)
    assert global_signature(model.root, ctx.partition) == global_signature(
        reference.root, ctx.partition
    )


def test_regression_equals_plaintext_cart(small_regression):
    X, y = small_regression
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = make_context(X, y, "regression", params=params)
    model = TreeTrainer(ctx).fit()
    reference = plaintext_reference(ctx, X, y, params)
    # Leaf means agree to fixed-point precision; compare structure and
    # leaves separately with tolerance.
    secure_leaves = [leaf.prediction for leaf in model.leaves()]
    plain_leaves = [leaf.prediction for leaf in reference.leaves()]
    assert len(secure_leaves) == len(plain_leaves)
    for s, p in zip(secure_leaves, plain_leaves):
        assert s == pytest.approx(p, abs=1e-3)
    secure_splits = [
        (n.owner, n.feature, round(n.threshold, 8)) for n in model.internal_nodes()
    ]
    plain_splits = [
        (
            n.feature,
            round(n.threshold, 8),
        )
        for n in reference.internal_nodes()
    ]
    mapped = [
        (ctx.partition.global_feature_of(o, f), t) for o, f, t in secure_splits
    ]
    assert mapped == plain_splits


def test_two_clients(small_classification):
    X, y = small_classification
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = make_context(X, y, "classification", m=2, params=params)
    model = TreeTrainer(ctx).fit()
    reference = plaintext_reference(ctx, X, y, params)
    assert global_signature(model.root, ctx.partition) == global_signature(
        reference.root, ctx.partition
    )


def test_max_depth_zero_splits(small_classification):
    X, y = small_classification
    ctx = make_context(
        X, y, "classification", params=TreeParams(max_depth=1, max_splits=2)
    )
    model = TreeTrainer(ctx).fit()
    assert model.max_depth <= 1


def test_min_samples_split_prunes(small_classification):
    X, y = small_classification
    ctx = make_context(
        X,
        y,
        "classification",
        params=TreeParams(max_depth=3, max_splits=2, min_samples_split=len(y) + 1),
    )
    model = TreeTrainer(ctx).fit()
    assert model.root.is_leaf
    # Majority class leaf.
    assert model.root.prediction == int(np.bincount(y).argmax())


def test_pure_node_becomes_leaf():
    X = np.array([[0.1, 5.0], [0.2, 6.0], [0.3, 7.0], [0.4, 8.0]])
    y = np.array([1, 1, 1, 1])
    ctx = make_context(X, y, "classification", m=2)
    model = TreeTrainer(ctx).fit()
    assert model.root.is_leaf
    assert model.root.prediction == 1


def test_initial_mask_restricts_samples(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    mask = np.zeros(len(y), dtype=bool)
    mask[:10] = True
    model = TreeTrainer(ctx).fit(initial_mask=mask)
    reference = DecisionTree(
        "classification", TreeParams(max_depth=2, max_splits=2)
    ).fit(X[:10], y[:10], split_candidates=global_split_grid(ctx), n_classes=2)
    # The masked secure tree predicts like the plaintext tree trained on the
    # same 10 samples (thresholds may differ since the secure grid comes
    # from all n rows; compare leaf predictions on the masked samples).
    from repro.core import run_predict_batch

    assert list(run_predict_batch(model, ctx, X[:10])) == list(
        reference.predict(X[:10])
    )


def test_initial_mask_length_validated(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    with pytest.raises(ValueError):
        TreeTrainer(ctx).fit(initial_mask=np.ones(3, dtype=bool))


@pytest.mark.parametrize("weight", [0.5, -1, np.nan, np.inf])
def test_initial_mask_weights_must_be_non_negative_integers(
    small_classification, weight
):
    """The root weights travel as plain integers: a cast would truncate
    all-0.5 weights to 0 and train one leaf on nobody."""
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    with pytest.raises(ValueError, match="non-negative integers"):
        TreeTrainer(ctx).fit(initial_mask=np.full(len(y), weight))
    ctx.bus.assert_drained()


def test_transcript_reveals_only_model_information(small_classification):
    """Empirical §4.4 check: everything opened during basic training is
    either a pruning bit, a best-split identifier, or a leaf label."""
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    TreeTrainer(ctx).fit()
    allowed_prefixes = (
        "prune-count",
        "prune-pure",
        "prune-gain",
        "best-split",
        "leaf-label",
    )
    assert ctx.revealed, "training must have logged its openings"
    for tag, _value in ctx.revealed:
        assert tag.startswith(allowed_prefixes), f"unexpected reveal {tag!r}"


def test_cost_accounting_nonzero(small_classification):
    X, y = small_classification
    ctx = make_context(X, y, "classification")
    denominators = []
    norm = ctx.fx.norm

    def counting_norm(bs):
        denominators.append(len(bs))
        return norm(bs)

    ctx.fx.norm = counting_norm
    with opcount.counting() as ops:
        TreeTrainer(ctx).fit()
    costs = ctx.cost_snapshot()
    assert costs["conversions"]["threshold_decryptions"] > 0
    assert costs["bus"]["bytes"] > 0
    assert costs["mpc"]["rounds"] > 0
    # `triples` are field Beaver triples, one per Cs; the binary material of
    # comparisons and Norm is counted apart and is no field multiplication:
    # one daBit per comparison, and per normalised denominator one daBit
    # (the carry lift) and two edaBits (decompose, back to Z_q).
    normalised = sum(denominators)
    assert costs["dealer"]["triples"] == ops["cs"] > 0
    assert costs["dealer"]["dabits"] == ops["cc"] + normalised
    assert costs["dealer"]["edabits"] == 2 * normalised > 0
    assert costs["dealer"]["and_triples"] > 0


def test_conversion_count_scales_with_splits(small_classification):
    """Table 2: MPC conversions are O(c·d·b) per node, not O(n)."""
    X, y = small_classification
    ctx_small_b = make_context(
        X, y, "classification", params=TreeParams(max_depth=1, max_splits=1)
    )
    ctx_large_b = make_context(
        X, y, "classification", params=TreeParams(max_depth=1, max_splits=4)
    )
    TreeTrainer(ctx_small_b).fit()
    TreeTrainer(ctx_large_b).fit()
    small = ctx_small_b.conversions.threshold_decryptions
    large = ctx_large_b.conversions.threshold_decryptions
    assert large > small


def test_min_samples_leaf_masking(small_classification):
    X, y = small_classification
    params = TreeParams(max_depth=2, max_splits=2, min_samples_leaf=5)
    ctx = make_context(X, y, "classification", params=params)
    model = TreeTrainer(ctx).fit()
    reference = plaintext_reference(ctx, X, y, params)
    assert global_signature(model.root, ctx.partition) == global_signature(
        reference.root, ctx.partition
    )
