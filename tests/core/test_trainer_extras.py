"""Additional trainer behaviours: non-default super client, Algorithm-1
feature removal, four clients, imbalanced masks."""

import numpy as np
import pytest

from repro.core import PivotConfig, TreeTrainer, run_predict_batch
from repro.data import make_classification, vertical_partition
from repro.federation import Federation
from repro.network.wire import PartialDecryptionVector, Request
from repro.tree import DecisionTree, TreeParams

from tests.core.conftest import (
    global_signature,
    global_split_grid,
    opened_signature,
    same_tree,
    spy_on_bus,
)


def test_super_client_need_not_be_client_zero(monkeypatch):
    """Party 2 holds the labels, and every conversion and decryption of a
    fit runs from her: she sends every ``split-stats`` request and every
    ``eq10`` ciphertext batch (and the Eq. 10 ``node-split``), and
    receives every ``split-stats`` reply, every partial decryption and
    every ``eq10`` send; the other parties' level groups pass between
    them alone.  Both protocols still grow plaintext CART's tree."""
    X, y = make_classification(30, 4, n_classes=2, seed=30)
    vp = vertical_partition(X, y, 3, task="classification", super_client=2)
    params = TreeParams(max_depth=2, max_splits=2)
    for protocol in ("basic", "enhanced"):
        ctx = Federation.from_partition(
            vp, PivotConfig(keysize=256, tree=params, seed=1, protocol=protocol)
        )
        spy = spy_on_bus(monkeypatch, ctx.bus)
        model = TreeTrainer(ctx).fit()
        plain = DecisionTree("classification", params).fit(
            X, y, split_candidates=global_split_grid(ctx)
        )
        expected = global_signature(plain.root, vp)
        if protocol == "basic":
            assert global_signature(model.root, vp) == expected
        else:
            assert same_tree(opened_signature(ctx, model.root, vp), expected)
        flows = [
            (sender, receiver, payload)
            for sender, receiver, tag, payload in spy
            if tag in ("mpc-convert", "eq10")
        ]
        batches = [
            sender
            for sender, receiver, payload in flows
            if receiver is None and not isinstance(payload, PartialDecryptionVector)
        ]
        # A tree level's batch is formed by every party from its
        # split-stats exchange; only Eq. 10 broadcasts one.
        assert set(batches) == ({2} if protocol == "enhanced" else set())
        assert {receiver for _, receiver, _ in flows} <= {2, None}
        vectors = [
            receiver
            for _, receiver, _, payload in spy
            if isinstance(payload, PartialDecryptionVector)
        ]
        assert vectors and set(vectors) == {2}
        stats = [
            (sender, receiver, payload)
            for sender, receiver, tag, payload in spy
            if tag == "split-stats"
        ]
        requests = [
            sender
            for sender, _, payload in stats
            if isinstance(payload, Request) and payload.op == "split-stats"
        ]
        replies = [
            receiver
            for _, receiver, payload in stats
            if not isinstance(payload, (Request, PartialDecryptionVector))
        ]
        groups = [
            (sender, receiver)
            for sender, receiver, payload in stats
            if isinstance(payload, Request) and payload.op == "level-groups"
        ]
        # Two replies (the other parties') per request, all to party 2, and
        # one level-groups frame each way between parties 0 and 1.
        assert set(requests) == {2} and set(replies) == {2}
        assert len(replies) == 2 * len(requests) > 0
        assert sorted(groups) == sorted([(0, 1), (1, 0)] * len(requests))


@pytest.mark.parametrize("seed", range(1, 9))
def test_exact_ties_resolve_to_the_earliest_candidate(seed):
    """The dataset above, whatever the dealer stream: in the root's left
    child two candidates (on features 1 and 3) have identical statistics,
    so their shared gains differ only by truncation noise; plaintext CART
    keeps the earlier one and so must the secure argmax (its slack)."""
    X, y = make_classification(30, 4, n_classes=2, seed=30)
    vp = vertical_partition(X, y, 3, task="classification", super_client=2)
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = Federation.from_partition(vp, PivotConfig(keysize=256, tree=params, seed=seed))
    grid = global_split_grid(ctx)
    plain = DecisionTree("classification", params).fit(X, y, split_candidates=grid)

    root = plain.root
    child = X[:, root.feature] <= root.threshold

    def left_counts(feature, threshold):
        return list(np.bincount(y[child][X[child, feature] <= threshold], minlength=2))

    chosen = left_counts(root.left.feature, root.left.threshold)
    tied = [f for f in range(4) for t in grid[f] if left_counts(f, t) == chosen]
    assert tied == [1, 3] and root.left.feature == 1, "the premise: an exact tie"

    model = TreeTrainer(ctx).fit()
    assert global_signature(model.root, vp) == global_signature(plain.root, vp)


def test_four_clients():
    X, y = make_classification(30, 4, n_classes=2, seed=31)
    vp = vertical_partition(X, y, 4, task="classification")
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = Federation.from_partition(vp, PivotConfig(keysize=256, tree=params, seed=2))
    model = TreeTrainer(ctx).fit()
    plain = DecisionTree("classification", params).fit(
        X, y, split_candidates=global_split_grid(ctx)
    )
    assert global_signature(model.root, vp) == global_signature(plain.root, vp)


def test_remove_used_feature_matches_plaintext():
    """Algorithm 1 literal mode: the chosen feature leaves the child sets."""
    X, y = make_classification(40, 4, n_classes=2, seed=32)
    vp = vertical_partition(X, y, 2, task="classification")
    params = TreeParams(max_depth=3, max_splits=2, remove_used_feature=True)
    ctx = Federation.from_partition(vp, PivotConfig(keysize=256, tree=params, seed=3))
    model = TreeTrainer(ctx).fit()
    for path in model.leaf_paths():
        used = [(node.owner, node.feature) for node, _ in path]
        assert len(used) == len(set(used)), "a path reused a removed feature"
    plain = DecisionTree("classification", params).fit(
        X, y, split_candidates=global_split_grid(ctx)
    )
    assert global_signature(model.root, vp) == global_signature(plain.root, vp)


def test_shuffled_column_assignment():
    """Vertical partitions with shuffled columns map features correctly."""
    X, y = make_classification(30, 6, n_classes=2, seed=33)
    vp = vertical_partition(
        X, y, 3, task="classification", shuffle_columns=True, seed=9
    )
    params = TreeParams(max_depth=2, max_splits=2)
    ctx = Federation.from_partition(vp, PivotConfig(keysize=256, tree=params, seed=4))
    model = TreeTrainer(ctx).fit()
    # Local prediction through global_feature equals the secure protocol.
    secure = run_predict_batch(model, ctx, X[:8])
    local = model.predict(X[:8])
    assert list(secure) == list(local)


def test_single_feature_per_client():
    X, y = make_classification(24, 3, n_classes=2, seed=34)
    vp = vertical_partition(X, y, 3, task="classification")
    assert all(len(c) == 1 for c in vp.columns_per_client)
    ctx = Federation.from_partition(
        vp, PivotConfig(keysize=256, tree=TreeParams(max_depth=2, max_splits=2), seed=5)
    )
    model = TreeTrainer(ctx).fit()
    assert model.n_internal >= 1


def test_tiny_mask_becomes_leaf():
    X, y = make_classification(30, 4, n_classes=2, seed=35)
    vp = vertical_partition(X, y, 3, task="classification")
    ctx = Federation.from_partition(
        vp,
        PivotConfig(
            keysize=256,
            tree=TreeParams(max_depth=2, max_splits=2, min_samples_split=2),
            seed=6,
        ),
    )
    mask = np.zeros(30, dtype=bool)
    mask[0] = True  # a single sample: below min_samples_split
    model = TreeTrainer(ctx).fit(initial_mask=mask)
    assert model.root.is_leaf
    assert model.root.prediction == y[0]


def test_revealed_log_grows_monotonically():
    X, y = make_classification(24, 4, n_classes=2, seed=36)
    vp = vertical_partition(X, y, 3, task="classification")
    ctx = Federation.from_partition(
        vp, PivotConfig(keysize=256, tree=TreeParams(max_depth=1, max_splits=2), seed=7)
    )
    TreeTrainer(ctx).fit()
    first = len(ctx.revealed)
    TreeTrainer(ctx).fit()
    assert len(ctx.revealed) > first  # contexts accumulate across runs


def test_refuses_a_fit_whose_counts_break_division():
    """A count of n samples is n·2^F raw and secure division needs it below
    2^(2F-1): at 2^(F-1) samples the trainer refuses, naming F, before a
    single ciphertext exists.  (F = 8 keeps the table to 128 rows.)"""
    from repro.analysis import opcount

    frac_bits = 8
    limit = 1 << (frac_bits - 1)
    X = np.arange(limit * 3, dtype=float).reshape(limit, 3)
    y = np.arange(limit) % 2
    for rows, refused in ((limit - 1, False), (limit, True)):
        vp = vertical_partition(X[:rows], y[:rows], 3, task="classification")
        ctx = Federation.from_partition(vp, PivotConfig(keysize=256, frac_bits=frac_bits, seed=1))
        with opcount.counting() as ops:
            if refused:
                with pytest.raises(ValueError, match="F = 8"):
                    TreeTrainer(ctx)
            else:
                TreeTrainer(ctx)
        assert ops["ce"] == 0
