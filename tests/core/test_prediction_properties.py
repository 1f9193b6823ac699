"""Differential oracle for prediction on generated trees and rows.

Basic: one Algorithm 4 round-robin for a whole batch must say what a batch
of one says row by row, and both what the plaintext walk over the public
tree says — for any tree shape, any label set, any party count and any row
count around the slot-packing boundary — with the same revealed log, a
drained bus and measured bytes equal to the wire formulas.

Enhanced (§5.2): the same tree hidden — every threshold and leaf label
secret-shared at fixed point — must predict, in one batched walk, what the
plaintext walk says and what a batch of one says row by row, with the same
revealed log, in a number of MPC rounds that does not depend on the rows.
"""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import run_predict_batch
from repro.tree import DecisionTreeModel
from repro.tree.model import TreeNode

from tests.core.conftest import make_context

FEATURES_PER_PARTY = 2
#: Thresholds sit on the rows' value grid, so `<=` is exercised at equality.
GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]
LABELS = {
    "binary": st.integers(0, 1),
    "3-class": st.integers(0, 2),
    # Regression means in label units, negative ones included.
    "regression": st.integers(-2400, 2400).map(lambda z: z / 8.0),
}


@lru_cache(maxsize=None)
def _context(m: int, authenticated: bool = False):
    """A 256-bit federation of m parties; prediction reads its keys, codec,
    MPC engine and column layout only, so one serves every generated tree."""
    rng = np.random.default_rng(m)
    X = rng.normal(size=(8, m * FEATURES_PER_PARTY))
    return make_context(
        X, np.arange(8) % 2, "classification", m=m, authenticated_mpc=authenticated
    )


@st.composite
def _trees(draw, m: int, kind: str, shape: str):
    label = LABELS[kind]
    constant = draw(label)

    def grow(depth: int) -> TreeNode:
        if shape == "single-leaf" or depth == 3 or (depth and draw(st.booleans())):
            prediction = constant if shape != "grown" else draw(label)
            return TreeNode(is_leaf=True, depth=depth, prediction=prediction)
        owner = draw(st.integers(0, m - 1))
        feature = draw(st.integers(0, FEATURES_PER_PARTY - 1))
        return TreeNode(
            is_leaf=False,
            depth=depth,
            owner=owner,
            feature=feature,
            global_feature=owner * FEATURES_PER_PARTY + feature,
            threshold=draw(st.sampled_from(GRID)),
            left=grow(depth + 1),
            right=grow(depth + 1),
        )

    if kind == "regression":
        return DecisionTreeModel(grow(0), "regression")
    return DecisionTreeModel(grow(0), "classification", n_classes=3)


def _slots(ctx, model) -> int:
    """Rows per packed ciphertext: label width plus the sign offset."""
    if model.task == "classification":
        encodings = [int(z) for z in model.leaf_label_vector()]
    else:
        encodings = [
            ctx.encoder.encode(float(z)).encoding for z in model.leaf_label_vector()
        ]
    width = max(1, *(abs(z).bit_length() for z in encodings))
    return (ctx.threshold.public_key.n.bit_length() - 1) // (width + 1)


def _check_batch_against_batch_of_one_and_plaintext_walk(shape, data):
    m = data.draw(st.sampled_from([2, 3, 4]), label="m")
    kind = data.draw(st.sampled_from(sorted(LABELS)), label="labels")
    ctx = _context(m)
    model = data.draw(_trees(m, kind, shape), label="tree")
    slots = _slots(ctx, model)
    n_rows = data.draw(st.sampled_from([0, 1, slots, slots + 1]), label="rows")
    seed = data.draw(st.integers(0, 2**16), label="row seed")
    rows = np.random.default_rng(seed).choice(
        GRID, size=(n_rows, m * FEATURES_PER_PARTY)
    )

    decryptions = ctx.conversions.threshold_decryptions
    logged = len(ctx.revealed)
    batched = run_predict_batch(model, ctx, rows)
    batch_log = ctx.revealed[logged:]
    assert list(batched) == list(model.predict(rows))
    assert [value for _, value in batch_log] == [float(v) for v in batched]
    one_label = len(set(model.leaf_label_vector())) == 1
    assert ctx.conversions.threshold_decryptions - decryptions == (
        0 if one_label else -(-n_rows // slots)
    )
    # A batch of one per row, on the rows either side of every boundary.
    for r in sorted({0, 1, slots - 1, slots, n_rows - 1} & set(range(n_rows))):
        logged = len(ctx.revealed)
        (single,) = run_predict_batch(model, ctx, rows[r])
        assert single == batched[r]
        assert ctx.revealed[logged:] == [batch_log[r]]
    ctx.bus.assert_drained()
    assert ctx.bus.bytes == ctx.bus.bytes_estimated


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_batch_equals_batch_of_one_equals_plaintext_walk(data):
    _check_batch_against_batch_of_one_and_plaintext_walk("grown", data)


@pytest.mark.parametrize("shape", ["single-leaf", "one-label"])
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_a_tree_with_one_answer_asks_nobody(shape, data):
    ctx_messages = {m: _context(m).bus.messages for m in (2, 3, 4)}
    _check_batch_against_batch_of_one_and_plaintext_walk(shape, data)
    assert ctx_messages == {m: _context(m).bus.messages for m in (2, 3, 4)}


# -- enhanced prediction (§5.2) ---------------------------------------------------


def _hidden(ctx, model: DecisionTreeModel) -> DecisionTreeModel:
    """``model`` as the enhanced protocol holds it: thresholds and leaf labels
    secret-shared at fixed point, none of them in the clear."""
    fx, engine = ctx.fx, ctx.engine

    def hide(node: TreeNode) -> TreeNode:
        if node.is_leaf:
            leaf = TreeNode(is_leaf=True, depth=node.depth)
            leaf.hidden["label_share"] = engine._make_shared(fx.encode(node.prediction))
            return leaf
        left, right = node.children()
        hidden = TreeNode(
            is_leaf=False,
            depth=node.depth,
            owner=node.owner,
            feature=node.feature,
            global_feature=node.global_feature,
            left=hide(left),
            right=hide(right),
        )
        hidden.hidden["threshold_share"] = engine._make_shared(fx.encode(node.threshold))
        return hidden

    return DecisionTreeModel(hide(model.root), model.task, model.n_classes)


def _comparison_material(ctx) -> tuple[int, int, int]:
    usage = ctx.engine.dealer.usage
    return usage.prandm, usage.and_triples, usage.dabits


def _check_enhanced_batch(data, ctx, shape: str, row_counts) -> None:
    m = ctx.n_clients
    kind = data.draw(st.sampled_from(sorted(LABELS)), label="labels")
    model = data.draw(_trees(m, kind, shape), label="tree")
    hidden = _hidden(ctx, model)
    n_rows = data.draw(st.sampled_from(row_counts), label="rows")
    seed = data.draw(st.integers(0, 2**16), label="row seed")
    rows = np.random.default_rng(seed).choice(GRID, size=(n_rows, m * FEATURES_PER_PARTY))

    internal = model.internal_nodes()
    material, triples = _comparison_material(ctx), ctx.engine.dealer.usage.triples
    rounds, logged = ctx.engine.stats.rounds, len(ctx.revealed)
    batched = run_predict_batch(hidden, ctx, rows, protocol="enhanced")
    batch_rounds = ctx.engine.stats.rounds - rounds
    batch_log = ctx.revealed[logged:]
    assert list(batched) == list(model.predict(rows))
    assert batch_log == [("prediction-output", float(v)) for v in batched]
    # Table 2 per row: t comparisons; 2t Beaver triples (t − 1 markers
    # below the root, whose marker is the public 1, and t + 1 leaves), or
    # the one leaf product of a single-leaf tree.
    t = len(internal)
    prandm, _, dabits = _comparison_material(ctx)
    assert (prandm - material[0], dabits - material[2]) == (n_rows * t, n_rows * t)
    assert ctx.engine.dealer.usage.triples - triples == n_rows * max(2 * t, 1)
    if not n_rows:
        assert batch_rounds == 0
    else:
        owners = len({node.owner for node in internal})
        depth = max((node.depth + 1 for node in internal), default=0)
        compare = 8 if internal else 0
        below_root = max(depth - 1, 0)  # one multiplication round per level
        assert batch_rounds == owners + compare + below_root + 2
    if not internal:  # nothing compared: no comparison material at all
        assert _comparison_material(ctx) == material
    # A batch of one per row: the same prediction and the same log entry.
    for r in range(n_rows):
        logged = len(ctx.revealed)
        (single,) = run_predict_batch(hidden, ctx, rows[r], protocol="enhanced")
        assert single == batched[r]
        assert ctx.revealed[logged:] == [batch_log[r]]


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_enhanced_batch_equals_batch_of_one_equals_plaintext_walk(data):
    m = data.draw(st.sampled_from([2, 3, 4]), label="m")
    _check_enhanced_batch(data, _context(m), "grown", [0, 1, 2, 7])


@settings(deadline=None, max_examples=5)
@given(data=st.data())
def test_enhanced_single_leaf_tree_compares_nothing(data):
    _check_enhanced_batch(data, _context(3), "single-leaf", [0, 1, 3])


@settings(deadline=None, max_examples=5)
@given(data=st.data())
def test_enhanced_batch_under_authenticated_shares(data):
    """MACs through the packed word's concat, per-block parity and lift."""
    _check_enhanced_batch(data, _context(3, authenticated=True), "grown", [1, 5])


def test_enhanced_rounds_do_not_grow_with_the_rows():
    ctx = _context(3)
    leaves = iter(range(8))

    def grow(depth: int) -> TreeNode:
        if depth == 3:
            return TreeNode(is_leaf=True, depth=depth, prediction=next(leaves) % 3)
        return TreeNode(
            is_leaf=False, depth=depth, owner=depth % 3, feature=0,
            global_feature=depth % 3 * FEATURES_PER_PARTY, threshold=0.0,
            left=grow(depth + 1), right=grow(depth + 1),
        )

    model = DecisionTreeModel(grow(0), "classification", n_classes=3)
    hidden = _hidden(ctx, model)
    rounds = {}
    for n_rows in (1, 40):
        rows = np.random.default_rng(n_rows).choice(GRID, size=(n_rows, 3 * FEATURES_PER_PARTY))
        before = ctx.engine.stats.rounds
        assert list(run_predict_batch(hidden, ctx, rows, protocol="enhanced")) == list(
            model.predict(rows)
        )
        rounds[n_rows] = ctx.engine.stats.rounds - before
    # 3 owners' inputs, one compare, 2 marker levels below the root, the
    # leaves, the opening.
    assert rounds == {1: 3 + 8 + 2 + 2, 40: 3 + 8 + 2 + 2}
