"""Differential oracle for basic prediction on generated trees and rows.

One Algorithm 4 round-robin for a whole batch must say what a batch of one
says row by row, and both what the plaintext walk over the public tree
says — for any tree shape, any label set, any party count and any row
count around the slot-packing boundary — with the same revealed log, a
drained bus and measured bytes equal to the wire formulas.
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
def _context(m: int):
    """A 256-bit federation of m parties; prediction reads its keys, codec
    and column layout only, so one serves every generated tree."""
    rng = np.random.default_rng(m)
    X = rng.normal(size=(8, m * FEATURES_PER_PARTY))
    return make_context(X, np.arange(8) % 2, "classification", m=m)


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
    assert ctx.bus.bytes_measured == ctx.bus.bytes_estimated


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
