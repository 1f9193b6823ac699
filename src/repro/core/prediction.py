"""Distributed model prediction (Algorithm 4 and §5.2).

**Basic protocol** (plaintext tree, Algorithm 4): the clients update an
encrypted prediction vector [η] in a round-robin manner, each applying,
for every leaf, the 0/1 result of comparing her own feature values
against the thresholds of the internal nodes she owns.  After all m
updates exactly one [1] survives, client u_1 computes [k̄] = z ⊙ [η] with
the public leaf-label vector z, and the clients jointly decrypt [k̄].

The round-robin runs **once per call, for all R rows**
(:func:`encrypted_leaf_sums`, the one place it exists): u_m encrypts her
own R × L 0/1 matrix under fresh masks, every middle party applies hers
with ``mask_vector`` — a fresh [0] where she rules a leaf out, a
re-masked ciphertext where she does not — so a hop is one message of R·L
ciphertexts none of which is linkable to what its sender received, and
one barrier; u_1 folds her own bits into the label coefficients of the
final dot product instead of sending anything.  What her dot products
return is a deterministic function of the vector u_2 sent, so it stays
with her until re-masked: :meth:`PivotContext.joint_decrypt_batch` packs
the R outputs and multiplies one pool mask of hers into each *packed*
ciphertext before the decryption broadcast.

L is the number of leaves that can change the answer.  Exactly one leaf
survives, so for any public z₀

    [k̄] = z₀ + Σ_{j : z_j ≠ z₀} (z_j − z₀) · [η_j],

and with z₀ the most frequent leaf label (the model is public; ties go to
the first leaf) at most half the leaves of a binary-labelled tree travel.
A tree whose leaves all carry one label sends and decrypts nothing.  The
outputs are packed at the width of the widest leaf label — 2-bit slots,
255 rows per 512-bit ciphertext, for binary classification.  Per row that
is (m − 1)·L pool masks and 1/⌊(|n| − 1)/(β + 1)⌋ threshold decryptions;
per call m − 1 hop rounds and the decryption flow's two.  The forest asks
for every leaf (its per-class votes need them) and the GBDT trainer
predicts all n training samples of a round in one call.

**Enhanced protocol** (§5.2 "Secret sharing based model prediction"): split
thresholds and leaf labels exist only in secretly shared form; feature
values are secret-shared by their owners, a marker is propagated from the
root with one secure comparison per internal node, and the prediction is
the inner product ⟨z⟩·⟨η⟩, revealed alone.

Party locality: every entry point takes the samples as *per-party slices* —
each client's own columns of the rows, exactly what a real deployment's
parties would hold.  ``party_slices`` (one ``n × d_i`` block per client)
is the federation API's native input; the ``row``-based wrappers split a
caller-supplied global row for single-process convenience (the caller owns
that row — splitting it reads no party's stored columns).  Training rows
are sliced with :func:`local_slices_for_sample`, which reads each client's
columns inside her own party scope.

The public ``predict_basic`` / ``predict_enhanced`` / ``predict_batch``
names are deprecation shims for the pre-federation flat API; new code goes
through :class:`repro.federation.PivotClassifier` /
:class:`~repro.federation.PivotRegressor` (or the ``run_predict_*``
internals these shims forward to).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core._deprecation import warn_deprecated as _warn_deprecated
from repro.core.context import PivotContext
from repro.crypto.encoding import EncryptedNumber
from repro.mpc import comparison
from repro.tree.model import DecisionTreeModel, TreeNode

__all__ = [
    "encrypted_leaf_sums",
    "enhanced_prediction_share",
    "global_rows_to_party_slices",
    "local_slices_for_sample",
    "predict_basic",
    "predict_basic_encrypted_batch",
    "predict_batch",
    "predict_enhanced",
    "run_predict_basic",
    "run_predict_batch",
    "run_predict_batch_slices",
    "run_predict_enhanced",
]


# ---------------------------------------------------------------------------
# sample slicing
# ---------------------------------------------------------------------------


def _local_slices(context: PivotContext, row: np.ndarray) -> list[np.ndarray]:
    """Split a caller-supplied global feature row into per-party slices."""
    return [
        np.asarray([row[c] for c in cols], dtype=np.float64)
        for cols in context.partition.columns_per_client
    ]


def global_rows_to_party_slices(
    context: PivotContext, rows: np.ndarray
) -> list[np.ndarray]:
    """Split caller-held global rows into per-party column blocks.

    The single source of truth for the column assignment when a
    single-process caller holds the full matrix (prediction wrappers,
    ``Federation.slices``); real deployments pass per-party blocks
    directly.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return [
        rows[:, list(cols)] for cols in context.partition.columns_per_client
    ]


def local_slices_for_sample(context: PivotContext, t: int) -> list[np.ndarray]:
    """Per-party slices of *training* sample ``t``.

    Each client reads her own columns inside her party scope — the
    locality-respecting replacement for reassembling a global training
    matrix in one place.
    """
    return [client.local_row(t) for client in context.clients]


def _party_blocks(
    context: PivotContext, party_slices: list[np.ndarray]
) -> list[np.ndarray]:
    """The m per-party blocks (n × d_i each), shape-checked."""
    blocks = [np.atleast_2d(np.asarray(block, dtype=np.float64)) for block in party_slices]
    if len(blocks) != context.n_clients:
        raise ValueError(
            f"expected {context.n_clients} per-party feature blocks, "
            f"got {len(blocks)}"
        )
    n = blocks[0].shape[0]
    for client, block in zip(context.clients, blocks):
        if block.shape[0] != n:
            raise ValueError("per-party blocks disagree on sample count")
        if block.shape[1] != client.n_features:
            raise ValueError(
                f"party {client.index} block has {block.shape[1]} columns, "
                f"she owns {client.n_features}"
            )
    return blocks


def _slices_per_row(
    context: PivotContext, party_slices: list[np.ndarray]
) -> list[list[np.ndarray]]:
    """Transpose per-party blocks (m arrays of n × d_i) into per-row slices."""
    blocks = _party_blocks(context, party_slices)
    return [[block[t] for block in blocks] for t in range(blocks[0].shape[0])]


# ---------------------------------------------------------------------------
# basic protocol (Algorithm 4)
# ---------------------------------------------------------------------------


_NEEDS_PLAINTEXT_TREE = (
    "basic prediction needs a plaintext tree; use the enhanced prediction "
    "for hidden models"
)


def _leaf_bits(
    model: DecisionTreeModel, blocks: list[np.ndarray], positions: list[int]
) -> list[np.ndarray]:
    """Per party, her R × L 0/1 matrix over the leaves at ``positions``:
    entry (r, j) is 0 iff one of her own comparisons on row r rules leaf j
    out (a leaf whose path crosses none of her nodes keeps a column of
    ones)."""
    paths = model.leaf_paths()
    n_rows = blocks[0].shape[0]
    bits = [np.ones((n_rows, len(positions)), dtype=np.int64) for _ in blocks]
    for column, position in enumerate(positions):
        for node, direction in paths[position]:
            if node.threshold is None or node.feature is None:
                raise ValueError(_NEEDS_PLAINTEXT_TREE)
            if not 0 <= node.owner < len(blocks):
                raise ValueError(
                    f"node owner {node.owner} is not one of the "
                    f"{len(blocks)} parties"
                )
            goes_left = blocks[node.owner][:, node.feature] <= node.threshold
            bits[node.owner][:, column] &= goes_left == (direction == 0)
    return bits


def encrypted_leaf_sums(
    model: DecisionTreeModel,
    context: PivotContext,
    party_slices: list[np.ndarray],
    positions: list[int],
    coefficients: list[list[int]],
) -> list[list[EncryptedNumber]]:
    """Algorithm 4's round-robin, once for all R rows of ``party_slices``.

    ``positions`` are the canonical positions of the L leaves that travel,
    ``coefficients`` K integer vectors over them.  Returns, per row r, the
    K ciphertexts [Σ_j c_kj · η_rj] at exponent 0, where η_rj is 1 iff row
    r reaches leaf ``positions[j]``.

    u_m encrypts her own R × L bits (row-major) under fresh masks; every
    middle party applies hers with ``mask_vector``; each hop is one
    ``prediction-vector`` message and one barrier.  u_1 sends nothing: her
    bits go into the coefficients of her dot products.  Those outputs are
    deterministic in the vector she received (u_2 could confirm a guess at
    her bits from them), so the caller re-masks whatever it lets leave
    her: the decryption entry points of :class:`PivotContext` do,
    Algorithm 2 adds her fresh mask encryption, the GBDT trainer re-masks
    what enters its published residuals.
    """
    ctx = context
    blocks = _party_blocks(ctx, party_slices)
    n_rows, width = blocks[0].shape[0], len(positions)
    if not n_rows or not width:  # nobody to ask, or nothing to ask about
        return [[ctx.encoder.zero() for _ in coefficients] for _ in range(n_rows)]
    bits = _leaf_bits(model, blocks, positions)
    last = ctx.n_clients - 1
    vector = ctx.batch.encrypt_vector(bits[last].ravel().tolist(), exponent=0)
    for sender in range(last, 0, -1):
        if sender < last:
            vector = ctx.batch.mask_vector(vector, bits[sender].ravel())
        ctx.bus.send_payload(sender, sender - 1, vector, tag="prediction-vector")
        ctx.bus.round()
    tasks = [
        (
            [c * b for c, b in zip(vector_k, own)],
            vector[r * width : (r + 1) * width],
        )
        for r, own in enumerate(bits[0].tolist())
        for vector_k in coefficients
    ]
    sums = ctx.batch.batch_dot_products(tasks)
    k = len(coefficients)
    return [sums[r * k : (r + 1) * k] for r in range(n_rows)]


def _leaf_label_encodings(
    model: DecisionTreeModel, context: PivotContext
) -> tuple[list[int], int]:
    """The public leaf-label vector z as signed fixed-point integers, and
    their exponent (class indices at 0, regression means at -frac_bits)."""
    leaves = model.leaves()
    if any(leaf.prediction is None for leaf in leaves):
        raise ValueError(_NEEDS_PLAINTEXT_TREE)
    if model.task == "classification":
        return [int(leaf.prediction) for leaf in leaves], 0
    encoder = context.encoder
    return (
        [encoder.encode(float(leaf.prediction)).encoding for leaf in leaves],
        -encoder.frac_bits,
    )


def predict_basic_encrypted_batch(
    model: DecisionTreeModel, context: PivotContext, party_slices: list[np.ndarray]
) -> list[EncryptedNumber]:
    """Algorithm 4 up to (excluding) the final joint decryption: [k̄] per
    row — used directly by the ensembles, which aggregate encrypted
    per-tree predictions before anything is revealed (§7).

    Only the leaves whose label differs from the most frequent one, z₀,
    travel: [k̄] = z₀ + Σ (z_j − z₀)·[η_j] (see the module docstring).
    Linkable to what u_1 received, like :func:`encrypted_leaf_sums`'s
    outputs.
    """
    labels, exponent = _leaf_label_encodings(model, context)
    counts = Counter(labels)
    base = max(labels, key=counts.__getitem__)  # ties: the first leaf's
    positions = [j for j, label in enumerate(labels) if label != base]
    sums = encrypted_leaf_sums(
        model, context, party_slices, positions,
        [[labels[j] - base for j in positions]],
    )
    return [
        context.encoder.wrap(row[0].ciphertext + base, exponent) for row in sums
    ]


def run_predict_basic(
    model: DecisionTreeModel, context: PivotContext, row: np.ndarray
) -> float | int:
    """Full Algorithm 4 for one caller-held global row (a batch of one)."""
    value = run_predict_batch(model, context, np.asarray(row))[0]
    return int(value) if model.task == "classification" else float(value)


# ---------------------------------------------------------------------------
# enhanced protocol (§5.2)
# ---------------------------------------------------------------------------


def enhanced_prediction_share(
    model: DecisionTreeModel, context: PivotContext, slices: list[np.ndarray]
):
    """§5.2 prediction kept in shared form: returns (⟨k̄⟩, label_scale).

    The building block for both single predictions (open the share) and
    ensemble aggregation (combine shares of several trees before anything
    is revealed).  Raises if the hidden leaves carry mixed label scales:
    the shared inner product sums over the leaves, so only a uniform scale
    can be applied after opening.
    """
    ctx, fx = context, context.fx
    engine = ctx.engine

    def walk(node: TreeNode, marker) -> list:
        if node.is_leaf:
            return [(node, marker)]
        threshold_share = node.hidden.get("threshold_share")
        if threshold_share is None:
            raise ValueError("node lacks a shared threshold; not an enhanced model")
        value = float(slices[node.owner][node.feature])
        x_share = engine.input_private(fx.encode(value), owner=node.owner)
        goes_left = comparison.le(engine, x_share, threshold_share, fx.k)
        left_marker = engine.mul(marker, goes_left)
        right_marker = marker - left_marker
        return walk(node.left, left_marker) + walk(node.right, right_marker)

    leaf_markers = walk(model.root, engine.share_public(1))
    # η in canonical leaf order; z from the hidden leaf labels.
    eta, z_shares, scales = [], [], []
    for node, marker in leaf_markers:
        label_share = node.hidden.get("label_share")
        if label_share is None:
            raise ValueError("leaf lacks a shared label; not an enhanced model")
        eta.append(marker)
        z_shares.append(label_share)
        scales.append(node.hidden.get("label_scale", 1.0))
    scale = scales[0] if scales else 1.0
    # A single label scale must apply to all leaves: the inner product sums
    # over them, and mixed per-leaf scales cannot be rescaled after the
    # sum.  Training guarantees uniformity (one provider per tree);
    # hand-built models that violate it are refused rather than silently
    # rescaled by scales[0].
    mixed = {s for s in scales if s != scale}
    if mixed:
        raise ValueError(
            f"enhanced model has mixed per-leaf label scales {sorted(mixed | {scale})}; "
            "the shared inner product admits only a uniform scale"
        )
    return engine.inner_product(eta, z_shares), scale


def run_predict_enhanced(
    model: DecisionTreeModel,
    context: PivotContext,
    row: np.ndarray | None = None,
    slices: list[np.ndarray] | None = None,
) -> float | int:
    """§5.2 prediction over the secretly shared model (opens one value)."""
    if slices is None:
        if row is None:
            raise ValueError("need a global row or per-party slices")
        slices = _local_slices(context, np.asarray(row))
    prediction_share, scale = enhanced_prediction_share(model, context, slices)
    value = context.open_value(prediction_share, tag="prediction-output")
    if model.task == "classification":
        return int(round(value))
    return float(value * scale)


# ---------------------------------------------------------------------------
# batched prediction
# ---------------------------------------------------------------------------


def run_predict_batch_slices(
    model: DecisionTreeModel,
    context: PivotContext,
    party_slices: list[np.ndarray],
    protocol: str = "basic",
) -> np.ndarray:
    """Predict many samples from per-party feature blocks.

    ``party_slices`` is the federation-native input: one ``n × d_i`` block
    per client, each holding only that party's columns.  Basic prediction
    is one Algorithm 4 round-robin for all n rows and one threshold
    decryption flow over the slot-packed outputs (see the module
    docstring); the revealed log has one entry per row either way.
    """
    if protocol == "basic":
        labels, exponent = _leaf_label_encodings(model, context)
        if len(set(labels)) == 1:
            # Every leaf says the same: nobody is asked, nothing decrypted.
            n_rows = _party_blocks(context, party_slices)[0].shape[0]
            values = [labels[0] * 2.0**exponent] * n_rows
            context.revealed.extend(("prediction-output", v) for v in values)
        else:
            # [k̄] is one entry of the public z, so its bound is the widest
            # leaf label's.
            values = context.joint_decrypt_batch(
                predict_basic_encrypted_batch(model, context, party_slices),
                tag="prediction-output",
                bound_bits=max(abs(label).bit_length() for label in labels),
            )
        if model.task == "classification":
            out = [int(round(v)) for v in values]
        else:
            out = [float(v) for v in values]
    elif protocol == "enhanced":
        out = [
            run_predict_enhanced(model, context, slices=slices)
            for slices in _slices_per_row(context, party_slices)
        ]
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    if model.task == "classification":
        return np.asarray(out, dtype=np.int64)
    return np.asarray(out, dtype=np.float64)


def run_predict_batch(
    model: DecisionTreeModel,
    context: PivotContext,
    rows: np.ndarray,
    protocol: str = "basic",
) -> np.ndarray:
    """`run_predict_batch_slices` over caller-held global rows."""
    party_slices = global_rows_to_party_slices(context, rows)
    return run_predict_batch_slices(model, context, party_slices, protocol)


# ---------------------------------------------------------------------------
# deprecated flat-API entry points
# ---------------------------------------------------------------------------


def predict_basic(
    model: DecisionTreeModel, context: PivotContext, row: np.ndarray
) -> float | int:
    """Deprecated: use the federation estimators (or run_predict_basic)."""
    _warn_deprecated("predict_basic", "PivotClassifier/PivotRegressor.predict")
    return run_predict_basic(model, context, row)


def predict_enhanced(
    model: DecisionTreeModel, context: PivotContext, row: np.ndarray
) -> float | int:
    """Deprecated: use the federation estimators (or run_predict_enhanced)."""
    _warn_deprecated(
        "predict_enhanced", "PivotClassifier(protocol='enhanced').predict"
    )
    return run_predict_enhanced(model, context, row)


def predict_batch(
    model: DecisionTreeModel,
    context: PivotContext,
    rows: np.ndarray,
    protocol: str = "basic",
) -> np.ndarray:
    """Deprecated: use the federation estimators (or run_predict_batch)."""
    _warn_deprecated("predict_batch", "PivotClassifier/PivotRegressor.predict")
    return run_predict_batch(model, context, rows, protocol)
