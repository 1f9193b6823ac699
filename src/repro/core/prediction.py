"""Distributed model prediction (Algorithm 4 and §5.2).

**Basic protocol** (plaintext tree, Algorithm 4): the clients update an
encrypted prediction vector [η] of size t+1 in a round-robin manner; each
client multiplies in, for every leaf, a 0/1 factor obtained by comparing
her own feature values against the thresholds of the internal nodes she
owns.  After all m updates exactly one [1] survives, and client u_1
computes [k̄] = z ⊙ [η] with the public leaf-label vector z; the clients
jointly decrypt [k̄].

**Enhanced protocol** (§5.2 "Secret sharing based model prediction"): split
thresholds and leaf labels exist only in secretly shared form; feature
values are secret-shared by their owners, a marker is propagated from the
root with one secure comparison per internal node, and the prediction is
the inner product ⟨z⟩·⟨η⟩, revealed alone.

Party locality: every entry point takes the sample as *per-party slices* —
each client's own columns of the row, exactly what a real deployment's
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

import numpy as np

from repro.core._deprecation import warn_deprecated as _warn_deprecated
from repro.core.context import PivotContext
from repro.crypto.encoding import EncryptedNumber, encrypted_dot_product
from repro.mpc import comparison
from repro.tree.model import DecisionTreeModel, TreeNode

__all__ = [
    "enhanced_prediction_share",
    "global_rows_to_party_slices",
    "local_slices_for_sample",
    "predict_basic",
    "predict_basic_encrypted",
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


def _slices_per_row(
    context: PivotContext, party_slices: list[np.ndarray]
) -> list[list[np.ndarray]]:
    """Transpose per-party blocks (m arrays of n × d_i) into per-row slices."""
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
    return [[block[t] for block in blocks] for t in range(n)]


# ---------------------------------------------------------------------------
# basic protocol (Algorithm 4)
# ---------------------------------------------------------------------------


def predict_basic_encrypted_slices(
    model: DecisionTreeModel, context: PivotContext, slices: list[np.ndarray]
) -> EncryptedNumber:
    """Algorithm 4 up to (excluding) the final joint decryption.

    Returns [k̄] — used directly by the ensembles, which aggregate encrypted
    per-tree predictions before anything is revealed (§7).
    """
    ctx = context
    leaves = model.leaves()
    paths = model.leaf_paths()

    # u_m initialises [η] = ([1], ..., [1]) (Algorithm 4 line 3), batched.
    eta = ctx.batch.encrypt_vector([1] * len(leaves), exponent=0)
    for client_index in reversed(range(ctx.n_clients)):
        local = slices[client_index]
        for leaf_pos, path in enumerate(paths):
            factor = 1
            for node, direction in path:
                if node.owner != client_index:
                    continue
                if node.threshold is None or node.feature is None:
                    raise ValueError(
                        "basic prediction needs a plaintext tree; use "
                        "the enhanced prediction for hidden models"
                    )
                goes_left = local[node.feature] <= node.threshold
                matches = (direction == 0) == goes_left
                factor &= int(matches)
            # Possible paths keep their value (x1); impossible ones are
            # zeroed (x0).  Both are homomorphic multiplications (§4.3).
            eta[leaf_pos] = eta[leaf_pos] * factor
        if client_index > 0:
            ctx.bus.send_payload(
                client_index, client_index - 1, eta, tag="prediction-vector"
            )
            ctx.bus.round()

    # u_1: [k̄] = z ⊙ [η] (line 10).
    coefficients, exponent = _leaf_label_encodings(model, ctx)
    result = encrypted_dot_product(coefficients, eta)
    return ctx.encoder.wrap(result.ciphertext, exponent)


def _leaf_label_encodings(
    model: DecisionTreeModel, context: PivotContext
) -> tuple[list[int], int]:
    """The public leaf-label vector z as signed fixed-point integers, and
    their exponent (class indices at 0, regression means at -frac_bits)."""
    leaves = model.leaves()
    if model.task == "classification":
        return [int(leaf.prediction) for leaf in leaves], 0
    encoder = context.encoder
    return (
        [encoder.encode(float(leaf.prediction)).encoding for leaf in leaves],
        -encoder.frac_bits,
    )


def predict_basic_encrypted(
    model: DecisionTreeModel, context: PivotContext, row: np.ndarray
) -> EncryptedNumber:
    """`predict_basic_encrypted_slices` over a caller-held global row."""
    return predict_basic_encrypted_slices(model, context, _local_slices(context, row))


def run_predict_basic(
    model: DecisionTreeModel, context: PivotContext, row: np.ndarray
) -> float | int:
    """Full Algorithm 4: encrypted round-robin + joint decryption."""
    encrypted = predict_basic_encrypted(model, context, row)
    value = context.joint_decrypt(encrypted, tag="prediction-output")
    if model.task == "classification":
        return int(round(value))
    return float(value)


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
    batches the per-row joint decryptions: the n encrypted outputs [k̄] are
    slot-packed and go through one threshold-decryption fan-out
    (``joint_decrypt_batch``) instead of n serial ones — identical results
    and revealed log, one message flow, one Cd per packed ciphertext.
    """
    rows = _slices_per_row(context, party_slices)
    if protocol == "basic":
        encrypted = [
            predict_basic_encrypted_slices(model, context, slices)
            for slices in rows
        ]
        # [k̄] is one entry of the public z (η is one-hot), so its bound is
        # known: fx.k bits, or what the widest leaf label needs.
        labels, _ = _leaf_label_encodings(model, context)
        bound_bits = max(
            context.fx.k, *(abs(label).bit_length() for label in labels)
        )
        values = context.joint_decrypt_batch(
            encrypted, tag="prediction-output", bound_bits=bound_bits
        )
        if model.task == "classification":
            out = [int(round(v)) for v in values]
        else:
            out = [float(v) for v in values]
    elif protocol == "enhanced":
        out = [
            run_predict_enhanced(model, context, slices=slices) for slices in rows
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
