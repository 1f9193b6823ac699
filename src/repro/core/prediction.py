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
with her until re-masked: :meth:`Federation.joint_decrypt_batch` packs
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

That walk also runs **once per call, for all R rows**
(:func:`enhanced_prediction_shares`): each party inputs all her values
in one batch, one packed comparison (``comparison.ltz``) covers the
R × t node tests, the markers take one multiplication round per tree
level below the root and the R × L leaf products one more, and the R
outputs are opened together.  The rounds of a call are those of one row
— at most (parties + 8 + h + 1) for depth h at k = 40 — however many rows
it has; material per row is t comparisons and 2t Beaver triples (Table
2's 2t + 1 less the root's marker, the public 1, which is never
multiplied).

Party locality: every entry point takes the samples as *per-party slices* —
each client's own columns of the rows, exactly what a real deployment's
parties would hold.  ``party_slices`` (one ``n × d_i`` block per client)
is the federation API's native input; :func:`run_predict_batch` splits
caller-supplied global rows for single-process convenience (the caller
owns those rows — splitting them reads no party's stored columns).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from repro.crypto.encoding import EncryptedNumber
from repro.mpc import comparison
from repro.mpc.sharing import SharedValue
from repro.tree.model import DecisionTreeModel, TreeNode

if TYPE_CHECKING:
    from repro.federation.federation import Federation

__all__ = [
    "encrypted_leaf_sums",
    "enhanced_prediction_shares",
    "global_rows_to_party_slices",
    "predict_basic_encrypted_batch",
    "run_predict_batch",
    "run_predict_batch_slices",
]


# ---------------------------------------------------------------------------
# sample slicing
# ---------------------------------------------------------------------------


def global_rows_to_party_slices(
    context: Federation, rows: np.ndarray
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


def _party_blocks(
    context: Federation, party_slices: list[np.ndarray]
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
    context: Federation,
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
    her: the decryption entry points of :class:`Federation` do,
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
        with ctx.bus.flow(1):
            ctx.bus.send_payload(sender, sender - 1, vector, tag="prediction-vector")
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
    model: DecisionTreeModel, context: Federation
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
    model: DecisionTreeModel, context: Federation, party_slices: list[np.ndarray]
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


# ---------------------------------------------------------------------------
# enhanced protocol (§5.2)
# ---------------------------------------------------------------------------


def _levels(model: DecisionTreeModel) -> list[list[TreeNode]]:
    """The internal nodes, one list per depth from the root down."""
    levels, frontier = [], [model.root]
    while True:
        internal = [node for node in frontier if not node.is_leaf]
        if not internal:
            return levels
        levels.append(internal)
        frontier = [child for node in internal for child in node.children()]


def enhanced_prediction_shares(
    model: DecisionTreeModel, context: Federation, party_slices: list[np.ndarray]
) -> tuple[list[SharedValue], float]:
    """§5.2 prediction kept in shared form for every row of ``party_slices``:
    returns (⟨k̄_r⟩ per row, label_scale).

    The building block for both predictions (open the shares) and ensemble
    aggregation (combine shares of several trees before anything is
    revealed).  One pass for all R rows:

    * every party inputs her R feature values at each node she owns, one
      ``input_many`` per party;
    * one ``comparison.ltz`` compares all R × t of them with the shared
      thresholds: [x ≤ θ] = 1 − [θ − x < 0];
    * markers go down one level at a time, one ``mul_many`` per level
      below the root (left = marker · goes_left, right = marker − left);
      the root's marker is the public 1, so its children take goes_left
      and 1 − goes_left as they are;
    * one ``mul_many`` for the R × L products ⟨η⟩·⟨z⟩, summed per row.

    Raises if the hidden leaves carry mixed label scales: the shared inner
    product sums over the leaves, so only a uniform scale can be applied
    after opening.
    """
    ctx, fx = context, context.fx
    engine = ctx.engine
    blocks = _party_blocks(ctx, party_slices)
    n_rows = blocks[0].shape[0]
    levels = _levels(model)
    internal = [node for level in levels for node in level]
    if any(node.hidden.get("threshold_share") is None for node in internal):
        raise ValueError("node lacks a shared threshold; not an enhanced model")
    leaves = model.leaves()
    labels = [leaf.hidden.get("label_share") for leaf in leaves]
    if any(label is None for label in labels):
        raise ValueError("leaf lacks a shared label; not an enhanced model")
    scales = [leaf.hidden.get("label_scale", 1.0) for leaf in leaves]
    scale = scales[0]
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

    # Each owner's inputs, node by node, R rows each.
    inputs: dict[int, list[SharedValue]] = {}
    for owner in sorted({node.owner for node in internal}):
        owned = [node for node in internal if node.owner == owner]
        values = [
            fx.encode(float(value))
            for node in owned
            for value in blocks[owner][:, node.feature]
        ]
        shares = engine.input_many(values, owner=owner)
        for j, node in enumerate(owned):
            inputs[id(node)] = shares[j * n_rows : (j + 1) * n_rows]
    differences = [
        node.hidden["threshold_share"] - x for node in internal for x in inputs[id(node)]
    ]
    del inputs
    negative = comparison.ltz(engine, differences, fx.k + 1)
    del differences
    goes_left = {
        id(node): [1 - bit for bit in negative[j * n_rows : (j + 1) * n_rows]]
        for j, node in enumerate(internal)
    }
    del negative

    markers = {id(model.root): [engine.share_public(1)] * n_rows}
    for depth, level in enumerate(levels):
        if depth == 0:  # the root: 1 · goes_left needs no multiplication
            products = goes_left.pop(id(model.root))
        else:
            products = engine.mul_many(
                [
                    pair
                    for node in level
                    for pair in zip(markers[id(node)], goes_left.pop(id(node)))
                ]
            )
        for j, node in enumerate(level):
            marker = markers.pop(id(node))
            left = products[j * n_rows : (j + 1) * n_rows]
            left_child, right_child = node.children()
            markers[id(left_child)] = left
            markers[id(right_child)] = [m - l for m, l in zip(marker, left)]
        del products

    # ⟨η⟩·⟨z⟩ per row: leaf products row-major, summed in leaf order.
    eta = [markers.pop(id(leaf)) for leaf in leaves]
    products = engine.mul_many(
        [(column[r], label) for r in range(n_rows) for column, label in zip(eta, labels)]
    )
    del eta
    width = len(leaves)
    return [
        engine.sum_values(products[r * width : (r + 1) * width]) for r in range(n_rows)
    ], scale


# ---------------------------------------------------------------------------
# batched prediction
# ---------------------------------------------------------------------------


def run_predict_batch_slices(
    model: DecisionTreeModel,
    context: Federation,
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
        scale = 1.0
    elif protocol == "enhanced":
        shares, scale = enhanced_prediction_shares(model, context, party_slices)
        values = context.open_values(shares, tag="prediction-output")
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    if model.task == "classification":
        return np.asarray([int(round(v)) for v in values], dtype=np.int64)
    return np.asarray([float(v * scale) for v in values], dtype=np.float64)


def run_predict_batch(
    model: DecisionTreeModel,
    context: Federation,
    rows: np.ndarray,
    protocol: str = "basic",
) -> np.ndarray:
    """`run_predict_batch_slices` over caller-held global rows."""
    party_slices = global_rows_to_party_slices(context, rows)
    return run_predict_batch_slices(model, context, party_slices, protocol)
