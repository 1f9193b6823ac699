"""Vertical logistic regression following the Pivot recipe (paper §7.3).

The paper sketches how the TPHE + MPC hybrid generalises beyond trees;
this module implements that sketch as a working trainer:

* Each client holds an encrypted weight block [θ_i] for her own features
  (nobody, including the owner, sees the weights in plaintext).
* Per sample, each client locally aggregates the encrypted partial sum
  [ξ_i] = x_i ⊙ [θ_i]; the sums are combined homomorphically and converted
  to shares (Algorithm 2) for the secure logistic function (secure exp +
  division); the super client supplies the label as a secret share.
* The shared loss is converted back to a ciphertext (§5.2) and every client
  updates her encrypted weights with homomorphic operations, never learning
  the loss.

Training is mini-batch gradient descent; weight ciphertexts are refreshed
through a share round-trip at the end of every epoch so the fixed-point
exponent stays bounded.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.context import PivotContext
from repro.crypto.encoding import EncryptedNumber, encrypted_dot_product
from repro.network.flows import collect_replies, react_runtimes
from repro.network.wire import Request

__all__ = ["LogisticTrainer", "PivotLogisticRegression"]


class LogisticTrainer:
    """Binary logistic regression over a vertical partition.

    The implementation behind
    :class:`repro.federation.PivotLogisticClassifier` (and the deprecated
    :class:`PivotLogisticRegression` flat-API shim).  Unlike the trees there
    is no released model to protect, so the basic/enhanced distinction does
    not arise: weights and losses are hidden end to end either way.
    """

    def __init__(
        self,
        context: PivotContext,
        learning_rate: float = 0.5,
        n_epochs: int = 3,
        batch_size: int = 16,
    ):
        if context.partition.task != "classification":
            raise ValueError("logistic regression needs a classification partition")
        if not 0 < learning_rate <= 2:
            raise ValueError("learning_rate out of range")
        self.ctx = context
        self.learning_rate = learning_rate
        self.n_epochs = n_epochs
        self.batch_size = batch_size
        # Per-client encrypted weight blocks; exponent -2F stays invariant
        # under the homomorphic update rule.
        self.weights: list[list[EncryptedNumber]] | None = None

    # ------------------------------------------------------------------

    def fit(self) -> "LogisticTrainer":
        ctx, fx = self.ctx, self.ctx.fx
        labels = np.asarray(ctx.read_labels(), dtype=np.int64)
        if set(np.unique(labels)) - {0, 1}:
            raise ValueError("binary labels {0,1} required")
        n = ctx.n_samples
        encoder = ctx.encoder
        two_f = 2 * encoder.frac_bits
        self.weights = [
            [encoder.encrypt(0, exponent=-two_f) for _ in range(client.n_features)]
            for client in ctx.clients
        ]
        # The super client secret-shares every label once.
        label_shares = ctx.engine.input_many(
            [fx.encode(int(y)) for y in labels], owner=ctx.super_client
        )

        for _ in range(self.n_epochs):
            for start in range(0, n, self.batch_size):
                batch = range(start, min(start + self.batch_size, n))
                losses = self._batch_losses(list(batch), label_shares)
                self._apply_updates(list(batch), losses)
            self._refresh_weights()
        return self

    def _batch_losses(self, batch: list[int], label_shares) -> list:
        """⟨σ(x·θ) - y⟩ for each sample of the batch.

        Request/response flow: the super client sends every other party an
        ``lr-batch-sums`` request carrying the batch rows and her encrypted
        weight block; the party reacts on her own event loop —
        ``client.batch_sums`` over *her* columns, in her own process when
        she runs standalone — and replies with the per-sample partial-sum
        ciphertexts.  Only ciphertexts travel in either direction.
        """
        ctx, fx = self.ctx, self.ctx.fx
        sup = ctx.super_client
        for client, block in zip(ctx.clients, self.weights):
            if client.index == sup:
                continue
            ctx.bus.send_payload(
                sup,
                client.index,
                Request("lr-batch-sums", [batch, block]),
                tag="lr-partial-sum",
            )
        react_runtimes(ctx.runtimes, exclude=(sup,))
        own_partials = ctx.clients[sup].batch_sums(batch, self.weights[sup])
        others = [c.index for c in ctx.clients if c.index != sup]
        replies = collect_replies(ctx.bus, sup, others)
        ctx.bus.round()
        partials_per_client = [
            own_partials if client.index == sup else list(replies[client.index])
            for client in ctx.clients
        ]
        xi_cts = []
        for k, _ in enumerate(batch):
            total = None
            for partials in partials_per_client:
                partial = partials[k]
                total = partial if total is None else total + partial
            xi_cts.append(total)
        z_shares = ctx.to_shares(xi_cts)
        losses = []
        for t, z in zip(batch, z_shares):
            sigma = fx.div(fx.share(1.0), fx.share(1.0) + fx.exp(-z))
            losses.append(sigma - label_shares[t])
        return losses

    def _apply_updates(self, batch: list[int], losses) -> None:
        """[θ_ij] -= (lr/|B|) Σ_t x_tij ⊗ [loss_t], all homomorphic.

        The gradient fold reads raw feature values, so it runs as each
        party's own reaction: an ``lr-update`` request ships the rows, her
        current encrypted block, the encrypted losses and the step scale;
        she folds her columns in locally and replies with the updated
        block ciphertexts.  Weights stay encrypted end to end — the blocks
        travelling in both directions are ciphertext vectors.
        """
        ctx = self.ctx
        sup = ctx.super_client
        loss_cts = [ctx.to_cipher(loss) for loss in losses]
        scale = self.learning_rate / len(batch)
        for client, block in zip(ctx.clients, self.weights):
            if client.index == sup:
                continue
            ctx.bus.send_payload(
                sup,
                client.index,
                Request("lr-update", [batch, block, loss_cts, scale]),
                tag="lr-weights",
            )
        react_runtimes(ctx.runtimes, exclude=(sup,))
        own_updated = ctx.clients[sup].weight_update(
            batch, self.weights[sup], loss_cts, scale
        )
        others = [c.index for c in ctx.clients if c.index != sup]
        replies = collect_replies(ctx.bus, sup, others)
        ctx.bus.round()
        self.weights = [
            own_updated if client.index == sup else list(replies[client.index])
            for client in ctx.clients
        ]

    def _refresh_weights(self) -> None:
        """Share round-trip: the weights come back rounded to F fractional
        bits, re-randomised, at exponent -2F."""
        ctx = self.ctx
        flat = [w for block in self.weights for w in block]
        shares = ctx.to_shares(flat)
        refreshed = [
            ctx.to_cipher(s).decrease_exponent_to(-2 * ctx.encoder.frac_bits)
            for s in shares
        ]
        index = 0
        for block in self.weights:
            for j in range(len(block)):
                block[j] = refreshed[index]
                index += 1

    # ------------------------------------------------------------------

    def predict_proba(self, rows: np.ndarray) -> np.ndarray:
        """Joint prediction over caller-held global rows."""
        from repro.core.prediction import global_rows_to_party_slices

        return self.predict_proba_slices(
            global_rows_to_party_slices(self.ctx, rows)
        )

    def predict_proba_slices(self, party_slices: list[np.ndarray]) -> np.ndarray:
        """Joint prediction from per-party feature blocks: encrypted
        partial sums -> secure sigmoid (federation-native input)."""
        if self.weights is None:
            raise RuntimeError("fit() must be called before predict()")
        ctx, fx = self.ctx, self.ctx.fx
        # Validates sample-count agreement and per-party column widths.
        from repro.core.prediction import _slices_per_row

        rows = _slices_per_row(ctx, party_slices)
        xi_cts = []
        for slices in rows:
            total = None
            for client, local, block_w in zip(ctx.clients, slices, self.weights):
                coefficients = [
                    ctx.encoder.encode(float(v)).encoding for v in local
                ]
                partial = encrypted_dot_product(coefficients, block_w)
                total = partial if total is None else total + partial
            xi_cts.append(total)
        z_shares = ctx.to_shares(xi_cts)
        probs = []
        for z in z_shares:
            sigma = fx.div(fx.share(1.0), fx.share(1.0) + fx.exp(-z))
            probs.append(ctx.open_value(sigma, tag="lr-prediction"))
        return np.asarray(probs)

    def predict(self, rows: np.ndarray) -> np.ndarray:
        return (self.predict_proba(rows) >= 0.5).astype(np.int64)

    def predict_slices(self, party_slices: list[np.ndarray]) -> np.ndarray:
        return (self.predict_proba_slices(party_slices) >= 0.5).astype(np.int64)


class PivotLogisticRegression(LogisticTrainer):
    """Deprecated flat-API name for :class:`LogisticTrainer`."""

    def __init__(self, context, learning_rate=0.5, n_epochs=3, batch_size=16):
        warnings.warn(
            "PivotLogisticRegression is deprecated; use repro.federation."
            "PivotLogisticClassifier (or LogisticTrainer directly)",
            DeprecationWarning,
            stacklevel=2,
        )
        super().__init__(context, learning_rate, n_epochs, batch_size)
