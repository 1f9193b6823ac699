"""Vertical logistic regression following the Pivot recipe (paper §7.3).

The paper sketches how the TPHE + MPC hybrid generalises beyond trees;
this module implements that sketch as a working trainer:

* Each client holds an encrypted weight block [θ_i] for her own features
  (nobody, including the owner, sees the weights in plaintext).
* Per sample, each client locally aggregates the encrypted partial sum
  [ξ_i] = x_i ⊙ [θ_i]; the sums are combined homomorphically and converted
  to shares (Algorithm 2) for the secure logistic function (secure exp +
  division, one call of each per batch of samples); the super client
  supplies the label as a secret share.
* The shared loss is converted back to a ciphertext (§5.2) and every client
  updates her encrypted weights with homomorphic operations, never learning
  the loss.

Training is mini-batch gradient descent; weight ciphertexts are refreshed
through a share round-trip at the end of every epoch so the fixed-point
exponent stays bounded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.crypto.encoding import EncryptedNumber, fixed_point_dot
from repro.network.flows import collect_replies
from repro.network.wire import Request

if TYPE_CHECKING:
    from repro.federation.federation import Federation
    from repro.mpc.sharing import SharedValue

__all__ = ["LogisticTrainer"]


class LogisticTrainer:
    """Binary logistic regression over a vertical partition.

    The implementation behind
    :class:`repro.federation.PivotLogisticClassifier`.  Unlike the trees there
    is no released model to protect, so the basic/enhanced distinction does
    not arise: weights and losses are hidden end to end either way.
    """

    def __init__(
        self,
        context: Federation,
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
        ctx = self.ctx
        sup = ctx.super_client
        with ctx.bus.flow(1):
            for client, block in zip(ctx.clients, self.weights):
                if client.index == sup:
                    continue
                ctx.bus.send_payload(
                    sup,
                    client.index,
                    Request("lr-batch-sums", [batch, block]),
                    tag="lr-partial-sum",
                )
            own_partials = ctx.clients[sup].batch_sums(batch, self.weights[sup])
            others = [c.index for c in ctx.clients if c.index != sup]
            replies = collect_replies(ctx.bus, sup, others, "lr-partial-sum")
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
        sigmas = self._sigmoid(ctx.to_shares(xi_cts))
        return [sigma - label_shares[t] for t, sigma in zip(batch, sigmas)]

    def _sigmoid(self, zs: list[SharedValue]) -> list[SharedValue]:
        """⟨σ(z)⟩ = ⟨1 / (1 + e^-z)⟩ for every z: one ``exp`` and one ``div``
        over the batch."""
        fx = self.ctx.fx
        one = fx.share(1.0)
        denominators = [one + e for e in fx.exp([-z for z in zs])]
        return [quotient for (quotient,) in fx.div([[one] for _ in zs], denominators)]

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
        loss_cts = ctx.to_cipher(losses)
        scale = self.learning_rate / len(batch)
        with ctx.bus.flow(1):
            for client, block in zip(ctx.clients, self.weights):
                if client.index == sup:
                    continue
                ctx.bus.send_payload(
                    sup,
                    client.index,
                    Request("lr-update", [batch, block, loss_cts, scale]),
                    tag="lr-weights",
                )
            own_updated = ctx.clients[sup].weight_update(
                batch, self.weights[sup], loss_cts, scale
            )
            others = [c.index for c in ctx.clients if c.index != sup]
            replies = collect_replies(ctx.bus, sup, others, "lr-weights")
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
            ct.decrease_exponent_to(-2 * ctx.encoder.frac_bits)
            for ct in ctx.to_cipher(shares)
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
        ctx = self.ctx
        # Validates sample-count agreement and per-party column widths.
        from repro.core.prediction import _party_blocks

        blocks = _party_blocks(ctx, party_slices)
        xi_cts = []
        for t in range(blocks[0].shape[0]):
            total = None
            for block, block_w in zip(blocks, self.weights):
                partial = fixed_point_dot(ctx.encoder, block[t], block_w)
                total = partial if total is None else total + partial
            xi_cts.append(total)
        sigmas = self._sigmoid(ctx.to_shares(xi_cts))
        return np.asarray(ctx.open_values(sigmas, tag="lr-prediction"))

    def predict(self, rows: np.ndarray) -> np.ndarray:
        return (self.predict_proba(rows) >= 0.5).astype(np.int64)

    def predict_slices(self, party_slices: list[np.ndarray]) -> np.ndarray:
        return (self.predict_proba_slices(party_slices) >= 0.5).astype(np.int64)
