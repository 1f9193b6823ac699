"""Label providers: how the per-node encrypted label vectors [γ] arise.

Two regimes from the paper:

* **Plaintext labels at the super client** (§4.1–4.2): for every node
  that is going to be split the super client builds the auxiliary vectors
  β (one per class *but the last* for classification; β1 = y, β2 = y² for
  regression), multiplies them element-wise into the node's encrypted mask
  vector [α] and broadcasts the resulting [γ] vectors.  The last class is
  never built, sent or stored: every sample has exactly one class, so its
  statistics are the count minus the other classes' (derived on shares by
  the trainer).  A leaf publishes nothing — the trainer asks for a node's
  [γ] only once the node has passed the pruning checks.

  β ∘ [α] by scalar powers is a deterministic function of the public [α]:
  β = 1 returns [α_j] unchanged, β = 0 the unit ciphertext, and a
  regression power can be confirmed by a dictionary test.  So every
  element is re-randomised through the obfuscator pool before it leaves
  the super client; there is no un-masked way to publish a [γ].  The one
  place the bare products are used is :meth:`PlaintextLabelProvider.totals`
  — the root's label sums, folded by the super client herself.
* **Encrypted labels** (GBDT rounds >= 2, §7.2): nobody holds the labels in
  plaintext.  The [γ] vectors are computed once per round from the
  encrypted residual vector and thereafter ride along with [α]: the client
  owning each chosen split masks them with her indicator vector during the
  model-update step — the paper's optimisation avoiding per-node ciphertext
  multiplications.

Regression labels are normalised to [-1, 1] (fixed-point range hygiene);
``label_scale`` converts leaf predictions back to label units.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.encoding import EncryptedNumber

__all__ = ["PlaintextLabelProvider", "EncryptedLabelProvider"]


class PlaintextLabelProvider:
    """The super client holds Y in plaintext (single trees, RF, GBDT w=1)."""

    def __init__(self, context, labels: np.ndarray, task: str, n_classes: int = 0):
        self.context = context
        self.task = task
        if task == "classification":
            labels = np.asarray(labels, dtype=np.int64)
            self.n_classes = max(n_classes, int(labels.max()) + 1, 2)
            self.betas = [
                (labels == k).astype(np.int64) for k in range(self.n_classes - 1)
            ]
            self.label_scale = 1.0
        else:
            labels = np.asarray(labels, dtype=np.float64)
            self.n_classes = 0
            self.label_scale = float(np.max(np.abs(labels))) or 1.0
            normalized = labels / self.label_scale
            self.betas = [normalized, normalized**2]
        self.rides_with_alpha = False

    @property
    def n_vectors(self) -> int:
        return len(self.betas)

    def _scaled(
        self, alpha: list[EncryptedNumber]
    ) -> list[list[EncryptedNumber]]:
        """β ∘ [α] by scalar powers (Eq. 2), one vector per β.

        Linkable to [α] element by element (see the module docstring): for
        the super client's own folding, never for the wire.
        """
        ctx = self.context
        result = []
        for beta in self.betas:
            if self.task == "classification":
                scalars = [int(b) for b in beta]
            else:
                scalars = [ctx.encoder.encode(float(b)) for b in beta]
            result.append(ctx.batch.scale_vector(alpha, scalars))
        return result

    def totals(self, alpha: list[EncryptedNumber]) -> list[EncryptedNumber]:
        """[Σ_j β_kj α_j] per published vector: the root's label sums, which
        the super client folds locally and hands to Algorithm 2 (every other
        node inherits its statistics from the parent's winning split)."""
        return [
            self.context.batch.sum_ciphertexts(gamma)
            for gamma in self._scaled(alpha)
        ]

    def gammas(
        self, alpha: list[EncryptedNumber], node_gammas, node_key: int = 1
    ) -> list[list[EncryptedNumber]]:
        """[γ] = β ∘ [α], re-randomised element by element, computed by the
        super client and published to the other parties' event loops as one
        ``node-gammas`` request (§4.1).

        Classification goes straight through ``mask_vector`` (a fresh [0]
        where β = 0, a re-masked [α_j] where β = 1); regression re-masks
        every element after the scalar power.  ``node_gammas`` is ignored
        in this regime (recomputed per node).  Every receiving runtime
        attaches the vectors to her stored node state, so the node's
        subsequent split-stats request finds them.
        """
        from repro.network.flows import broadcast_request

        ctx = self.context
        if self.task == "classification":
            result = [ctx.batch.mask_vector(alpha, beta) for beta in self.betas]
        else:
            keep = [1] * len(alpha)
            result = [
                ctx.batch.mask_vector(gamma, keep) for gamma in self._scaled(alpha)
            ]
        runtime = ctx.runtimes[ctx.super_client]
        if node_key in runtime.nodes:
            runtime.nodes[node_key][1] = [list(g) for g in result]
        broadcast_request(
            ctx.bus,
            ctx.super_client,
            "node-gammas",
            [node_key, result],
            tag="label-vectors",
            runtimes=ctx.runtimes,
        )
        ctx.bus.round()
        return result


class EncryptedLabelProvider:
    """Labels exist only as ciphertexts (GBDT regression rounds >= 2, §7.2)."""

    def __init__(
        self,
        context,
        gamma1: list[EncryptedNumber],
        gamma2: list[EncryptedNumber],
        label_scale: float = 1.0,
    ):
        self.context = context
        self.task = "regression"
        self.n_classes = 0
        self.label_scale = label_scale
        self.root_gammas = [gamma1, gamma2]
        self.rides_with_alpha = True

    @property
    def n_vectors(self) -> int:
        return 2

    def totals(self, alpha) -> list[EncryptedNumber]:
        """The root's encrypted label sums [Σγ_k], one per riding vector."""
        return [self.context.batch.sum_ciphertexts(g) for g in self.root_gammas]

    def gammas(
        self, alpha, node_gammas, node_key: int = 1
    ) -> list[list[EncryptedNumber]]:
        """Return the node's [γ] vectors, maintained alongside [α].

        No request flow: the vectors ride with [α] through every
        ``node-state`` / ``node-split`` message, so each party's event
        loop already holds them (§7.2's optimisation, now per-runtime).
        """
        if node_gammas is None:  # root node
            return self.root_gammas
        return node_gammas
