"""Label providers: how the per-node encrypted label vectors [γ] arise.

Three regimes, one per way a node's [γ] can reach the parties:

* **Plaintext labels, basic protocol** (§4.1–4.2): the super client
  builds the auxiliary vectors β (one per class *but the last* for
  classification; β1 = y, β2 = y² for regression) and encrypts the root's
  [γ_k] = encode(β_k) · w once, pool-masked, over the public root weights
  w (:meth:`PlaintextLabelProvider.root_vectors`).  From there the vectors
  ride with [α] (§7.2's optimisation): the split owner masks [γ_l] next to
  [α_l] in the model update and every party derives [γ_r] = [γ] ⊖ [γ_l].
  So the labels are published once per fit and once per split whose
  children are built, never per node.  The last class is never built,
  sent or stored: every sample has exactly one class, so its statistics
  are the count minus the other classes' (derived on shares by the
  trainer).
* **Plaintext labels the owner cannot mask** — the enhanced protocol
  (§5.2: the split stays hidden, so masking [γ] would cost Eq. 10's
  decryptions per vector) and the malicious model's POPCM-proven
  provider: for every node whose statistics are computed (it passed the
  pruning checks and is not a right child derived from its parent and
  open sibling) the super client multiplies β into the node's [α] and
  publishes the products in the tree level's ``split-stats`` request
  (:meth:`PlaintextLabelProvider.gammas`).

  β ∘ [α] by scalar powers is a deterministic function of the public [α]:
  β = 1 returns [α_j] unchanged, β = 0 the unit ciphertext, and a
  regression power can be confirmed by a dictionary test.  So every
  element is re-randomised through the obfuscator pool before it leaves
  the super client; there is no un-masked way to publish a [γ].  The one
  place the bare products are used is :meth:`PlaintextLabelProvider.totals`
  — the root's label sums, folded by the super client herself.
* **Encrypted labels** (GBDT rounds >= 2, §7.2): nobody holds the labels in
  plaintext.  The [γ] vectors are computed once per round from the
  encrypted residual vector and ride with [α] exactly like the first
  regime's.

Regression labels are normalised to [-1, 1] (fixed-point range hygiene);
``label_scale`` converts leaf predictions back to label units.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.encoding import EncodedNumber, EncryptedNumber

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
        #: Under the basic protocol the split owner masks [γ_l] in
        #: plaintext like [α_l], so the root's [γ]s ride (module docstring).
        self.rides_with_alpha = context.config.protocol == "basic"

    @property
    def n_vectors(self) -> int:
        return len(self.betas)

    def _encoded(self) -> list[list[EncodedNumber]]:
        """encode(β_k) per vector: integers at exponent 0 for class
        indicators, 2^-F fixed point for regression."""
        encode = self.context.encoder.encode
        cast = int if self.task == "classification" else float
        return [[encode(cast(b)) for b in beta] for beta in self.betas]

    def _scaled(
        self, alpha: list[EncryptedNumber]
    ) -> list[list[EncryptedNumber]]:
        """β ∘ [α] by scalar powers (Eq. 2), one vector per β.

        Linkable to [α] element by element (see the module docstring): for
        the super client's own folding, never for the wire.
        """
        scale = self.context.batch.scale_vector
        return [scale(alpha, encoded) for encoded in self._encoded()]

    def root_vectors(self, weights: list[int]) -> list[list[EncryptedNumber]]:
        """The root's riding [γ_k]: fresh pool-masked encryptions of
        encode(β_kj) · w_j — the plaintexts β ∘ [α] has at the root — or
        nothing where the vectors do not ride."""
        if not self.rides_with_alpha:
            return []
        ctx = self.context
        vectors = []
        for encoded in self._encoded():
            cts = ctx.batch.encrypt_ciphertexts(
                [e.encoding * w for e, w in zip(encoded, weights)]
            )
            vectors.append(
                [ctx.encoder.wrap(ct, e.exponent) for ct, e in zip(cts, encoded)]
            )
        return vectors

    def totals(self, alpha: list[EncryptedNumber]) -> list[EncryptedNumber]:
        """[Σ_j β_kj α_j] per published vector: the root's label sums, which
        the super client folds locally and hands to Algorithm 2 (every other
        node inherits its statistics from the parent's winning split).
        Riding vectors are summed by the trainer instead."""
        return [
            self.context.batch.sum_ciphertexts(gamma)
            for gamma in self._scaled(alpha)
        ]

    def gammas(
        self, alphas: list[list[EncryptedNumber]], node_keys: list[int]
    ) -> list:
        """[γ] = β ∘ [α] for every node of a tree level, re-randomised
        element by element and computed by the super client, for nodes
        whose vectors do not ride: the level's ``key, gammas`` entries,
        concatenated, which her ``split-stats`` request carries.
        ``alphas[i]`` is the [α] of node ``node_keys[i]``.

        Classification goes straight through ``mask_vector`` (a fresh [0]
        where β = 0, a re-masked [α_j] where β = 1); regression re-masks
        every element after the scalar power.  The super client's runtime
        stores the vectors now; every other runtime attaches them to her
        node state when the request arrives, before she computes.
        """
        ctx = self.context
        results = []
        for alpha in alphas:
            if self.task == "classification":
                result = [ctx.batch.mask_vector(alpha, beta) for beta in self.betas]
            else:
                keep = [1] * len(alpha)
                result = [
                    ctx.batch.mask_vector(gamma, keep) for gamma in self._scaled(alpha)
                ]
            results.append(result)
        runtime = ctx.runtimes[ctx.super_client]
        for key, result in zip(node_keys, results):
            if key in runtime.nodes:
                runtime.nodes[key][1] = [list(g) for g in result]
        return [x for key, result in zip(node_keys, results) for x in (key, result)]


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

    def root_vectors(self, weights: list[int]) -> list[list[EncryptedNumber]]:
        """The root's riding [γ]s: the round's encrypted residuals, as
        given (a boosting round trains on every sample)."""
        return self.root_gammas
