"""Malicious-model extension of the basic protocol (paper §9.1).

Every client proves, step by step, that she executed the protocol on the
data she committed to before training:

* **Commitment phase** (§9.1.2 "Before training"): each client encrypts and
  broadcasts her split indicator vectors v_l (with POPK proofs of plaintext
  knowledge); the super client commits her label indicator vectors β_k.
* **Local computation**: the super client proves every [γ_k,t] = β_k,t ⊗
  [α_t] with POPCM; every split statistic carries a POHDP proof against the
  committed indicator vectors.
* **MPC computation**: the conversion masks of Algorithm 2 come with POPK
  (the "modified MPC conversion" of §9.1.1), and the SPDZ layer runs with
  information-theoretic MACs (``authenticated_mpc=True``), so tampered
  shares abort at opening time.
* **Model update**: the chosen client proves [α_l] = v_l ∘ [α] with
  per-element POPCM against her committed indicators; [α_r] = [α] ⊖ [α_l]
  needs no proof.  Children that will not read a mask vector (leaves at
  the depth limit) get none, and nothing is proven for them.

A :class:`CheatingClient` adversary deviates at a chosen step; the honest
verifiers detect it and abort with :class:`~repro.crypto.zkp.ProofError`
(or :class:`~repro.mpc.sharing.MacCheckError` for share tampering).

This is a central simulation: prover and verifier share one process, and
no commitment or proof is serialized.  It charges the bus nothing it does
not send: a fit's bytes and rounds are those of the flows it shares with
the basic protocol (the conversion of its statistics to shares), every
one a measured payload, and the proofs are not priced.
"""

from __future__ import annotations

import secrets
from typing import TYPE_CHECKING

from repro.core.labels import PlaintextLabelProvider
from repro.core.trainer import TreeTrainer
from repro.crypto import zkp
from repro.crypto.encoding import EncryptedNumber
from repro.crypto.paillier import Ciphertext, dot_product

if TYPE_CHECKING:
    from repro.federation.federation import Federation

__all__ = ["MaliciousTreeTrainer", "CheatingClient", "CommittedVector"]


class CommittedVector:
    """A vector committed as element-wise encryptions with known randomness."""

    def __init__(self, pk, values: list[int]):
        self.pk = pk
        self.values = [int(v) for v in values]
        self.randomness = [_unit(pk) for _ in values]
        self.ciphertexts = [
            pk.encrypt_with_r(v, r) for v, r in zip(self.values, self.randomness)
        ]
        self.popk_proofs = [
            zkp.prove_plaintext_knowledge(pk, v, r, c)
            for v, r, c in zip(self.values, self.randomness, self.ciphertexts)
        ]

    def verify_commitment(self) -> None:
        for c, proof in zip(self.ciphertexts, self.popk_proofs):
            zkp.verify_plaintext_knowledge(self.pk, c, proof)

    # -- proven operations -------------------------------------------------

    def prove_elementwise_product(
        self, vector: list[EncryptedNumber]
    ) -> tuple[list[Ciphertext], list[zkp.MultiplicationProof]]:
        """[out_t] = [vector_t] ^ value_t, re-randomised, with POPCM each."""
        pk = self.pk
        outputs, proofs = [], []
        for value, r_a, c_a, base in zip(
            self.values, self.randomness, self.ciphertexts, vector
        ):
            s = _unit(pk)
            out = (base.ciphertext * value) + pk.encrypt_with_r(0, s)
            outputs.append(out)
            proofs.append(
                zkp.prove_multiplication(
                    pk, value, r_a, c_a, base.ciphertext, s, out
                )
            )
        return outputs, proofs

    def verify_elementwise_product(
        self,
        vector: list[EncryptedNumber],
        outputs: list[Ciphertext],
        proofs: list[zkp.MultiplicationProof],
    ) -> None:
        for c_a, base, out, proof in zip(
            self.ciphertexts, vector, outputs, proofs
        ):
            zkp.verify_multiplication(self.pk, c_a, base.ciphertext, out, proof)

    def prove_dot_product(
        self, vector: list[EncryptedNumber]
    ) -> tuple[Ciphertext, zkp.DotProductProof]:
        s = _unit(self.pk)
        out = dot_product(self.values, [v.ciphertext for v in vector]) + (
            self.pk.encrypt_with_r(0, s)
        )
        proof = zkp.prove_dot_product(
            self.pk,
            self.values,
            self.randomness,
            self.ciphertexts,
            [v.ciphertext for v in vector],
            s,
            out,
        )
        return out, proof

    def verify_dot_product(
        self,
        vector: list[EncryptedNumber],
        output: Ciphertext,
        proof: zkp.DotProductProof,
    ) -> None:
        zkp.verify_dot_product(
            self.pk,
            self.ciphertexts,
            [v.ciphertext for v in vector],
            output,
            proof,
        )


def _unit(pk) -> int:
    import math

    while True:
        r = secrets.randbelow(pk.n - 1) + 1
        if math.gcd(r, pk.n) == 1:
            return r


class VerifiedLabelProvider(PlaintextLabelProvider):
    """Super client's label vectors, committed and POPCM-proven (§9.1.2)."""

    def __init__(self, context, labels, task, n_classes: int = 0):
        super().__init__(context, labels, task, n_classes)
        # Each node's [γ] is proven against the commitments from [α], so
        # the vectors are published per node, not carried by the update.
        self.rides_with_alpha = False
        pk = context.threshold.public_key
        #: Exponent a committed multiplier adds to [α]'s.
        self._shift = 0
        if task == "classification":
            encoded = [[int(b) for b in beta] for beta in self.betas]
        else:
            self._shift = -context.encoder.frac_bits
            encoded = [
                [context.encoder.encode(float(b)).encoding for b in beta]
                for beta in self.betas
            ]
        self.commitments = [CommittedVector(pk, values) for values in encoded]
        for commitment in self.commitments:
            commitment.verify_commitment()

    def totals(self, alpha):
        """The root's label sums, POHDP-proven against the commitments."""
        ctx = self.context
        result = []
        for commitment in self.commitments:
            out, proof = commitment.prove_dot_product(alpha)
            commitment.verify_dot_product(alpha, out, proof)
            result.append(ctx.encoder.wrap(out, alpha[0].exponent + self._shift))
        return result

    def gammas(self, alphas, node_keys):
        # Proven and verified in this process, and returned as the level's
        # [key, gammas] entries like the reactive provider's; no runtime
        # store is kept.
        ctx = self.context
        results = []
        for alpha in alphas:
            result = []
            for commitment in self.commitments:
                outputs, proofs = commitment.prove_elementwise_product(alpha)
                commitment.verify_elementwise_product(alpha, outputs, proofs)
                exponent = alpha[0].exponent + self._shift
                result.append([ctx.encoder.wrap(o, exponent) for o in outputs])
            results.append(result)
        return [x for key, result in zip(node_keys, results) for x in (key, result)]


class MaliciousTreeTrainer(TreeTrainer):
    """Basic-protocol training hardened per §9.1.2.

    Requires ``PivotConfig(authenticated_mpc=True)`` so the SPDZ layer
    carries MACs; conversions verify POPK on every mask ciphertext.  A
    central simulation (see the module docstring): every prover and
    verifier runs here, and only the conversions' payloads reach the bus.
    """

    def __init__(self, context: Federation, label_provider=None, cheat: str | None = None):
        if not context.config.authenticated_mpc:
            raise ValueError(
                "malicious model requires PivotConfig(authenticated_mpc=True)"
            )
        if label_provider is None:
            label_provider = VerifiedLabelProvider(
                context, context.read_labels(), context.partition.task
            )
        super().__init__(context, label_provider)
        self.cheat = cheat
        # Commitment phase: every client commits all her split indicators.
        pk = context.threshold.public_key
        self.committed_indicators: dict[tuple[int, int, int], CommittedVector] = {}
        for client in context.clients:
            for feature in range(client.n_features):
                for split in range(client.n_splits(feature)):
                    vector = CommittedVector(pk, list(client.indicator(feature, split)))
                    vector.verify_commitment()
                    self.committed_indicators[(client.index, feature, split)] = vector

    def _compute_split_stats(self, nodes, identifiers, gammas, root=None, entries=()):
        """Split statistics of a tree level with POHDP proofs against the
        commitments, converted to shares — at level 0 after the root's
        label totals, which :meth:`VerifiedLabelProvider.totals` proves.

        Proof generation and verification both run here; only the
        conversion reaches the bus.  Each statistic is proven and verified
        on its own, so the packing comes after: the verified ciphertexts go
        to Algorithm 2, which packs them at the declared width.
        """
        ctx = self.ctx
        pk = ctx.threshold.public_key
        stat_cts: list[EncryptedNumber] = [] if root is None else self._root_totals(root)
        first = True
        for node, ids, node_gammas in zip(nodes, identifiers, gammas):
            for client_idx, feature, split in ids:
                committed = self.committed_indicators[(client_idx, feature, split)]
                for vec in [node.alpha, *node_gammas]:
                    out, proof = committed.prove_dot_product(vec)
                    if self.cheat == "stats" and first:
                        out = out + pk.encrypt(1)  # lie by +1
                        first = False
                    committed.verify_dot_product(vec, out, proof)
                    stat_cts.append(ctx.encoder.wrap(out, vec[0].exponent))
        return ctx.to_shares(stat_cts, bound_bits=self._stat_bound_bits)

    def _apply_splits(self, splits):
        """Model update of a tree level with per-element POPCM on every
        [α_l] (§9.1.2); each right child is [α] ⊖ [α_l], which every
        verifier computes herself.  A split whose children will not read a
        mask vector proves nothing."""
        ctx = self.ctx
        thresholds = []
        children: dict[int, list] = {}
        for s in splits:
            node = s.node
            thresholds.append(ctx.clients[s.owner].split_values[s.feature][s.split])
            if not s.build:
                continue
            committed = self.committed_indicators[(s.owner, s.feature, s.split)]
            outputs_l, proofs_l = committed.prove_elementwise_product(node.alpha)
            if self.cheat == "update":
                outputs_l[0] = outputs_l[0] + ctx.threshold.public_key.encrypt(1)
            committed.verify_elementwise_product(node.alpha, outputs_l, proofs_l)
            alpha_left = [
                ctx.encoder.wrap(o, a.exponent) for o, a in zip(outputs_l, node.alpha)
            ]
            children[2 * node.key] = [alpha_left, None]
            children[2 * node.key + 1] = [
                ctx.batch.subtract_vectors(node.alpha, alpha_left), None
            ]
        return thresholds, children


class CheatingClient:
    """Factory for adversarial training runs (used by failure-injection
    tests): ``step`` selects where the deviation happens."""

    STEPS = ("stats", "update")

    def __init__(self, step: str):
        if step not in self.STEPS:
            raise ValueError(f"unknown cheating step {step!r}")
        self.step = step

    def train(self, context: Federation):
        return MaliciousTreeTrainer(context, cheat=self.step).fit()
