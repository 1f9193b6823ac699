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
  per-element POPCM against her committed indicators.

A :class:`CheatingClient` adversary deviates at a chosen step; the honest
verifiers detect it and abort with :class:`~repro.crypto.zkp.ProofError`
(or :class:`~repro.mpc.sharing.MacCheckError` for share tampering).
"""

from __future__ import annotations

import secrets

import numpy as np

from repro.core.context import PivotContext
from repro.core.labels import PlaintextLabelProvider
from repro.core.trainer import TreeTrainer
from repro.crypto import zkp
from repro.crypto.encoding import EncryptedNumber
from repro.crypto.paillier import Ciphertext, dot_product

__all__ = ["MaliciousPivotDecisionTree", "CheatingClient", "CommittedVector"]


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

    def gammas(self, alpha, node_gammas, node_key: int = 1):
        # Central verified flow (the malicious model is a research mode
        # driven in one process); node_key is accepted for interface
        # parity with the reactive provider but no runtime store is kept.
        ctx = self.context
        result = []
        for commitment in self.commitments:
            outputs, proofs = commitment.prove_elementwise_product(alpha)
            commitment.verify_elementwise_product(alpha, outputs, proofs)
            exponent = alpha[0].exponent + self._shift
            result.append([ctx.encoder.wrap(o, exponent) for o in outputs])
            ctx.bus.broadcast(
                ctx.super_client,
                ctx.ciphertext_bytes * 4 * len(alpha),  # gamma + POPCM
                tag="label-vectors",
            )
        ctx.bus.round()
        return result


class MaliciousPivotDecisionTree(TreeTrainer):
    """Basic-protocol training hardened per §9.1.2.

    Requires ``PivotConfig(authenticated_mpc=True)`` so the SPDZ layer
    carries MACs; conversions verify POPK on every mask ciphertext.
    """

    def __init__(self, context: PivotContext, label_provider=None, cheat: str | None = None):
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
                    vector = CommittedVector(
                        pk, list(client.indicator(feature, split))
                    )
                    vector.verify_commitment()
                    self.committed_indicators[(client.index, feature, split)] = vector
        context.bus.round()

    def _compute_split_stats(
        self, identifiers, alpha, gammas, available=None, node_key=1
    ):
        """Split statistics with POHDP proofs against the commitments.

        Stays a centrally driven flow (proof generation and verification
        both run here); ``available``/``node_key`` mirror the reactive base
        signature.
        """
        ctx = self.ctx
        pk = ctx.threshold.public_key
        stat_cts: list[EncryptedNumber] = []
        first = True
        for client_idx, feature, split in identifiers:
            committed = self.committed_indicators[(client_idx, feature, split)]
            for vec in [alpha, *gammas]:
                out, proof = committed.prove_dot_product(vec)
                if self.cheat == "stats" and first:
                    out = out + pk.encrypt(1)  # lie by +1
                    first = False
                committed.verify_dot_product(vec, out, proof)
                stat_cts.append(ctx.encoder.wrap(out, vec[0].exponent))
            ctx.bus.broadcast(
                client_idx,
                ctx.ciphertext_bytes * 3 * (1 + len(gammas)),
                tag="split-stats",
            )
        ctx.bus.round()
        return stat_cts

    def _split_basic(
        self, alpha, gammas, available, depth, identifiers, best_index,
        node_stats, rows, node_key,
    ):
        """Model update with per-element POPCM on [α_l], [α_r] (§9.1.2)."""
        ctx = self.ctx
        flat = int(ctx.engine.open(best_index))
        left_stats = self._node_stats(rows[flat])
        owner_idx, feature, split = identifiers[flat]
        ctx.revealed.append((f"best-split-d{depth}", (owner_idx, feature, split)))
        owner = ctx.clients[owner_idx]
        committed = self.committed_indicators[(owner_idx, feature, split)]
        pk = ctx.threshold.public_key

        outputs_l, proofs_l = committed.prove_elementwise_product(alpha)
        if self.cheat == "update":
            outputs_l[0] = outputs_l[0] + pk.encrypt(1)
        committed.verify_elementwise_product(alpha, outputs_l, proofs_l)
        committed_right = CommittedVector(pk, [1 - v for v in committed.values])
        outputs_r, proofs_r = committed_right.prove_elementwise_product(alpha)
        committed_right.verify_elementwise_product(alpha, outputs_r, proofs_r)
        ctx.bus.broadcast(
            owner_idx, 4 * ctx.ciphertext_bytes * len(alpha), tag="mask-vector"
        )
        ctx.bus.round()

        from repro.tree.model import TreeNode

        alpha_left = [ctx.encoder.wrap(o, a.exponent) for o, a in zip(outputs_l, alpha)]
        alpha_right = [ctx.encoder.wrap(o, a.exponent) for o, a in zip(outputs_r, alpha)]
        node = TreeNode(
            is_leaf=False,
            depth=depth,
            owner=owner_idx,
            feature=feature,
            global_feature=ctx.partition.global_feature_of(owner_idx, feature),
            threshold=owner.split_values[feature][split],
        )
        from repro.core.trainer import _child_available

        child_available = _child_available(
            available, owner_idx, feature, self.cfg.tree.remove_used_feature
        )
        node.left = self._build(
            alpha_left, None, child_available, depth + 1,
            2 * node_key, left_stats,
        )
        node.right = self._build(
            alpha_right, None, child_available, depth + 1,
            2 * node_key + 1, node_stats - left_stats,
        )
        return node


class CheatingClient:
    """Factory for adversarial training runs (used by failure-injection
    tests): ``step`` selects where the deviation happens."""

    STEPS = ("stats", "update")

    def __init__(self, step: str):
        if step not in self.STEPS:
            raise ValueError(f"unknown cheating step {step!r}")
        self.step = step

    def train(self, context: PivotContext):
        return MaliciousPivotDecisionTree(context, cheat=self.step).fit()
