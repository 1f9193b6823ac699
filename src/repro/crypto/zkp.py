"""Zero-knowledge proofs for the malicious-model extension (paper §9.1.1).

Implements the three Σ-protocol building blocks the paper lists, made
non-interactive with the Fiat–Shamir transform:

* **POPK** — proof of plaintext knowledge: the prover knows (a, r) such
  that c = Enc(a; r)  [Cramer–Damgård–Nielsen '01].
* **POPCM** — proof of plaintext-ciphertext multiplication: given
  ciphertexts c_a, c_b, c_out, the prover knows a (the plaintext of c_a)
  and randomness such that Dec(c_out) = a * Dec(c_b).
* **POHDP** — proof of homomorphic dot product: given a ciphertext vector
  [b], committed coefficients [a_i] and a ciphertext c_out, the prover
  knows (a_1..a_L) such that Dec(c_out) = sum_i a_i * Dec(b_i)  [Helen,
  S&P'19].

All arithmetic facts used:

* g = n + 1 has order n in Z*_{n^2}, so exponents of g reduce mod n.
* x -> x^n mod n^2 depends only on x mod n, so randomness responses reduce
  mod n.
* c^(z + kn) = c^z * (c^k)^n, so the carry k from reducing an exponent of
  an arbitrary ciphertext mod n can be folded into the randomness response.

The power in "c_out = c_b^a * s^n" is the one the homomorphic operators
compute (:func:`repro.crypto.paillier.power_product`): a coefficient is
read as its centred representative, so a negative one is an inverse and a
short power, and the carry k above may be -1.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass

from repro.crypto.paillier import Ciphertext, PaillierPublicKey, centred

__all__ = [
    "ProofError",
    "PlaintextKnowledgeProof",
    "MultiplicationProof",
    "DotProductProof",
    "prove_plaintext_knowledge",
    "verify_plaintext_knowledge",
    "prove_multiplication",
    "verify_multiplication",
    "prove_dot_product",
    "verify_dot_product",
]


class ProofError(Exception):
    """A zero-knowledge proof failed to verify."""


def _challenge_bits(pk: PaillierPublicKey) -> int:
    # Soundness requires the challenge to be smaller than the smallest prime
    # factor of n; for balanced moduli half the key size minus slack is safe.
    return min(128, pk.n.bit_length() // 2 - 16)


def _fiat_shamir(pk: PaillierPublicKey, *elements: int) -> int:
    hasher = hashlib.sha256()
    hasher.update(pk.n.to_bytes((pk.n.bit_length() + 7) // 8, "big"))
    for element in elements:
        data = element.to_bytes((element.bit_length() + 7) // 8 or 1, "big")
        hasher.update(len(data).to_bytes(4, "big"))
        hasher.update(data)
    digest = int.from_bytes(hasher.digest(), "big")
    return digest % (1 << _challenge_bits(pk))


def _random_unit(pk: PaillierPublicKey) -> int:
    while True:
        r = secrets.randbelow(pk.n - 1) + 1
        if _gcd(r, pk.n) == 1:
            return r


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------
# POPK — proof of plaintext knowledge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaintextKnowledgeProof:
    commitment: int  # A = Enc(x; u)
    z: int  # x + e*a mod n
    w: int  # u * r^e mod n


def prove_plaintext_knowledge(
    pk: PaillierPublicKey, plaintext: int, randomness: int, ciphertext: Ciphertext
) -> PlaintextKnowledgeProof:
    """Prove knowledge of (plaintext, randomness) for ``ciphertext``."""
    x = secrets.randbelow(pk.n)
    u = _random_unit(pk)
    commitment = pk.encrypt_with_r(x, u).raw
    e = _fiat_shamir(pk, ciphertext.raw, commitment)
    z = (x + e * (plaintext % pk.n)) % pk.n
    w = (u * pow(randomness, e, pk.n)) % pk.n
    return PlaintextKnowledgeProof(commitment, z, w)


def verify_plaintext_knowledge(
    pk: PaillierPublicKey, ciphertext: Ciphertext, proof: PlaintextKnowledgeProof
) -> None:
    """Raise :class:`ProofError` unless the proof verifies."""
    e = _fiat_shamir(pk, ciphertext.raw, proof.commitment)
    lhs = pk.encrypt_with_r(proof.z, proof.w).raw
    rhs = (proof.commitment * pow(ciphertext.raw, e, pk.n_squared)) % pk.n_squared
    if lhs != rhs:
        raise ProofError("POPK verification failed")


# ---------------------------------------------------------------------------
# POPCM — proof of plaintext-ciphertext multiplication
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicationProof:
    commitment_a: int  # A = Enc(x; u)
    commitment_b: int  # B = c_b^x * v^n
    z: int  # x + e*a mod n
    w: int  # u * r_a^e mod n        (randomness response for c_a)
    gamma: int  # v * s^e * c_b^k mod n  (randomness response for c_out)


def prove_multiplication(
    pk: PaillierPublicKey,
    a: int,
    r_a: int,
    c_a: Ciphertext,
    c_b: Ciphertext,
    s: int,
    c_out: Ciphertext,
) -> MultiplicationProof:
    """Prove c_out = c_b^a * s^n with a the plaintext of c_a = Enc(a; r_a)."""
    n, n2 = pk.n, pk.n_squared
    x = secrets.randbelow(n)
    u = _random_unit(pk)
    v = _random_unit(pk)
    commitment_a = pk.encrypt_with_r(x, u).raw
    commitment_b = (pow(c_b.raw, x, n2) * pow(v, n, n2)) % n2
    e = _fiat_shamir(pk, c_a.raw, c_b.raw, c_out.raw, commitment_a, commitment_b)
    full = x + e * centred(a, n)
    z, k = full % n, full // n
    w = (u * pow(r_a, e, n)) % n
    gamma = (v * pow(s, e, n2) * pow(c_b.raw, k, n2)) % n2
    return MultiplicationProof(commitment_a, commitment_b, z, w, gamma)


def verify_multiplication(
    pk: PaillierPublicKey,
    c_a: Ciphertext,
    c_b: Ciphertext,
    c_out: Ciphertext,
    proof: MultiplicationProof,
) -> None:
    n2 = pk.n_squared
    e = _fiat_shamir(
        pk, c_a.raw, c_b.raw, c_out.raw, proof.commitment_a, proof.commitment_b
    )
    # Knowledge of a inside c_a.
    lhs_a = pk.encrypt_with_r(proof.z, proof.w).raw
    rhs_a = (proof.commitment_a * pow(c_a.raw, e, n2)) % n2
    if lhs_a != rhs_a:
        raise ProofError("POPCM verification failed (coefficient part)")
    # Multiplicative relation for c_out.
    lhs_b = (pow(c_b.raw, proof.z, n2) * pow(proof.gamma, pk.n, n2)) % n2
    rhs_b = (proof.commitment_b * pow(c_out.raw, e, n2)) % n2
    if lhs_b != rhs_b:
        raise ProofError("POPCM verification failed (product part)")


# ---------------------------------------------------------------------------
# POHDP — proof of homomorphic dot product
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DotProductProof:
    commitments_a: tuple[int, ...]  # A_i = Enc(x_i; u_i)
    commitment_b: int  # B = prod c_b_i^{x_i} * v^n
    z: tuple[int, ...]  # x_i + e*a_i mod n
    w: tuple[int, ...]  # u_i * r_i^e mod n
    gamma: int  # v * s^e * prod c_b_i^{k_i} mod n


def prove_dot_product(
    pk: PaillierPublicKey,
    coefficients: list[int],
    randomness: list[int],
    committed: list[Ciphertext],
    vector: list[Ciphertext],
    s: int,
    c_out: Ciphertext,
) -> DotProductProof:
    """Prove c_out = prod_i vector_i^{a_i} * s^n for committed a_i.

    ``committed[i] = Enc(a_i; randomness[i])`` are the prover's commitments
    (broadcast before training in the malicious protocol, §9.1.2).
    """
    if not (len(coefficients) == len(randomness) == len(committed) == len(vector)):
        raise ValueError("POHDP input length mismatch")
    n, n2 = pk.n, pk.n_squared
    xs = [secrets.randbelow(n) for _ in coefficients]
    us = [_random_unit(pk) for _ in coefficients]
    v = _random_unit(pk)
    commitments_a = tuple(pk.encrypt_with_r(x, u).raw for x, u in zip(xs, us))
    acc = pow(v, n, n2)
    for x, b in zip(xs, vector):
        acc = (acc * pow(b.raw, x, n2)) % n2
    commitment_b = acc
    e = _fiat_shamir(
        pk,
        *[c.raw for c in committed],
        *[b.raw for b in vector],
        c_out.raw,
        *commitments_a,
        commitment_b,
    )
    zs, ks = [], []
    for x, a in zip(xs, coefficients):
        full = x + e * centred(a, n)
        zs.append(full % n)
        ks.append(full // n)
    ws = [(u * pow(r, e, n)) % n for u, r in zip(us, randomness)]
    gamma = (v * pow(s, e, n2)) % n2
    for k, b in zip(ks, vector):
        gamma = (gamma * pow(b.raw, k, n2)) % n2
    return DotProductProof(commitments_a, commitment_b, tuple(zs), tuple(ws), gamma)


def verify_dot_product(
    pk: PaillierPublicKey,
    committed: list[Ciphertext],
    vector: list[Ciphertext],
    c_out: Ciphertext,
    proof: DotProductProof,
) -> None:
    n2 = pk.n_squared
    e = _fiat_shamir(
        pk,
        *[c.raw for c in committed],
        *[b.raw for b in vector],
        c_out.raw,
        *proof.commitments_a,
        proof.commitment_b,
    )
    for commitment, c_a, z, w in zip(proof.commitments_a, committed, proof.z, proof.w):
        lhs = pk.encrypt_with_r(z, w).raw
        rhs = (commitment * pow(c_a.raw, e, n2)) % n2
        if lhs != rhs:
            raise ProofError("POHDP verification failed (coefficient part)")
    lhs = pow(proof.gamma, pk.n, n2)
    for z, b in zip(proof.z, vector):
        lhs = (lhs * pow(b.raw, z, n2)) % n2
    rhs = (proof.commitment_b * pow(c_out.raw, e, n2)) % n2
    if lhs != rhs:
        raise ProofError("POHDP verification failed (product part)")
