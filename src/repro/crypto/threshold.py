"""Threshold Paillier (TPHE) with a full threshold structure (paper §2.1).

The paper requires a *full* threshold structure: the public key pk is known
to everyone, each client u_i holds a partial secret key sk_i, and decrypting
any ciphertext requires all m clients to participate.

Construction (standard additive-sharing threshold Paillier, as implemented
by libhcs which the paper uses):

* Partial decryption of a ciphertext c is  c_i = c^{d_i} mod n^2.
* Combination multiplies the m partial decryptions:
      prod_i c_i = c^{sum d_i} = c^d = 1 + m_plain * theta * n (mod n^2),
  and the plaintext is recovered with the L-function L(x) = (x - 1) / n
  followed by a multiplication by theta^{-1} mod n.

Two key-generation paths produce the (d_i, theta) material, and the
deployment topology picks one; no configuration does:

* **Dealer** — :func:`generate_threshold_keypair` plays a trusted dealer:
  it chooses d with  d = 0 (mod lambda(n))  and  d = 1 (mod n)  (CRT) and
  splits d additively modulo n * lambda(n).  Here theta = 1.  The bundle
  keeps the dealer's CRT private key only as the tests' reference
  decryption — nothing in the package decrypts with it.  The in-process
  :class:`~repro.federation.federation.Federation`, which hosts every
  party and so holds every d_i anyway, always uses it.
  The dealer draws the factors from
  :func:`repro.crypto.primes.random_prime_pair`: distinct, equal length,
  p = q = 3 (mod 4) — the key condition of the obfuscator (see
  :mod:`repro.crypto.paillier`) — and retries until gcd(lambda, n) = 1;
  factors passed in by the caller are used as given.  libhcs (the
  paper's implementation) also centralizes the §3.4 "the m clients
  jointly generate the keys".
* **Distributed (no dealer)** — :mod:`repro.crypto.distkeygen` runs a
  Boneh–Franklin style m-party protocol over the message bus, and every
  multi-process federation
  (:class:`~repro.federation.runtime.RuntimeFederation`) runs it: the RSA
  modulus n = (sum p_i)(sum q_i) is generated from per-party prime-share
  candidates (trial-division sieve on broadcast residues, then a joint
  biprimality test), and the decryption exponent d = phi(n) * beta is
  additively shared *by construction* — party i only ever knows
  (p_i, q_i, beta_i, d_i), so no process ever materializes lambda, mu, p
  or q.  Both factors are 3 mod 4 by construction (the lead share is
  3 mod 4, every other share 0 mod 4, as the biprimality test needs),
  so the joint key meets the same obfuscator condition; the parties'
  auxiliary Paillier keys are unconstrained primes, used only with
  caller-chosen randomness.  The public element theta = sum(d_i) mod n
  (a unit mod n, Damgard–Jurik style) replaces the dealer path's implicit theta = 1:
  c^{sum d_i} = c^{phi(n) * beta} = 1 + m_plain * theta * n (mod n^2)
  because c^{phi(n)} = 1 + m_plain' * n with the beta masking folded into
  theta.

Either way there is one way to decrypt: every share computes
c^{d_i} mod n² and the plaintext is reconstructed *only* from the m share
values (:func:`combine_partial_decryptions` /
:func:`combine_partial_vectors`).  An honest product is 1 (mod n); a
product that is not — a corrupted share, or shares computed on different
ciphertexts — raises :class:`ShareCombinationError` instead of yielding
an integer that looks like a plaintext.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis import opcount
from repro.crypto import primes
from repro.crypto.paillier import (
    Ciphertext,
    PaillierPrivateKey,
    PaillierPublicKey,
    _lcm,
)

__all__ = [
    "PartialDecryption",
    "ShareCombinationError",
    "ThresholdKeyShare",
    "ThresholdPaillier",
    "combine_partial_decryptions",
    "combine_partial_vectors",
    "generate_threshold_keypair",
]

class ShareCombinationError(ValueError):
    """The product of the decryption shares is not 1 (mod n): some share is
    corrupt, or the shares were computed on different ciphertexts."""


@dataclass(frozen=True)
class PartialDecryption:
    """One client's decryption share c^{d_i} mod n^2."""

    party_index: int
    value: int


@dataclass(frozen=True)
class ThresholdKeyShare:
    """Partial secret key sk_i = (i, d_i) held by client u_i."""

    public_key: PaillierPublicKey
    party_index: int
    d_share: int = field(repr=False)

    def partial_decrypt(self, ciphertext: Ciphertext) -> PartialDecryption:
        if ciphertext.public_key != self.public_key:
            raise ValueError("ciphertext under a different public key")
        pk = self.public_key
        return PartialDecryption(
            self.party_index, pow(ciphertext.raw, self.d_share, pk.n_squared)
        )

    def partial_decrypt_batch(
        self, ciphertexts: list[Ciphertext]
    ) -> list[PartialDecryption]:
        """Partial decryption of a whole batch (one message in a deployment:
        the paper's protocols always decrypt vectors of statistics)."""
        pk = self.public_key
        for ct in ciphertexts:
            if ct.public_key != pk:
                raise ValueError("ciphertext under a different public key")
        return [
            PartialDecryption(
                self.party_index, pow(ct.raw, self.d_share, pk.n_squared)
            )
            for ct in ciphertexts
        ]


def _require_all_parties(indices: list[int], n_parties: int) -> None:
    """The full threshold structure admits no decryption by fewer than m
    clients: every party index 0..m-1 must appear exactly once."""
    if sorted(indices) != list(range(n_parties)):
        raise ValueError(
            f"full-threshold decryption needs all {n_parties} shares, got "
            f"indices {sorted(indices)}"
        )


def _combine_shares(
    public_key: PaillierPublicKey,
    values: Iterable[int],
    theta_inverse: int,
    signed: bool,
) -> int:
    """prod_i c^{d_i} = 1 + m * theta * n (mod n^2)  ->  m."""
    acc = 1
    for value in values:
        acc = (acc * value) % public_key.n_squared
    quotient, remainder = divmod(acc - 1, public_key.n)
    if remainder:
        raise ShareCombinationError(
            "decryption shares do not combine to 1 (mod n): a share is "
            "corrupt or was computed on a different ciphertext"
        )
    plaintext = quotient * theta_inverse % public_key.n
    return public_key.to_signed(plaintext) if signed else plaintext


def combine_partial_decryptions(
    public_key: PaillierPublicKey,
    partials: list[PartialDecryption],
    n_parties: int,
    signed: bool = True,
    theta: int = 1,
) -> int:
    """Combine all m partial decryptions into the plaintext.

    ``theta`` is the public combination element: 1 on the dealer path,
    and sum(d_i) mod n for distributed keygen (where the combined
    exponent is phi(n)*beta rather than the CRT-normalized d).

    Raises if any share is missing or duplicated — the full threshold
    structure admits no decryption by fewer than m clients — and
    :class:`ShareCombinationError` if the shares' product is not 1 (mod n).
    """
    _require_all_parties([p.party_index for p in partials], n_parties)
    opcount.GLOBAL.cd += 1
    values = (p.value for p in partials)
    return _combine_shares(public_key, values, pow(theta, -1, public_key.n), signed)


def combine_partial_vectors(
    public_key: PaillierPublicKey,
    vectors: list,
    n_parties: int,
    signed: bool = True,
    theta: int = 1,
) -> list[int]:
    """Element-wise combination of m per-party share *vectors*.

    ``vectors`` are the m :class:`~repro.network.wire.PartialDecryptionVector`
    payloads a threshold-decryption flow moved (duck-typed: anything with
    ``party_index`` and ``values``), one per party, all of one batch length.
    Returns the plaintext batch; one Cd per element, identical to the
    per-ciphertext accounting of :func:`combine_partial_decryptions`.  A
    missing or duplicated party vector — or ragged batch lengths — raises,
    as does an element whose shares' product is not 1 (mod n)
    (:class:`ShareCombinationError`).  The party indices are validated and
    ``theta`` inverted once for the batch, not per element.
    """
    if len(vectors) != n_parties:
        raise ValueError(
            f"full-threshold decryption needs all {n_parties} share vectors, "
            f"got {len(vectors)}"
        )
    _require_all_parties([v.party_index for v in vectors], n_parties)
    lengths = {len(v.values) for v in vectors}
    if len(lengths) != 1:
        raise ValueError(f"share vectors disagree on batch length: {lengths}")
    (count,) = lengths
    opcount.GLOBAL.cd += count
    theta_inverse = pow(theta, -1, public_key.n)
    return [
        _combine_shares(public_key, column, theta_inverse, signed)
        for column in zip(*(v.values for v in vectors))
    ]


class ThresholdPaillier:
    """Bundle of (pk, key shares) for an m-client deployment.

    In the simulated deployment each party owns exactly one
    :class:`ThresholdKeyShare`; this bundle exists so tests and the
    setup phase can hand the shares out and so single-process code can
    run a "joint decryption" in one call.

    In a multi-process deployment the bundle holds only this process's
    own share; every other party's slot is ``None`` (her ``d_share``
    lives in her own process), so decryption only works through the
    share-combination message flow.  Such a bundle never carries a
    private key: only a dealer has one, and a dealer deals every share.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        shares: list[ThresholdKeyShare | None],
        private_key: PaillierPrivateKey | None = None,
        theta: int = 1,
    ):
        if private_key is not None and None in shares:
            raise ValueError(
                "a bundle missing a party's share cannot carry a private "
                "key: only the dealer has one, and it deals every share"
            )
        self.public_key = public_key
        self.shares = shares
        self.n_parties = len(shares)
        # The dealer's key: the tests' reference decryption, never
        # decrypted with by the package.  None for distributed keygen,
        # where no such key ever exists anywhere.
        self._private_key = private_key
        #: Public combination element (1 for the dealer path; sum(d_i) mod
        #: n for distributed keygen).
        self.theta = theta

    def encrypt(self, plaintext: int) -> Ciphertext:
        return self.public_key.encrypt(plaintext)

    def _require_shares(self) -> list[ThresholdKeyShare]:
        if any(share is None for share in self.shares):
            missing = [i for i, s in enumerate(self.shares) if s is None]
            raise RuntimeError(
                f"cannot decrypt locally: the d_share values of parties "
                f"{missing} live in their owners' processes; run the "
                f"share-combination flow instead"
            )
        return self.shares

    def joint_decrypt(self, ciphertext: Ciphertext, signed: bool = True) -> int:
        """All m clients decrypt together (simulation convenience)."""
        partials = [
            share.partial_decrypt(ciphertext) for share in self._require_shares()
        ]
        return combine_partial_decryptions(
            self.public_key, partials, self.n_parties, signed=signed,
            theta=self.theta,
        )

    def share_vectors(self, ciphertexts: list[Ciphertext]) -> list[_ShareValues]:
        """Every party's c^{d_i} vector for the batch, computed in this
        process (the bundle must hold all m shares)."""
        return [
            _ShareValues(
                share.party_index,
                tuple(p.value for p in share.partial_decrypt_batch(ciphertexts)),
            )
            for share in self._require_shares()
        ]

    def joint_decrypt_batch(
        self, ciphertexts: list[Ciphertext], signed: bool = True
    ) -> list[int]:
        """Threshold-decrypt a batch: the plaintexts come from
        :func:`combine_partial_vectors` over :meth:`share_vectors` alone
        (one Cd per ciphertext, Table 2's accounting)."""
        if not ciphertexts:
            return []
        return combine_partial_vectors(
            self.public_key,
            self.share_vectors(ciphertexts),
            self.n_parties,
            signed=signed,
            theta=self.theta,
        )


@dataclass(frozen=True)
class _ShareValues:
    """Minimal (party_index, values) pair for combine_partial_vectors —
    the crypto layer's stand-in for the wire-level PartialDecryptionVector
    (which lives in repro.network and cannot be imported from here)."""

    party_index: int
    values: tuple[int, ...]


def generate_threshold_keypair(
    n_parties: int,
    keysize: int = 1024,
    p: int | None = None,
    q: int | None = None,
) -> ThresholdPaillier:
    """Dealer-based full-threshold key generation for ``n_parties`` clients."""
    if n_parties < 2:
        raise ValueError(f"threshold Paillier needs >= 2 parties, got {n_parties}")
    while True:
        if p is None or q is None:
            p_, q_ = primes.random_prime_pair(keysize)
        else:
            p_, q_ = p, q
        n = p_ * q_
        lam = _lcm(p_ - 1, q_ - 1)
        # CRT requires gcd(lambda, n) = 1; fails only if p | q-1 or q | p-1,
        # which is negligible for random primes but cheap to check.
        if math.gcd(lam, n) == 1:
            break
        if p is not None:
            raise ValueError("supplied p, q give gcd(lambda, n) != 1")

    public_key = PaillierPublicKey(n)
    mu = pow(lam, -1, n)
    private_key = PaillierPrivateKey(public_key, lam, mu, p=p_, q=q_)

    # d = 0 (mod lambda), d = 1 (mod n), shared additively mod n*lambda.
    d = lam * mu % (n * lam)
    modulus = n * lam
    shares_int = [secrets.randbelow(modulus) for _ in range(n_parties - 1)]
    last = (d - sum(shares_int)) % modulus
    shares_int.append(last)
    shares = [
        ThresholdKeyShare(public_key, i, d_i) for i, d_i in enumerate(shares_int)
    ]
    return ThresholdPaillier(public_key, shares, private_key)
