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

Two key-generation paths produce the (d_i, theta) material:

* **Dealer (legacy / simulate-mode)** — :func:`generate_threshold_keypair`
  plays a trusted dealer: it chooses d with  d = 0 (mod lambda(n))  and
  d = 1 (mod n)  (CRT) and splits d additively modulo n * lambda(n).
  Here theta = 1 and the dealer retains the CRT private key, which the
  ``"simulate"`` decrypt mode uses as a single-process shortcut.  The
  dealer draws the factors from
  :func:`repro.crypto.primes.random_prime_pair`: distinct, equal length,
  p = q = 3 (mod 4) — the key condition of the obfuscator (see
  :mod:`repro.crypto.paillier`) — and retries until gcd(lambda, n) = 1;
  factors passed in by the caller are used as given.  This
  was the seed's only path — a stand-in for the paper's §3.4 "the m
  clients jointly generate the keys", which libhcs (the paper's
  implementation) also centralizes.
* **Distributed (no dealer)** — :mod:`repro.crypto.distkeygen` runs a
  Boneh–Franklin style m-party protocol over the message bus: the RSA
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
  theta.  For these federations ``decrypt_mode="combine"`` is the only
  real mode and :meth:`ThresholdPaillier.scrub_dealer` is a no-op legacy
  hook — there is nothing to scrub.

Decryption modes (:attr:`ThresholdPaillier.decrypt_mode`):

* ``"combine"`` — the real protocol data flow: every share computes
  c^{d_i} mod n² and the plaintext is reconstructed *only* from the m
  share values (:func:`combine_partial_decryptions`).  The only mode a
  distributed-keygen federation can run, and the mode a dealer-based
  deployment runs after the dealer's withheld key has been scrubbed.
* ``"simulate"`` — a single-process shortcut available only on the dealer
  path: the dealer's retained CRT private key recovers each plaintext
  with one accelerated decryption instead of m full-size
  exponentiations.  Bit-identical results and Cd accounting (proof in
  :meth:`ThresholdPaillier.joint_decrypt_batch`); only wall time differs.
"""

from __future__ import annotations

import math
import os
import secrets
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

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
    "ThresholdKeyShare",
    "ThresholdPaillier",
    "combine_partial_decryptions",
    "combine_partial_vectors",
    "decrypt_mode_default",
    "generate_threshold_keypair",
]

DECRYPT_MODES = ("simulate", "combine")


def decrypt_mode_default() -> str | None:
    """Default for ``PivotConfig.decrypt_mode`` (env-overridable).

    ``PIVOT_DECRYPT_MODE=combine`` forces real share combination for every
    context built while it is set (the CI ``threshold-realism`` leg runs
    the deployment tests that way); ``simulate`` forces the CRT shortcut.
    Unset returns ``None``, which the context resolves from
    ``batch_crypto`` (True -> simulate, False -> combine).
    """
    mode = os.environ.get("PIVOT_DECRYPT_MODE", "").strip().lower()
    if mode in DECRYPT_MODES:
        return mode
    if mode:
        raise ValueError(
            f"PIVOT_DECRYPT_MODE must be one of {DECRYPT_MODES}, got {mode!r}"
        )
    return None


def _serial_map(fn: Callable[[Any], Any], items: list[Any]) -> list[Any]:
    return [fn(item) for item in items]


def _pow_share(args: tuple[int, int, int]) -> int:
    """pow(c, d_i, n²) — top-level so a process pool can pickle it."""
    raw, d_share, n_squared = args
    return pow(raw, d_share, n_squared)


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
        self,
        ciphertexts: list[Ciphertext],
        parallel_map: Callable[..., list[Any]] | None = None,
    ) -> list[PartialDecryption]:
        """Partial decryption of a whole batch (one message in a deployment:
        the paper's protocols always decrypt vectors of statistics).

        ``parallel_map`` fans the full-size exponentiations — the per-party
        hot loop of ``decrypt_mode="combine"`` — out over a worker pool
        (pass :meth:`repro.crypto.batch.BatchCryptoEngine._map`, or use
        :meth:`~repro.crypto.batch.BatchCryptoEngine.partial_decrypt_batch`
        which wires it up); the default is the serial list comprehension.
        """
        pk = self.public_key
        for ct in ciphertexts:
            if ct.public_key != pk:
                raise ValueError("ciphertext under a different public key")
        pmap = parallel_map or _serial_map
        values = pmap(
            _pow_share,
            [(ct.raw, self.d_share, pk.n_squared) for ct in ciphertexts],
        )
        return [PartialDecryption(self.party_index, v) for v in values]


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
    plaintext = ((acc - 1) // public_key.n) * theta_inverse % public_key.n
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
    structure admits no decryption by fewer than m clients.
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
    per-ciphertext accounting of :func:`combine_partial_decryptions` and of
    the simulate path.  A missing or duplicated party vector — or ragged
    batch lengths — raises.  The party indices are validated and ``theta``
    inverted once for the batch, not per element.
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

    In the simulated deployment each :class:`~repro.core.client` object owns
    exactly one :class:`ThresholdKeyShare`; this bundle exists so tests and
    the trusted-setup phase can hand the shares out and so single-process
    code can run a "joint decryption" in one call.

    After a process deployment provisions the shares to their owners the
    bundle is *scrubbed* (:meth:`scrub_dealer`): the dealer's withheld
    private key and the remote parties' ``d_share`` values are dropped, so
    the process holding the bundle cannot decrypt without the m−1 other
    parties — decryption then only works through the share-combination
    message flow.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        shares: list[ThresholdKeyShare | None],
        private_key: PaillierPrivateKey | None = None,
        decrypt_mode: str = "simulate",
        theta: int = 1,
        distributed: bool = False,
    ):
        self.public_key = public_key
        self.shares = shares
        self.n_parties = len(shares)
        # Retained for tests/debugging and for the simulate mode's CRT
        # shortcut; scrubbed by deployments, and never part of the real
        # protocols' message flow.  Always None on the distributed-keygen
        # path: no such key ever exists anywhere.
        self._private_key = private_key
        #: Public combination element (1 for the dealer path; sum(d_i) mod
        #: n for distributed keygen).
        self.theta = theta
        #: True when the shares came from the dealer-free protocol — the
        #: bundle then never held anything to scrub and cannot simulate.
        self.distributed = distributed
        if distributed and private_key is not None:
            raise ValueError("a distributed-keygen bundle has no private key")
        self.decrypt_mode = decrypt_mode

    @property
    def decrypt_mode(self) -> str:
        """``"simulate"`` (dealer-key CRT shortcut) or ``"combine"``
        (plaintexts reconstructed only from the m decryption shares)."""
        return self._decrypt_mode

    @decrypt_mode.setter
    def decrypt_mode(self, mode: str) -> None:
        if mode not in DECRYPT_MODES:
            raise ValueError(
                f"decrypt_mode must be one of {DECRYPT_MODES}, got {mode!r}"
            )
        if mode == "simulate" and self.distributed:
            raise ValueError(
                "decrypt_mode='simulate' needs the dealer's private key; a "
                "distributed-keygen federation has no such key anywhere — "
                "'combine' is the only real mode"
            )
        self._decrypt_mode = mode

    @property
    def fast_decrypt(self) -> bool:
        """Legacy boolean view of :attr:`decrypt_mode` (True = simulate)."""
        return self._decrypt_mode == "simulate"

    @fast_decrypt.setter
    def fast_decrypt(self, enabled: bool) -> None:
        self.decrypt_mode = "simulate" if enabled else "combine"

    def scrub_dealer(self, keep_shares: set[int] | frozenset[int] = frozenset()) -> None:
        """Drop the dealer's withheld key material after provisioning.

        ``keep_shares`` names the parties whose shares legitimately live in
        this process (the super client in a deployment); every other
        party's ``d_share`` is dropped along with the private key, and
        :attr:`decrypt_mode` is forced to ``"combine"`` — the only mode
        that still works.  After the scrub this process provably cannot
        decrypt alone: any decryption needs the m−1 remote share vectors.

        On the distributed-keygen path this is a **legacy hook**: the
        bundle never held a dealer key (there is none anywhere) and
        ``decrypt_mode`` is already ``"combine"``.  Dropping the non-kept
        shares still applies when one process hosted several parties'
        keygen machines (the deployed topology runs all m state machines
        orchestrator-side for transcript determinism, then provisions each
        worker her share) — after the scrub those ``d_share`` values live
        only with their owners.
        """
        if self.distributed:
            self.shares = [
                share
                if share is not None and share.party_index in keep_shares
                else None
                for share in self.shares
            ]
            return
        self._private_key = None
        self.shares = [
            share if share is not None and share.party_index in keep_shares else None
            for share in self.shares
        ]
        self.decrypt_mode = "combine"

    @property
    def scrubbed(self) -> bool:
        return self._private_key is None and any(s is None for s in self.shares)

    def encrypt(self, plaintext: int) -> Ciphertext:
        return self.public_key.encrypt(plaintext)

    def _require_shares(self) -> list[ThresholdKeyShare]:
        if any(share is None for share in self.shares):
            missing = [i for i, s in enumerate(self.shares) if s is None]
            raise RuntimeError(
                f"cannot decrypt locally: the d_share values of parties "
                f"{missing} were scrubbed from this process (they live with "
                f"their owners); run the share-combination flow instead"
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

    def joint_decrypt_batch(
        self,
        ciphertexts: list[Ciphertext],
        signed: bool = True,
        parallel_map: Callable[..., list[Any]] | None = None,
    ) -> list[int]:
        """Threshold-decrypt a batch of ciphertexts (the hot path).

        In ``"simulate"`` mode (dealer's private key retained), each
        plaintext is recovered with one CRT-accelerated private-key
        decryption instead of m full-size partial exponentiations.  The
        results are identical: with d = 1 (mod n) and d = 0 (mod lambda),
        c^d = (1+n)^m r^{nd} = 1 + m*n (mod n^2) for c = (1+n)^m r^n, so
        combining the partials yields exactly the plaintext m that
        L(c^lambda)*mu recovers.  One Cd is counted per ciphertext either
        way, matching Table 2's accounting.

        In ``"combine"`` mode each share computes her full partial vector
        (optionally fanned out over ``parallel_map``) and the plaintexts
        come from :func:`combine_partial_vectors` alone.
        """
        if not ciphertexts:
            return []
        private = self._private_key if self._decrypt_mode == "simulate" else None
        if private is None:
            vectors = [
                _ShareValues(
                    share.party_index,
                    tuple(
                        p.value
                        for p in share.partial_decrypt_batch(
                            ciphertexts, parallel_map
                        )
                    ),
                )
                for share in self._require_shares()
            ]
            return combine_partial_vectors(
                self.public_key, vectors, self.n_parties, signed=signed,
                theta=self.theta,
            )
        pk = self.public_key
        results = []
        for ct in ciphertexts:
            if ct.public_key != pk:
                raise ValueError("ciphertext under a different public key")
            opcount.GLOBAL.cd += 1
            plaintext = private.raw_decrypt(ct.raw)
            results.append(pk.to_signed(plaintext) if signed else plaintext)
        return results


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
