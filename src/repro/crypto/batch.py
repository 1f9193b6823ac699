"""Batched Paillier engine for the protocol hot paths.

The paper (§8) reports that Pivot's training/prediction time is dominated
by homomorphic operations — encrypting the label/indicator vectors,
homomorphic dot products (Eq. 3/7/9) and threshold decryptions — and that
its implementation parallelises exactly those steps.  This module is the
single place where the reproduction batches them:

* **Obfuscator pool** — raw encryption is one mulmod (g = n+1); the rest
  of a probabilistic encryption is its random mask, an encryption of
  zero.  A mask is :meth:`PaillierPublicKey.random_obfuscator`: h_s^a mod
  n^2 for the public base h_s that every holder of n derives from n, and
  a fresh a of |n|/2 random bits, read off a fixed-base table in ~52
  modular multiplications (~0.2 ms at 512 bits, where r^n for a random r
  costs 2 ms; see :mod:`repro.crypto.paillier`).  :class:`ObfuscatorPool`
  makes exactly the masks a vector operation takes (or a warm-up asks
  for).  Every mask is popped exactly once — reuse would link two
  ciphertexts.

* **Vectorised APIs** — ``encrypt_vector``, ``encrypt_ciphertexts``,
  ``sum_ciphertexts``, ``batch_dot_products``, ``scale_vector`` and
  ``mask_vector`` mirror the value-at-a-time operators one-to-one, with
  *identical* Ce op-count tallies (paper §6, Table 2), so the cost-model
  benchmarks read the same numbers from either.

* **Linkable and unlinkable outputs** — ``scale_vector``,
  ``batch_dot_products`` and ``sum_ciphertexts`` are deterministic in
  their inputs: whoever holds the input ciphertexts can confirm a guessed
  scalar or 0/1 coefficient by recomputing (scalar 1 returns the input
  bit for bit, scalar 0 the unit ciphertext).  Their outputs stay with the
  party that computed them until she re-masks them; ``mask_vector`` is the
  one operator whose output may leave a party as it is.  The callers that
  publish: the label provider re-masks every [γ] element
  (:mod:`repro.core.labels`), each party re-masks her split statistics
  (:meth:`~repro.federation.party.PartyRuntime.split_statistics`), the
  model update goes through ``mask_vector`` directly, and so does every
  hop of Algorithm 4's round-robin after u_m's fresh encryption
  (:func:`repro.core.prediction.encrypted_leaf_sums`) — whose last
  party's dot products are re-masked once packed, by the decryption entry
  points of :class:`~repro.core.context.PivotContext`, and by the GBDT
  trainer before they enter a published residual.

Everything runs in the calling process: pickling a full-size ``pow``'s
operands to a worker and back costs about what the ``pow`` does.
Decryption is not this module's job — a plaintext exists only once all m
parties' c^{d_i} share vectors are combined
(:mod:`repro.crypto.threshold`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Iterable

from repro.analysis import opcount
from repro.crypto.encoding import (
    EncodedNumber,
    EncryptedNumber,
    PaillierEncoder,
)
from repro.crypto.paillier import Ciphertext, PaillierPublicKey, power_product

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.threshold import ThresholdPaillier

__all__ = ["ObfuscatorPool", "BatchCryptoEngine"]


class ObfuscatorPool:
    """A FIFO pool of precomputed obfuscators (encryptions of zero).

    :meth:`precompute` is the one place a mask is made.  ``take`` /
    ``take_many`` pop masks and first generate exactly what the pool is
    short of, so nothing is made that nobody takes and no mask is ever
    handed out twice.
    """

    def __init__(self, public_key: PaillierPublicKey):
        self.public_key = public_key
        self._masks: deque[int] = deque()
        self.generated = 0  # total masks ever produced (test/bench hook)

    def __len__(self) -> int:
        return len(self._masks)

    def precompute(self, count: int) -> None:
        """Add ``count`` fresh masks to the pool (idle-time warm-up; the
        takers call it with their shortfall)."""
        if count <= 0:
            return
        fresh_mask = self.public_key.random_obfuscator
        self._masks.extend(fresh_mask() for _ in range(count))
        self.generated += count

    def take(self) -> int:
        """Pop one never-used mask."""
        return self.take_many(1)[0]

    def take_many(self, count: int) -> list[int]:
        self.precompute(count - len(self._masks))
        return [self._masks.popleft() for _ in range(count)]


class BatchCryptoEngine:
    """Vectorised Paillier operations with op-count parity to the serial path.

    One engine per :class:`~repro.core.context.PivotContext`; standalone use
    (benchmarks, tests) only needs a public key::

        engine = BatchCryptoEngine(public_key)
        cts = engine.encrypt_vector([1.5, -2.0, 3.25])
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        frac_bits: int = 16,
        encoder: PaillierEncoder | None = None,
        threshold: "ThresholdPaillier | None" = None,
    ):
        self.public_key = public_key
        self.encoder = encoder or PaillierEncoder(public_key, frac_bits=frac_bits)
        self.threshold = threshold
        self.pool = ObfuscatorPool(public_key)

    # -- encryption -------------------------------------------------------

    def encrypt_vector(
        self,
        values: list[float | int],
        exponent: int | None = None,
        obfuscate: bool = True,
    ) -> list[EncryptedNumber]:
        """Vectorised :meth:`PaillierEncoder.encrypt`.

        Raw encryption is one mulmod per value; the expensive masks come
        from the obfuscator pool.  Counts one Ce per value, matching the
        serial loop.
        """
        pk = self.public_key
        encoded = [self.encoder.encode(v, exponent) for v in values]
        opcount.GLOBAL.ce += len(encoded)
        raws = [pk.raw_encrypt(e.encoding) for e in encoded]
        if obfuscate:
            masks = self.pool.take_many(len(raws))
            raws = [raw * mask % pk.n_squared for raw, mask in zip(raws, masks)]
        return [
            EncryptedNumber(self.encoder, Ciphertext(pk, raw), e.exponent)
            for raw, e in zip(raws, encoded)
        ]

    def encrypt_ciphertexts(
        self, plaintexts: list[int], obfuscate: bool = True
    ) -> list[Ciphertext]:
        """Vectorised :meth:`PaillierPublicKey.encrypt` (raw integer
        plaintexts, no fixed-point encoding) — used for conversion masks."""
        pk = self.public_key
        opcount.GLOBAL.ce += len(plaintexts)
        raws = [pk.raw_encrypt(int(x)) for x in plaintexts]
        if obfuscate:
            masks = self.pool.take_many(len(raws))
            raws = [raw * mask % pk.n_squared for raw, mask in zip(raws, masks)]
        return [Ciphertext(pk, raw) for raw in raws]

    # -- decryption -------------------------------------------------------

    def joint_decrypt_vector(
        self, values: list[EncryptedNumber], signed: bool = True
    ) -> list[float]:
        """Vectorised threshold decryption: every share's c^{d_i} vector,
        combined (the bundle must hold all m shares)."""
        if self.threshold is None:
            raise ValueError("engine was built without a threshold bundle")
        raw = self.threshold.joint_decrypt_batch(
            [v.ciphertext for v in values], signed=signed
        )
        return [m * 2.0**v.exponent for m, v in zip(raw, values)]

    # -- homomorphic batch operators --------------------------------------

    def sum_ciphertexts(self, values: list[EncryptedNumber]) -> EncryptedNumber:
        """Homomorphic sum of a vector (Eq. 1 folded over the batch).

        Mirrors the serial left fold exactly — including the exponent
        alignment and its op counts — but multiplies raw ciphertexts
        directly instead of allocating an EncryptedNumber per step.
        """
        if not values:
            raise ValueError("sum of an empty ciphertext vector")
        pk = self.public_key
        n_squared = pk.n_squared
        exponent = min(v.exponent for v in values)
        # Replay the serial fold's Ce accounting: one Ce per addition, plus
        # one Ce whenever the fold would rescale an operand — the incoming
        # value when it sits above the running exponent, the accumulator
        # when the incoming value sits below it.
        running = values[0].exponent
        rescales = 0
        for v in values[1:]:
            if v.exponent != running:
                rescales += 1
                running = min(running, v.exponent)
        opcount.GLOBAL.ce += len(values) - 1 + rescales
        acc = 1
        for v in values:
            raw = v.ciphertext.raw
            if v.exponent != exponent:
                raw = pow(raw, 1 << (v.exponent - exponent), n_squared)
            acc = acc * raw % n_squared
        return EncryptedNumber(self.encoder, Ciphertext(pk, acc), exponent)

    def batch_dot_products(
        self, tasks: list[tuple[list[int], list[EncryptedNumber]]]
    ) -> list[EncryptedNumber]:
        """Many homomorphic dot products (Eq. 3/7/9) in one call.

        Each task is ``(coefficients, encrypted_vector)``; the vector must
        share one exponent (as in :func:`encrypted_dot_product`).  Dot
        products against 0/1 indicator vectors are the single hottest
        operation in training.
        """
        pk = self.public_key
        prepared = []
        for coefficients, values in tasks:
            if len(coefficients) != len(values):
                raise ValueError(
                    f"length mismatch: {len(coefficients)} coefficients vs "
                    f"{len(values)} ciphertexts"
                )
            if not values:
                raise ValueError("dot product of empty vectors")
            exponent = values[0].exponent
            if any(v.exponent != exponent for v in values):
                raise ValueError("encrypted vector has mixed exponents; align first")
            opcount.GLOBAL.ce += len(values)  # parity with dot_product()
            prepared.append(
                (coefficients, [v.ciphertext.raw for v in values], exponent)
            )
        return [
            EncryptedNumber(
                self.encoder,
                Ciphertext(pk, power_product(coefficients, raws, pk)),
                exponent,
            )
            for coefficients, raws, exponent in prepared
        ]

    def scale_vector(
        self,
        values: list[EncryptedNumber],
        scalars: list[int | float | EncodedNumber],
    ) -> list[EncryptedNumber]:
        """Element-wise homomorphic scalar multiplication (Eq. 2 over a
        vector): one Ce per element.

        The output is linkable to ``values`` (see the module docstring):
        the caller re-masks it with :meth:`mask_vector` before any element
        leaves her.
        """
        if len(values) != len(scalars):
            raise ValueError(
                f"length mismatch: {len(values)} ciphertexts vs "
                f"{len(scalars)} scalars"
            )
        pk = self.public_key
        encoded = []
        for v, s in zip(values, scalars):
            if isinstance(s, EncodedNumber):
                encoded.append(s)
            else:
                encoded.append(self.encoder.encode(s))
        opcount.GLOBAL.ce += len(values)
        return [
            EncryptedNumber(
                self.encoder,
                Ciphertext(
                    pk, power_product((e.encoding,), (v.ciphertext.raw,), pk)
                ),
                v.exponent + e.exponent,
            )
            for v, e in zip(values, encoded)
        ]

    def mask_vector(
        self, values: list[EncryptedNumber], bits: Iterable[int]
    ) -> list[EncryptedNumber]:
        """[v] ∘ plaintext 0/1 vector, re-randomised for broadcast (§4.1
        model update): zeroed slots become fresh encryptions of 0, kept
        slots are re-masked from the pool so the output is unlinkable."""
        pk = self.public_key
        bit_list = [int(b) for b in bits]
        if len(bit_list) != len(values):
            raise ValueError("mask length mismatch")
        if any(b not in (0, 1) for b in bit_list):
            raise ValueError("mask vector must be 0/1")
        opcount.GLOBAL.ce += len(values)  # parity: one Ce per __mul__
        masks = self.pool.take_many(len(values))
        out = []
        for v, b, mask in zip(values, bit_list, masks):
            raw = v.ciphertext.raw if b else pk.raw_encrypt(0)
            raw = raw * mask % pk.n_squared
            out.append(
                EncryptedNumber(self.encoder, Ciphertext(pk, raw), v.exponent)
            )
        return out
