"""Batched, CRT-accelerated Paillier engine for the protocol hot paths.

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
  draws masks in bulk in the calling process.  They are not fanned out
  over the worker pool: pickling a task and its 2|n|-bit result across a
  process boundary costs about what the mask does, and each worker would
  first have to build its own table from n (the table is never pickled).
  Every mask is popped exactly once — reuse would link two ciphertexts.

* **CRT decryption** — :class:`~repro.crypto.paillier.PaillierPrivateKey`
  retains p and q and decrypts mod p^2 / q^2 with Garner recombination
  (~3-4x over the textbook path); the threshold bundle's
  ``joint_decrypt_batch`` routes batches through it (bit-identical to
  combining partial decryptions, see :mod:`repro.crypto.threshold`).

* **Vectorised APIs** — ``encrypt_vector``, ``decrypt_vector``,
  ``sum_ciphertexts``, ``batch_dot_products``, ``scale_vector`` and
  ``mask_vector`` mirror the serial call sites one-to-one, keeping the
  Ce/Cd op-count tallies (paper §6, Table 2) *identical* to the serial
  loops they replace, so the cost-model benchmarks stay valid in either
  mode.

* **Optional multiprocessing fan-out** — ``workers > 1`` spreads the
  modular exponentiations of a batch over a process pool (CPython big-int
  pows release no GIL, so processes are the only way to real parallelism).
  The default ``workers=0`` runs serially and deterministically, which is
  what the tests use.

Everything here is driven by :class:`~repro.core.config.PivotConfig`
(``batch_crypto``, ``crypto_workers``, ``crypto_pool_size``) through
:class:`~repro.core.context.PivotContext`.
"""

from __future__ import annotations

import weakref
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.analysis import opcount
from repro.crypto.encoding import (
    EncodedNumber,
    EncryptedNumber,
    PaillierEncoder,
)
from repro.crypto.paillier import Ciphertext, PaillierPrivateKey, PaillierPublicKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.threshold import (
        PartialDecryption,
        ThresholdKeyShare,
        ThresholdPaillier,
    )

__all__ = ["ObfuscatorPool", "BatchCryptoEngine"]

#: Below this batch size the process-pool dispatch overhead outweighs the
#: parallel speedup; such batches always run serially.
MIN_PARALLEL_BATCH = 8


def _shutdown_executor(executor: ProcessPoolExecutor) -> None:
    """weakref.finalize callback: must be module-level (no engine ref)."""
    executor.shutdown(wait=False, cancel_futures=True)


class ObfuscatorPool:
    """A FIFO pool of precomputed obfuscators (encryptions of zero).

    ``take`` pops a mask (refilling in bulk when the pool runs dry), so no
    mask is ever handed out twice.  ``size=0`` disables pooling: every
    ``take`` computes a fresh mask, which is exactly the seed's serial
    behaviour.
    """

    def __init__(self, public_key: PaillierPublicKey, size: int = 256):
        if size < 0:
            raise ValueError(f"pool size must be >= 0, got {size}")
        self.public_key = public_key
        self.size = size
        self._masks: deque[int] = deque()
        self.generated = 0  # total masks ever produced (test/bench hook)

    def __len__(self) -> int:
        return len(self._masks)

    def precompute(self, count: int | None = None) -> None:
        """Fill the pool with ``count`` fresh masks (default: up to size)."""
        if count is None:
            count = self.size - len(self._masks)
        if count <= 0:
            return
        fresh_mask = self.public_key.random_obfuscator
        self._masks.extend(fresh_mask() for _ in range(count))
        self.generated += count

    def take(self) -> int:
        """Pop one never-used mask, refilling the pool in bulk if dry."""
        if not self._masks:
            if self.size == 0:
                self.generated += 1
                return self.public_key.random_obfuscator()
            self.precompute(self.size)
        return self._masks.popleft()

    def take_many(self, count: int) -> list[int]:
        if count > len(self._masks):
            self.precompute(max(count - len(self._masks), self.size))
        return [self._masks.popleft() for _ in range(count)]


class BatchCryptoEngine:
    """Vectorised Paillier operations with op-count parity to the serial path.

    One engine per :class:`~repro.core.context.PivotContext`; standalone use
    (benchmarks, tests) only needs a public key::

        engine = BatchCryptoEngine(public_key, workers=4)
        cts = engine.encrypt_vector([1.5, -2.0, 3.25])
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        frac_bits: int = 16,
        workers: int = 0,
        pool_size: int = 256,
        encoder: PaillierEncoder | None = None,
        threshold: "ThresholdPaillier | None" = None,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.public_key = public_key
        self.encoder = encoder or PaillierEncoder(public_key, frac_bits=frac_bits)
        self.workers = workers
        self.threshold = threshold
        self._executor: ProcessPoolExecutor | None = None
        self._finalizer: weakref.finalize | None = None
        self.pool = ObfuscatorPool(public_key, pool_size)

    # -- parallel plumbing ------------------------------------------------

    def _map(self, fn: Callable[[Any], Any], items: list[Any]) -> list[Any]:
        """Map ``fn`` over ``items``, fanning out to worker processes when
        configured and the batch is large enough to pay for dispatch."""
        if self.workers <= 1 or len(items) < MIN_PARALLEL_BATCH:
            return [fn(item) for item in items]
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
            # Reap the workers as soon as the engine is garbage collected,
            # not at interpreter exit — benchmarks build many contexts.
            self._finalizer = weakref.finalize(
                self, _shutdown_executor, self._executor
            )
        chunksize = max(1, len(items) // (4 * self.workers))
        return list(self._executor.map(fn, items, chunksize=chunksize))

    def close(self) -> None:
        """Shut down the worker pool (idempotent; abandoned engines are
        also reaped by a GC finalizer)."""
        if self._finalizer is not None:
            self._finalizer()
            self._finalizer = None
        self._executor = None

    def __enter__(self) -> "BatchCryptoEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

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

    def decrypt_vector(
        self, values: list[EncryptedNumber], private_key: PaillierPrivateKey
    ) -> list[float]:
        """Vectorised private-key decryption (CRT-accelerated, fanned out
        across workers for large batches)."""
        pk = self.public_key
        if private_key.public_key != pk:
            raise ValueError("private key for a different public key")
        plains = self._map(private_key.raw_decrypt, [v.ciphertext.raw for v in values])
        return [
            pk.to_signed(m) * 2.0**v.exponent for m, v in zip(plains, values)
        ]

    def threshold_decrypt_batch(
        self, ciphertexts: list[Ciphertext], signed: bool = True
    ) -> list[int]:
        """Batched threshold decryption with worker fan-out.

        In ``decrypt_mode="simulate"`` this takes the same fast CRT path as
        :meth:`~repro.crypto.threshold.ThresholdPaillier.joint_decrypt_batch`
        (identical results and Cd accounting) but spreads the per-ciphertext
        CRT exponentiations over the engine's worker pool — the O(n)·Cd
        hot loop of the enhanced protocol.  In ``"combine"`` mode (or when
        the dealer key is gone) it delegates to the bundle's real
        share-combination path, fanning the per-share exponentiations out
        over the same pool.
        """
        tp = self.threshold
        if tp is None:
            raise ValueError("engine was built without a threshold bundle")
        private = tp._private_key if tp.decrypt_mode == "simulate" else None
        if private is None:
            return tp.joint_decrypt_batch(
                ciphertexts, signed=signed, parallel_map=self._map
            )
        pk = tp.public_key
        for ct in ciphertexts:
            if ct.public_key != pk:
                raise ValueError("ciphertext under a different public key")
        opcount.GLOBAL.cd += len(ciphertexts)
        plains = self._map(private.raw_decrypt, [ct.raw for ct in ciphertexts])
        return [pk.to_signed(m) if signed else m for m in plains]

    def partial_decrypt_batch(
        self, key_share: "ThresholdKeyShare", ciphertexts: list[Ciphertext]
    ) -> "list[PartialDecryption]":
        """One party's decryption-share vector, exponentiations fanned out.

        The serial hot loop of
        :meth:`~repro.crypto.threshold.ThresholdKeyShare.partial_decrypt_batch`
        is a full-size ``pow`` per ciphertext; routing it through the
        engine's process pool parallelises the per-party half of a real
        (``decrypt_mode="combine"``) threshold decryption.  Returns the
        list of :class:`~repro.crypto.threshold.PartialDecryption` values.
        """
        return key_share.partial_decrypt_batch(ciphertexts, parallel_map=self._map)

    def joint_decrypt_vector(
        self, values: list[EncryptedNumber], signed: bool = True
    ) -> list[float]:
        """Vectorised threshold decryption via the engine's batch path."""
        raw = self.threshold_decrypt_batch(
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
        share one exponent (as in :func:`encrypted_dot_product`).  Tasks
        fan out across workers — dot products against 0/1 indicator
        vectors are the single hottest operation in training.
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
                (
                    [int(x) % pk.n for x in coefficients],
                    [v.ciphertext.raw for v in values],
                    exponent,
                )
            )
        raws = self._map(
            _dot_product_raw,
            [(coeffs, cts, pk.n, pk.n_squared) for coeffs, cts, _ in prepared],
        )
        return [
            EncryptedNumber(self.encoder, Ciphertext(pk, raw), exponent)
            for raw, (_, _, exponent) in zip(raws, prepared)
        ]

    def scale_vector(
        self,
        values: list[EncryptedNumber],
        scalars: list[int | float | EncodedNumber],
    ) -> list[EncryptedNumber]:
        """Element-wise homomorphic scalar multiplication (Eq. 2 over a
        vector): one Ce per element, pows fanned out across workers."""
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
        tasks = [
            (v.ciphertext.raw, e.encoding % pk.n, pk.n, pk.n_squared)
            for v, e in zip(values, encoded)
        ]
        raws = self._map(_scale_raw, tasks)
        return [
            EncryptedNumber(self.encoder, Ciphertext(pk, raw), v.exponent + e.exponent)
            for raw, v, e in zip(raws, values, encoded)
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


def _dot_product_raw(args: tuple[list[int], list[int], int, int]) -> int:
    """Raw-integer dot product kernel (pickle-friendly for workers).

    Mirrors :func:`repro.crypto.paillier.dot_product`: zero coefficients
    are skipped, unit coefficients use a single mulmod.
    """
    coefficients, raws, n, n_squared = args
    acc = 1
    for x, raw in zip(coefficients, raws):
        if x == 0:
            continue
        if x == 1:
            acc = acc * raw % n_squared
        else:
            acc = acc * pow(raw, x, n_squared) % n_squared
    return acc


def _scale_raw(args: tuple[int, int, int, int]) -> int:
    """Raw scalar-multiplication kernel with the serial path's shortcuts."""
    raw, exponent, n, n_squared = args
    if exponent == 0:
        return 1  # raw_encrypt(0) = (1 + n*0) mod n^2
    if exponent == 1:
        return raw
    return pow(raw, exponent, n_squared)
