"""The offline phase of SPDZ: a trusted dealer for correlated randomness.

The paper (§2.2): "The secret sharing based MPC has two phases: an offline
phase that is independent of the function and generates pre-computed
Beaver's triplets, and an online phase that computes the designated
function using these triplets."  The paper's evaluation reports the online
phase only; we likewise generate the correlated randomness with an
in-process dealer (DESIGN.md §4.5) and count its products so benchmarks can
report offline material consumed.

Supplied material:

* Beaver multiplication triples (a, b, ab)           — for `mul`
* random shared bits                                  — for comparisons
* PRandM tuples (r2, r1, bits of r1)                  — for Mod2m / TruncPr
* bitwise-shared random values                        — for BitDec
* random shared field elements                        — for masking
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpc.engine import MPCEngine
    from repro.mpc.sharing import SharedValue

__all__ = ["TrustedDealer", "DealerUsage"]


@dataclass
class DealerUsage:
    """Counters of offline material consumed (reported by benchmarks)."""

    triples: int = 0
    bits: int = 0
    prandm: int = 0
    bitwise: int = 0
    randoms: int = 0

    def total(self) -> int:
        return self.triples + self.bits + self.prandm + self.bitwise + self.randoms

    def snapshot(self) -> dict[str, int]:
        return {
            "triples": self.triples,
            "bits": self.bits,
            "prandm": self.prandm,
            "bitwise": self.bitwise,
            "randoms": self.randoms,
        }


@dataclass
class PRandMTuple:
    """⟨r2⟩, ⟨r1⟩ and the bitwise sharing of r1 (Catrina–de Hoogh PRandM)."""

    r2: "SharedValue"
    r1: "SharedValue"
    r1_bits: list["SharedValue"]  # little-endian; empty if not asked for


@dataclass
class BitwiseShared:
    """⟨r⟩ together with the bitwise sharing of its low bits."""

    r: "SharedValue"
    bits: list["SharedValue"]  # little-endian, as many as were asked for


class TrustedDealer:
    """Generates authenticated correlated randomness for one engine.

    A dedicated :class:`random.Random` stream keeps dealer output
    reproducible under a seed without perturbing callers' randomness.
    """

    def __init__(self, engine: "MPCEngine", seed: int | None = None):
        self.engine = engine
        self.rng = random.Random(seed)
        self.usage = DealerUsage()

    # -- helpers -----------------------------------------------------------

    def _rand_field(self) -> int:
        # rng.randrange(q)'s stream without its Python-level wrappers.
        q, bits = self.engine.field.q, self.engine._q_bits
        getrandbits = self.rng.getrandbits
        r = getrandbits(bits)
        while r >= q:
            r = getrandbits(bits)
        return r

    def _deal(self, value: int) -> "SharedValue":
        return self.engine._make_shared(value, rng=self.rng)

    def _deal_bits(self, value: int, n_bits: int) -> list["SharedValue"]:
        """Sharings of the low ``n_bits`` bits of ``value``, little-endian."""
        return [self._deal((value >> i) & 1) for i in range(n_bits)]

    # -- products ------------------------------------------------------------

    def triple(self) -> tuple["SharedValue", "SharedValue", "SharedValue"]:
        a = self._rand_field()
        b = self._rand_field()
        self.usage.triples += 1
        q = self.engine.field.q
        return self._deal(a), self._deal(b), self._deal(a * b % q)

    def random_bit(self) -> "SharedValue":
        self.usage.bits += 1
        return self._deal(self.rng.randrange(2))

    def random_value(self) -> tuple["SharedValue", int]:
        """A random shared value; the plaintext is returned ONLY for tests."""
        self.usage.randoms += 1
        r = self._rand_field()
        return self._deal(r), r

    def prandm(self, k: int, m: int, with_bits: bool = True) -> PRandMTuple:
        """Randomness for Mod2m/TruncPr on k-bit values truncating m bits.

        r1 is a uniform m-bit value, shared bitwise too when ``with_bits``
        (Mod2m compares against its bits; TruncPr never reads them); r2 is
        a uniform (k + κ - m)-bit value providing the statistical mask.
        """
        kappa = self.engine.kappa
        if k + kappa + 1 >= self.engine.field.q.bit_length():
            raise ValueError(
                f"k={k} too large for field (needs k + kappa + 1 < "
                f"{self.engine.field.q.bit_length()})"
            )
        r1 = self.rng.getrandbits(m)
        r2 = self.rng.getrandbits(k + kappa - m) if k + kappa > m else 0
        self.usage.prandm += 1
        return PRandMTuple(
            r2=self._deal(r2),
            r1=self._deal(r1),
            r1_bits=self._deal_bits(r1, m if with_bits else 0),
        )

    def bitwise_random(self, n_bits: int, low_bits: int) -> BitwiseShared:
        """A uniform n_bits-bit value shared arithmetically, and bitwise in
        its low ``low_bits`` bits (BitDec reads only the k below its κ mask)."""
        r = self.rng.getrandbits(n_bits)
        self.usage.bitwise += 1
        return BitwiseShared(r=self._deal(r), bits=self._deal_bits(r, low_bits))
