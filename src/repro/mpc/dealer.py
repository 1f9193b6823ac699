"""The offline phase of SPDZ: a trusted dealer for correlated randomness.

The paper (§2.2): "The secret sharing based MPC has two phases: an offline
phase that is independent of the function and generates pre-computed
Beaver's triplets, and an online phase that computes the designated
function using these triplets."  The paper's evaluation reports the online
phase only.  In place of SPDZ's offline protocol (somewhat-homomorphic
encryption or OT between the parties) this module substitutes one
in-process dealer who knows every secret she hands out, both MAC keys
included: she samples the correlated values in the clear from a seeded
``random.Random``, shares them (authenticated when the engine is), and
counts her products so benchmarks can report offline material consumed.
The online protocols on top are the real ones.

Supplied material, arithmetic (additive shares over Z_q):

* Beaver multiplication triples (a, b, ab)           — for `mul`
* random shared bits                                  — for DP sampling
* PRandM tuples (r2, r1)                              — for Mod2m / TruncPr
* bitwise-shared random values                        — for BitDec
* random shared field elements                        — for masking

Binary (XOR-shared packed words, :mod:`repro.mpc.binary`):

* the bits of a PRandM tuple's r1, as one m-lane word — for Mod2m's compare
* AND triples (a, b, a∧b) of a given lane width       — for `and_words`
* daBits: one random bit shared both mod 2 and in Z_q — to lift a result bit

Every item is drawn fresh from the dealer's stream and handed out once.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpc.binary import BinaryWord
    from repro.mpc.engine import MPCEngine
    from repro.mpc.sharing import SharedValue

__all__ = ["TrustedDealer", "DealerUsage"]


@dataclass
class DealerUsage:
    """Counters of offline material consumed (reported by benchmarks)."""

    triples: int = 0  # field Beaver triples only: one per Cs
    bits: int = 0
    prandm: int = 0
    bitwise: int = 0
    randoms: int = 0
    and_triples: int = 0
    dabits: int = 0

    def total(self) -> int:
        return sum(self.snapshot().values())

    def snapshot(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class PRandMTuple:
    """⟨r2⟩, ⟨r1⟩ and the bits of r1 XOR-shared (Catrina–de Hoogh PRandM)."""

    r2: "SharedValue"
    r1: "SharedValue"
    r1_bits: "BinaryWord | None"  # lane i = bit i of r1; None if not asked for


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

    def _deal_word(self, word: int, width: int) -> "BinaryWord":
        return self.engine._make_binary(word, width, rng=self.rng)

    # -- products ------------------------------------------------------------

    def triple(self) -> tuple["SharedValue", "SharedValue", "SharedValue"]:
        a = self._rand_field()
        b = self._rand_field()
        self.usage.triples += 1
        q = self.engine.field.q
        return self._deal(a), self._deal(b), self._deal(a * b % q)

    def and_triple(
        self, width: int
    ) -> tuple["BinaryWord", "BinaryWord", "BinaryWord"]:
        """``width`` binary Beaver triples at once: words a, b and a ∧ b."""
        a = self.rng.getrandbits(width)
        b = self.rng.getrandbits(width)
        self.usage.and_triples += 1
        return (
            self._deal_word(a, width),
            self._deal_word(b, width),
            self._deal_word(a & b, width),
        )

    def dabit(self) -> tuple["BinaryWord", "SharedValue"]:
        """One uniform bit, XOR-shared (a 1-lane word) and shared in Z_q."""
        bit = self.rng.getrandbits(1)
        self.usage.dabits += 1
        return self._deal_word(bit, 1), self._deal(bit)

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

        r1 is a uniform m-bit value, whose bits are also dealt as one
        XOR-shared word when ``with_bits`` (Mod2m compares against them;
        TruncPr never reads them); r2 is a uniform (k + κ - m)-bit value
        providing the statistical mask.
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
            r1_bits=self._deal_word(r1, m) if with_bits else None,
        )

    def bitwise_random(self, n_bits: int, low_bits: int) -> BitwiseShared:
        """A uniform n_bits-bit value shared arithmetically, and bitwise in
        its low ``low_bits`` bits (BitDec reads only the k below its κ mask)."""
        r = self.rng.getrandbits(n_bits)
        self.usage.bitwise += 1
        return BitwiseShared(r=self._deal(r), bits=self._deal_bits(r, low_bits))
