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

Binary (XOR-shared packed words, :mod:`repro.mpc.binary`):

* the bits of a PRandM tuple's r1, as one m-lane word — for Mod2m's compare
* AND triples (a, b, a∧b) of a given lane width       — for `and_words`
* daBits: random bits shared both mod 2 and in Z_q    — to lift result bits
* edaBits: a random r shared in Z_q, and its low bits
  XOR-shared, many packed into one word block by block — for the bit
  decomposition (r masks the opened value) and the binary-to-arithmetic
  conversion (r's bits mask the opened word) of Norm

Every item is drawn fresh from the dealer's stream and handed out once,
and each exists to mask one kind of opening: a Beaver triple's a, b hide
the d, e a multiplication opens; a PRandM tuple's r2·2^m + r1 and an
edaBit's r hide an arithmetic value opened with κ bits of statistical
slack (Mod2m / TruncPr / Norm's decomposition); an AND triple's a, b hide
the two words an ``and_words`` opens; a daBit's bit hides a result bit
before it is lifted to Z_q, and a slack-free edaBit's low bits hide the
word added to it before the sum is opened (Norm's v back in Z_q) — both
uniform, so those openings hide perfectly.
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
    edabits: int = 0
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

    def dabits(self, count: int) -> tuple["BinaryWord", list["SharedValue"]]:
        """``count`` uniform bits, XOR-shared as one word (bit i in lane i)
        and each shared in Z_q."""
        bits = self.rng.getrandbits(count)
        self.usage.dabits += count
        return self._deal_word(bits, count), [
            self._deal((bits >> i) & 1) for i in range(count)
        ]

    def random_bit(self) -> "SharedValue":
        self.usage.bits += 1
        return self._deal(self.rng.randrange(2))

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

    def edabits(
        self, count: int, lanes: int, mask_bits: int = 0
    ) -> tuple[list["SharedValue"], "BinaryWord"]:
        """``count`` uniform (lanes + mask_bits)-bit values r_j, each shared
        in Z_q, with their low ``lanes`` bits XOR-shared as one word: r_j's
        bit i in lane j·lanes + i.  The ``mask_bits`` above the word are
        the statistical slack of an arithmetic opening masked by r_j."""
        values = [self.rng.getrandbits(lanes + mask_bits) for _ in range(count)]
        self.usage.edabits += count
        low = (1 << lanes) - 1
        packed = 0
        for j, r in enumerate(values):
            packed |= (r & low) << (j * lanes)
        return [self._deal(r) for r in values], self._deal_word(packed, count * lanes)
