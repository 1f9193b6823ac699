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

Every kind of material is dealt as a batch (``triples(count)``,
``prandms(count, k, m)``, ``random_bits(count)``, ``dabits(count)``,
``edabits(count, ...)``; ``and_triple(width)`` is already one word of
``width`` triples) and handed over as *rows*: row i is party i's share of
every item, and in an authenticated engine row n + i her MAC shares
(see :mod:`repro.mpc.engine`).  A batch draws exactly what the items
would draw one at a time, in the same order — per item its secrets, then
for each secret its n − 1 random shares followed by its n − 1 random MAC
shares — so a seed deals the same share to every party however the calls
are batched.  Binary material of many items (the r1 bits of a PRandM
batch) comes as one packed word, item j in block j.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from repro.mpc.binary import pack

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpc.binary import BinaryWord
    from repro.mpc.engine import MPCEngine, Rows

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


class TrustedDealer:
    """Generates authenticated correlated randomness for one engine.

    A dedicated :class:`random.Random` stream keeps dealer output
    reproducible under a seed without perturbing callers' randomness.
    """

    def __init__(self, engine: "MPCEngine", seed: int | None = None):
        self.engine = engine
        self.rng = random.Random(seed)
        self.usage = DealerUsage()

    # -- products ------------------------------------------------------------

    def triples(self, count: int) -> tuple["Rows", "Rows", "Rows"]:
        """``count`` Beaver triples (a, b, ab): the rows of every a, b, ab."""
        engine = self.engine
        q, share, d = engine.field.q, engine._share, engine.share_draws
        stride = 2 + 3 * d  # a, b, then the sharings of a, b and ab
        draws = engine._field_draws(self.rng, count * stride)
        columns = [draws[t::stride] for t in range(stride)]
        a, b = columns[0], columns[1]
        self.usage.triples += count
        return (
            share(a, columns[2 : 2 + d]),
            share(b, columns[2 + d : 2 + 2 * d]),
            share([x * y % q for x, y in zip(a, b)], columns[2 + 2 * d :]),
        )

    def and_triple(
        self, width: int
    ) -> tuple["BinaryWord", "BinaryWord", "BinaryWord"]:
        """``width`` binary Beaver triples at once: words a, b and a ∧ b."""
        engine, getrandbits = self.engine, self.rng.getrandbits
        split = engine._binary_widths(width)
        draws = [getrandbits(w) for w in (width, width) + split * 3]
        a, b = draws[0], draws[1]
        self.usage.and_triples += 1
        step, word = len(split), engine._xor_word
        return (
            word(a, width, draws[2 : 2 + step]),
            word(b, width, draws[2 + step : 2 + 2 * step]),
            word(a & b, width, draws[2 + 2 * step :]),
        )

    def dabits(self, count: int) -> tuple["BinaryWord", "Rows"]:
        """``count`` uniform bits, XOR-shared as one word (bit i in lane i)
        and each shared in Z_q (column i)."""
        bits = self.rng.getrandbits(count)
        self.usage.dabits += count
        word = self.engine._make_binary(bits, count, rng=self.rng)
        return word, self.engine._share_values([bits >> i & 1 for i in range(count)], self.rng)

    def random_bits(self, count: int) -> "Rows":
        """``count`` uniform bits, each shared in Z_q (column j)."""
        engine, rng = self.engine, self.rng
        sharings = [engine._share_values([rng.randrange(2)], rng) for _ in range(count)]
        self.usage.bits += count
        return [[rows[i][0] for rows in sharings] for i in range(engine.row_count)]

    def prandms(
        self, count: int, k: int, m: int, with_bits: bool = True
    ) -> tuple["Rows", "Rows", "BinaryWord | None"]:
        """``count`` tuples of randomness for Mod2m/TruncPr on k-bit values
        truncating m bits: the rows of every r2 and every r1, and (if
        ``with_bits``) r1's bits, value j in lanes [j·m, (j + 1)·m) of one
        XOR-shared word.

        r1 is a uniform m-bit value (Mod2m compares against its bits;
        TruncPr never reads them); r2 is a uniform (k + κ - m)-bit value
        providing the statistical mask.  Per tuple the stream yields r1,
        r2, r2's sharing, r1's sharing, then r1's XOR sharing.
        """
        engine, rng = self.engine, self.rng
        if k + engine.kappa + 1 >= engine.field.q.bit_length():
            raise ValueError(
                f"k={k} too large for field (needs k + kappa + 1 < "
                f"{engine.field.q.bit_length()})"
            )
        getrandbits, field_draws = rng.getrandbits, engine._field_draws
        high, d = k + engine.kappa - m, engine.share_draws
        split = engine._binary_widths(m) if with_bits else ()
        r1s: list[int] = []
        r2s: list[int] = []
        fields: list[int] = []
        binary: list[int] = []
        for _ in range(count):
            r1s.append(getrandbits(m))
            r2s.append(getrandbits(high) if high > 0 else 0)
            fields += field_draws(rng, 2 * d)
            binary += [getrandbits(w) for w in split]
        self.usage.prandm += count
        columns = [fields[t :: 2 * d] for t in range(2 * d)]
        word = None
        if with_bits:
            step = len(split)
            word = engine._xor_word(
                pack(r1s, m),
                count * m,
                [pack(binary[t::step], w) for t, w in enumerate(split)],
            )
        return engine._share(r2s, columns[:d]), engine._share(r1s, columns[d:]), word

    def edabits(
        self, count: int, lanes: int, mask_bits: int = 0
    ) -> tuple["Rows", "BinaryWord"]:
        """``count`` uniform (lanes + mask_bits)-bit values r_j, each shared
        in Z_q (column j), with their low ``lanes`` bits XOR-shared as one
        word: r_j's bit i in lane j·lanes + i.  The ``mask_bits`` above the
        word are the statistical slack of an arithmetic opening masked by
        r_j."""
        values = [self.rng.getrandbits(lanes + mask_bits) for _ in range(count)]
        self.usage.edabits += count
        low = (1 << lanes) - 1
        rows = self.engine._share_values(values, self.rng)
        packed = pack([r & low for r in values], lanes)
        return rows, self.engine._make_binary(packed, count * lanes, rng=self.rng)
