"""XOR-shared words: the MPC layer's binary sharing domain.

A :class:`BinaryWord` holds ``width`` secret bits shared mod 2, packed into
one Python int per party (lane i = bit i); the secret word is the XOR of
the parties' words.  It exists for the one protocol step that only ever
needs bits — the bit-compare inside ``comparison.mod2m`` — where a word-wide
AND replaces ``width`` field multiplications (edaBits/daBits, Escudero et
al., CRYPTO 2020).

XOR, lane shifts, AND with a *public* mask and the parity over lanes are
local and implemented here.  Anything interactive (AND of two shared words,
opening) lives on :class:`repro.mpc.engine.MPCEngine`, which also accounts
an opening at its real size: ⌈lanes / 8⌉ bytes per message.  Protocols
open a word only XORed with a fresh uniform dealer word of its width (an
AND triple's a or b, a daBit), so what is opened is uniform whatever the
secret: perfect hiding, no statistical slack to budget.

In an authenticated engine every lane carries a κ-bit MAC under the
engine's XOR-shared GF(2) key Δ₂ (mac = Δ₂ if the bit is set, else 0; the
MACs of one party are packed κ bits per lane into one int).  The MAC is
linear under everything above, and every opening checks it, exactly as
``SharedValue`` MACs are checked in Z_q.  Semi-honest engines carry
``macs=None`` and pay nothing.
"""

from __future__ import annotations

from operator import xor
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.mpc.engine import MPCEngine

__all__ = ["BinaryWord", "spread"]


def spread(word: int, stride: int) -> int:
    """Bit i of ``word`` moved to bit ``i * stride`` (one bit per MAC lane).

    ``spread(w, κ) * x`` for a κ-bit x is then "x in every set lane", with
    no carries between lanes.
    """
    out = 0
    position = 0
    while word:
        if word & 1:
            out |= 1 << position
        word >>= 1
        position += stride
    return out


class BinaryWord:
    """``width`` XOR-shared bits, one packed word per party.

    Operators (all local):

    * ``x ^ y`` for a BinaryWord or a public int,
    * ``x >> s`` — lane i takes lane i + s; the top s lanes become 0,
    * ``x & mask`` for a **public** int mask (shared ∧ shared is
      :meth:`MPCEngine.and_words`: one triple, one opening),
    * ``x.parity()`` — the XOR of all lanes, as a 1-lane word.
    """

    __slots__ = ("engine", "width", "shares", "macs")

    def __init__(
        self,
        engine: "MPCEngine",
        width: int,
        shares: tuple[int, ...],
        macs: tuple[int, ...] | None = None,
    ):
        self.engine = engine
        self.width = width
        self.shares = shares
        self.macs = macs

    def __xor__(self, other: "BinaryWord | int") -> "BinaryWord":
        if isinstance(other, BinaryWord):
            if self.engine is not other.engine:
                raise ValueError("binary words belong to different MPC engines")
            if self.width != other.width:
                raise ValueError(
                    f"binary words of different widths: {self.width} and {other.width}"
                )
            shares = tuple(map(xor, self.shares, other.shares))
            macs = None
            if self.macs is not None and other.macs is not None:
                macs = tuple(map(xor, self.macs, other.macs))
            return BinaryWord(self.engine, self.width, shares, macs)
        if isinstance(other, int):
            # Public constant: party 0 flips her share, everyone her MACs.
            if other >> self.width:
                raise ValueError(f"public word wider than {self.width} lanes")
            shares = (self.shares[0] ^ other,) + self.shares[1:]
            macs = None
            if self.macs is not None:
                lanes = spread(other, self.engine.kappa)
                macs = tuple(
                    m ^ lanes * key
                    for m, key in zip(self.macs, self.engine.binary_key_shares)
                )
            return BinaryWord(self.engine, self.width, shares, macs)
        return NotImplemented

    def __rshift__(self, lanes: int) -> "BinaryWord":
        shares = tuple(s >> lanes for s in self.shares)
        macs = None
        if self.macs is not None:
            shift = lanes * self.engine.kappa
            macs = tuple(m >> shift for m in self.macs)
        return BinaryWord(self.engine, self.width, shares, macs)

    def __and__(self, mask: int) -> "BinaryWord":
        if not isinstance(mask, int):
            return NotImplemented
        if mask >> self.width:
            raise ValueError(f"public mask wider than {self.width} lanes")
        shares = tuple(s & mask for s in self.shares)
        macs = None
        if self.macs is not None:
            kappa = self.engine.kappa
            keep = spread(mask, kappa) * ((1 << kappa) - 1)
            macs = tuple(m & keep for m in self.macs)
        return BinaryWord(self.engine, self.width, shares, macs)

    def parity(self) -> "BinaryWord":
        shares = tuple(s.bit_count() & 1 for s in self.shares)
        macs = None
        if self.macs is not None:
            kappa = self.engine.kappa
            lane = (1 << kappa) - 1
            folded = []
            for m in self.macs:
                acc = 0
                while m:
                    acc ^= m & lane
                    m >>= kappa
                folded.append(acc)
            macs = tuple(folded)
        return BinaryWord(self.engine, 1, shares, macs)

    def __repr__(self) -> str:
        kind = "auth" if self.macs is not None else "semi"
        return f"BinaryWord({kind}, width={self.width}, m={len(self.shares)})"
