"""XOR-shared words: the MPC layer's binary sharing domain.

A :class:`BinaryWord` holds ``width`` secret bits shared mod 2, packed into
one Python int per party (lane i = bit i); the secret word is the XOR of
the parties' words.  It carries every protocol step that works on bits
(edaBits/daBits, Escudero et al., CRYPTO 2020), where a word-wide AND
replaces ``width`` field multiplications: the bit-compare inside
``comparison.mod2m``, and the bit decomposition and most-significant-bit
search of ``FixedPointOps.norm`` / ``log2`` / ``exp``.  Those pack several
values into one word, one *block* of lanes each (value j at lanes
[j·block, (j + 1)·block)); public masks keep shifts from crossing blocks.

XOR, lane shifts, AND with a *public* mask, the parity over lanes,
narrowing, concatenation and reversing the lanes of each block are local
and implemented here.  Anything interactive (AND of two shared words,
opening) lives on :class:`repro.mpc.engine.MPCEngine`, which also accounts
an opening at its real size: ⌈lanes / 8⌉ bytes per message.  Protocols
open a word only XORed with a fresh uniform dealer word of its width (an
AND triple's a or b, a daBit, an edaBit's low bits), so what is opened is
uniform whatever the secret: perfect hiding, no statistical slack to
budget.

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

__all__ = ["BinaryWord", "spread", "concat", "block_mask", "pack"]


def spread(word: int, stride: int) -> int:
    """Bit i of ``word`` moved to bit ``i * stride`` (one bit per MAC lane).

    ``spread(w, κ) * x`` for a κ-bit x is then "x in every set lane", with
    no carries between lanes.
    """
    # stride - 1 zeros between consecutive bits of the binary text.
    return int(("0" * (stride - 1)).join(format(word, "b")), 2)


def pack(values: list[int], bits: int) -> int:
    """``bits``-bit values side by side, the first at the low bits, in one
    pass (no growing ORs); every value must fit its bits."""
    if len(values) == 1:
        return values[0]
    spec = f"0{bits}b"
    text = "".join([format(value, spec) for value in reversed(values)])
    return int(text, 2) if text else 0


def block_mask(width: int, block: int, lanes: int) -> int:
    """The public mask with ``lanes`` (a ``block``-bit pattern) set in every
    block of a ``width``-lane word."""
    return lanes * (((1 << width) - 1) // ((1 << block) - 1))


def _reverse_lanes(value: int, lanes: int, block: int, lane_bits: int) -> int:
    """``value`` read as ``lanes`` lanes of ``lane_bits`` bits, with the
    lanes of every ``block``-lane block in reverse order."""
    text = format(value, f"0{lanes * lane_bits}b")  # top lane first
    units: str | list[str] = text
    if lane_bits > 1:
        units = [text[i : i + lane_bits] for i in range(0, len(text), lane_bits)]
    return int(
        "".join("".join(units[start : start + block][::-1]) for start in range(0, lanes, block)),
        2,
    )


def _block_parities(value: int, lanes: int, block: int, lane_bits: int) -> int:
    """``value`` read as ``lanes`` lanes of ``lane_bits`` bits: lane j of the
    result is the XOR of the lanes of the j-th ``block``-lane block.

    Halving folds on the whole word (the top lanes of every block onto its
    bottom ones), then lane 0 of every block gathered side by side.
    """
    first_lanes = ((1 << lanes * lane_bits) - 1) // ((1 << block * lane_bits) - 1)
    span = block
    while span > 1:
        keep = (span + 1) // 2
        value = (value & ((1 << keep * lane_bits) - 1) * first_lanes) ^ (
            value >> keep * lane_bits & ((1 << (span - keep) * lane_bits) - 1) * first_lanes
        )
        span = keep
    text = format(value, f"0{lanes * lane_bits}b")  # top lane first
    stride = block * lane_bits
    end = len(text)
    return int(
        "".join(
            text[end - j * stride - lane_bits : end - j * stride]
            for j in range(lanes // block - 1, -1, -1)
        ),
        2,
    )


def concat(words: list["BinaryWord"]) -> "BinaryWord":
    """One word holding ``words`` side by side, the first at the low lanes:
    one pass over the parties' words (and lane MACs)."""
    first = words[0]
    for word in words:
        if word.engine is not first.engine:
            raise ValueError("binary words belong to different MPC engines")
    kappa = first.engine.kappa

    def join(parts: tuple[int, ...], scale: int) -> int:
        text = "".join(
            [format(part, f"0{w.width * scale}b") for part, w in zip(parts, words) if w.width][::-1]
        )
        return int(text, 2) if text else 0

    shares = tuple(join(parts, 1) for parts in zip(*(w.shares for w in words)))
    # As under ^: one word without MACs leaves the result without them,
    # which an authenticated opening then refuses.
    macs = None
    if all(w.macs is not None for w in words):
        macs = tuple(join(parts, kappa) for parts in zip(*(w.macs or () for w in words)))
    return BinaryWord(first.engine, sum(w.width for w in words), shares, macs)


class BinaryWord:
    """``width`` XOR-shared bits, one packed word per party.

    Operators (all local):

    * ``x ^ y`` for a BinaryWord or a public int,
    * ``x >> s`` — lane i takes lane i + s; the top s lanes become 0,
    * ``x << s`` — lane i takes lane i − s; the bottom s lanes become 0,
    * ``x & mask`` for a **public** int mask (shared ∧ shared is
      :meth:`MPCEngine.and_words`: one triple, one opening),
    * ``x.parity()`` — the XOR of all lanes, as a 1-lane word;
      ``x.parity(b)`` — the XOR of every b-lane block, one lane per block,
    * ``x.narrow(w)`` — the low w lanes, as a w-lane word,
    * ``x.reverse_blocks(b)`` — the lanes of every b-lane block reversed.
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

    def __lshift__(self, lanes: int) -> "BinaryWord":
        keep = (1 << self.width) - 1
        shares = tuple(s << lanes & keep for s in self.shares)
        macs = None
        if self.macs is not None:
            kappa = self.engine.kappa
            keep_macs = (1 << self.width * kappa) - 1
            macs = tuple(m << lanes * kappa & keep_macs for m in self.macs)
        return BinaryWord(self.engine, self.width, shares, macs)

    def narrow(self, width: int) -> "BinaryWord":
        keep = (1 << width) - 1
        shares = tuple(s & keep for s in self.shares)
        macs = None
        if self.macs is not None:
            keep_macs = (1 << width * self.engine.kappa) - 1
            macs = tuple(m & keep_macs for m in self.macs)
        return BinaryWord(self.engine, width, shares, macs)

    def reverse_blocks(self, block: int) -> "BinaryWord":
        shares = tuple(_reverse_lanes(s, self.width, block, 1) for s in self.shares)
        macs = None
        if self.macs is not None:
            kappa = self.engine.kappa
            macs = tuple(_reverse_lanes(m, self.width, block, kappa) for m in self.macs)
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

    def parity(self, block: int | None = None) -> "BinaryWord":
        if block is not None and block != self.width:
            kappa = self.engine.kappa
            shares = tuple(_block_parities(s, self.width, block, 1) for s in self.shares)
            macs = None
            if self.macs is not None:
                macs = tuple(_block_parities(m, self.width, block, kappa) for m in self.macs)
            return BinaryWord(self.engine, self.width // block, shares, macs)
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
