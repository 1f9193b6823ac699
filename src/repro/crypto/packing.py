"""Slot packing: several bounded plaintexts in one Paillier ciphertext.

A threshold decryption costs every party one full-size exponentiation
``c^{d_i} mod n²`` per *ciphertext*, whatever the plaintext inside it.
The values the basic protocol decrypts are small — an 80-bit masked
statistic, a prediction as wide as a leaf label — inside a plaintext
space of |n| bits, so most of every decrypted ciphertext is zeros.  Packing puts several values
side by side in one plaintext,

    P = Σ_j (x_j + 2^{β_j}) · 2^{shift_j},

one *slot* of ``width_j`` bits per value, so one decryption recovers all
of them.

* The layout — which slot sits at which ``(shift, width)`` of which
  ciphertext — is public and deterministic: :func:`slot_layout` computes
  it from the slot widths and |n| alone (greedy, in value order), so every
  party derives the same layout without it ever travelling.
* Ciphertexts are packed homomorphically by Horner's rule from the top
  slot down — ``acc ← acc · 2^{width_j} ⊕ [x_j]`` — which costs one
  modular squaring per plaintext bit and no general exponentiation
  (:meth:`SlotLayout.pack_ciphertexts`); plaintexts (a party's own masks)
  are packed with shifts (:meth:`SlotLayout.pack_plaintexts`) and
  encrypted once per packed ciphertext.
* A batch whose values have several holders is packed by each holder
  over her own consecutive segment: :func:`uniform_layout` gives a
  segment's slots (one width throughout) and :meth:`SlotLayout.horner`
  packs them into *partial* groups.  The holders' partials of each group
  multiplied together, plus :meth:`SlotLayout.offsets`, are in plaintext
  exactly :meth:`SlotLayout.pack_ciphertexts` of the concatenated values.
* A signed value cannot live in a slot in Z_n's upper-half convention, so
  the packer adds the public offset ``2^{β_j}`` to slot j, where
  ``|x_j| < 2^{β_j}`` is the magnitude bound the caller *declares*; the
  packed plaintext is then decrypted **unsigned** and
  :meth:`SlotLayout.unpack` shifts, masks and subtracts the offset.
* Nothing may carry out of a slot: the caller sizes ``width_j`` so that
  everything ever added into slot j (the value, its offset, every party's
  mask) stays below ``2^{width_j}``.  Bits above the top slot are the one
  overflow that is visible after decryption, and ``unpack`` raises on it.

A value whose bound nobody declared does not pack: ``packed=False`` (or
:func:`whole_layout`) gives every value a ciphertext of its own — one slot
as wide as the plaintext space, signed the usual way, exactly the
one-value-per-ciphertext behaviour — through the same three methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, TypeVar

from repro.crypto.paillier import Ciphertext, PaillierPublicKey

__all__ = [
    "PackingError",
    "Slot",
    "SlotLayout",
    "slot_layout",
    "uniform_layout",
    "whole_layout",
]


T = TypeVar("T")


class PackingError(ValueError):
    """A slot width, a value or a decrypted plaintext breaks the layout."""


@dataclass(frozen=True)
class Slot:
    """Where one value lives: bits [shift, shift + width) of ciphertext
    number ``group``."""

    group: int
    shift: int
    width: int


@dataclass(frozen=True)
class SlotLayout:
    """One slot per value, in value order, over ``n_groups`` ciphertexts."""

    slots: tuple[Slot, ...]
    n_groups: int
    #: False: every value has a whole ciphertext to itself (no offset,
    #: signed through Z_n's upper half) — the undeclared-bound case.
    packed: bool

    def _by_group(self, items: Sequence[T]) -> list[list[tuple[Slot, T]]]:
        if len(items) != len(self.slots):
            raise PackingError(
                f"layout has {len(self.slots)} slots, got {len(items)} values"
            )
        groups: list[list[tuple[Slot, T]]] = [[] for _ in range(self.n_groups)]
        for slot, item in zip(self.slots, items):
            groups[slot.group].append((slot, item))
        return groups

    def pack_plaintexts(self, values: Sequence[int]) -> list[int]:
        """Σ_j v_j · 2^{shift_j} per ciphertext, for non-negative values
        that fit their slots (a party's masks)."""
        packed = []
        for group in self._by_group(values):
            total = 0
            for slot, value in group:
                if value < 0 or value >> slot.width:
                    raise PackingError(
                        f"value of {value.bit_length()} bits does not fit a "
                        f"{slot.width}-bit slot"
                    )
                total |= value << slot.shift
            packed.append(total)
        return packed

    def horner(self, ciphertexts: Sequence[Ciphertext]) -> list[Ciphertext]:
        """[Σ_j x_j · 2^{shift_j}] per group, by Horner's rule, no offsets.

        The layout may be a segment (:func:`uniform_layout` with a
        ``start``): a group whose lowest slot does not sit at bit 0 is
        shifted up once, at the end, so a segment's *partial* groups add
        up with the other segments' to the whole batch's.  An unpacked
        layout returns the ciphertexts as they are.
        """
        packed = []
        for group in self._by_group(ciphertexts):
            # Top slot first: every step shifts what is already packed up
            # by the width of the slot going in underneath it.
            (_, acc), *lower = reversed(group)
            for slot, ciphertext in lower:
                acc = acc * (1 << slot.width) + ciphertext
            bottom = group[0][0].shift
            packed.append(acc * (1 << bottom) if bottom else acc)
        return packed

    def offsets(self, magnitude_bits: Sequence[int]) -> list[int]:
        """Σ_j 2^{shift_j + β_j} per group: the public sign offsets.

        ``magnitude_bits[j]`` is the declared β_j (|x_j| < 2^{β_j}); a slot
        too narrow for it raises.
        """
        offsets = []
        for group in self._by_group(magnitude_bits):
            offset = 0
            for slot, beta in group:
                if beta + 1 > slot.width:
                    raise PackingError(
                        f"a {beta}-bit signed value does not fit a "
                        f"{slot.width}-bit slot"
                    )
                offset |= 1 << (slot.shift + beta)
            offsets.append(offset)
        return offsets

    def pack_ciphertexts(
        self, ciphertexts: Sequence[Ciphertext], magnitude_bits: Sequence[int]
    ) -> list[Ciphertext]:
        """[Σ_j (x_j + 2^{β_j}) · 2^{shift_j}] per group: :meth:`horner`
        plus :meth:`offsets`.  An unpacked layout returns the ciphertexts
        as they are (no bounds to read)."""
        if not self.packed:
            return list(ciphertexts)
        return [
            acc + offset
            for acc, offset in zip(
                self.horner(ciphertexts), self.offsets(magnitude_bits)
            )
        ]

    def unpack(
        self,
        plaintexts: Sequence[int],
        magnitude_bits: Sequence[int],
        public_key: PaillierPublicKey,
    ) -> list[int]:
        """The signed per-slot values of *unsigned* decrypted plaintexts.

        Inverse of both pack methods added together: slot j yields
        everything that was added into it minus its offset ``2^{β_j}``.
        Raises if a plaintext has bits above its top slot (the overflow
        that is detectable).  An unpacked layout maps each plaintext to
        its signed representative and reads no bounds.
        """
        if len(plaintexts) != self.n_groups:
            raise PackingError(
                f"layout has {self.n_groups} ciphertexts, got "
                f"{len(plaintexts)} plaintexts"
            )
        if not self.packed:
            return [public_key.to_signed(p) for p in plaintexts]
        if len(magnitude_bits) != len(self.slots):
            raise PackingError(
                f"layout has {len(self.slots)} slots, got "
                f"{len(magnitude_bits)} magnitude bounds"
            )
        used = [0] * self.n_groups
        for slot in self.slots:
            used[slot.group] = max(used[slot.group], slot.shift + slot.width)
        for plaintext, bits in zip(plaintexts, used):
            if plaintext >> bits:
                raise PackingError(
                    f"decrypted plaintext has {plaintext.bit_length()} bits, "
                    f"the layout's slots end at bit {bits}: a slot overflowed"
                )
        return [
            ((plaintexts[slot.group] >> slot.shift) & ((1 << slot.width) - 1))
            - (1 << beta)
            for slot, beta in zip(self.slots, magnitude_bits)
        ]


def _capacity(n_bits: int) -> int:
    """Plaintext bits that never wrap mod n: 2^{|n|-1} <= n."""
    return n_bits - 1


def whole_layout(count: int, n_bits: int) -> SlotLayout:
    """``count`` values, each alone in a ciphertext (undeclared bounds)."""
    capacity = _capacity(n_bits)
    return SlotLayout(
        tuple(Slot(j, 0, capacity) for j in range(count)), count, packed=False
    )


def slot_layout(
    widths: Sequence[int], n_bits: int, carry_bits: int = 0, packed: bool = True
) -> SlotLayout:
    """The public layout for slots of ``widths[j] + carry_bits`` bits
    under an ``n_bits``-bit modulus.

    Greedy and order-preserving: a value opens a new ciphertext when its
    slot no longer fits the current one.  ``carry_bits`` is head-room the
    caller adds to every slot for sums into it (Algorithm 2 adds m masks).
    Widths arrive from peers, so they are validated before anything is
    sized from them: a non-positive width, or a slot wider than the
    plaintext space, raises :class:`PackingError`.  ``packed=False``
    validates the same way and returns :func:`whole_layout`.
    """
    capacity = _capacity(n_bits)
    for width in widths:
        if not isinstance(width, int):
            raise PackingError(f"slot width must be an int, got {width!r}")
        if width <= 0:
            raise PackingError(f"slot width must be positive, got {width}")
        if width + carry_bits > capacity:
            raise PackingError(
                f"a {width + carry_bits}-bit slot exceeds the {capacity}-bit "
                f"plaintext capacity of a {n_bits}-bit modulus"
            )
    if not packed:
        return whole_layout(len(widths), n_bits)
    slots = []
    group = shift = 0
    for width in widths:
        width += carry_bits
        if shift + width > capacity:
            group, shift = group + 1, 0
        slots.append(Slot(group, shift, width))
        shift += width
    return SlotLayout(tuple(slots), group + 1 if slots else 0, packed=True)


def uniform_layout(
    width: int,
    count: int,
    n_bits: int,
    carry_bits: int = 0,
    packed: bool = True,
    start: int = 0,
) -> SlotLayout:
    """Slots start, ..., start + count - 1 of
    ``slot_layout([width] * N, n_bits, carry_bits, packed)`` for any
    N >= start + count, with groups numbered from the first one they touch.

    One width throughout makes every slot's place arithmetic, so a holder
    of one segment of a batch (a party's split statistics) derives her
    slots from the width, her start and her own count; a ``start`` that
    arrived from a peer sizes nothing.  The width is validated as in
    :func:`slot_layout`.
    """
    slot_layout([width], n_bits, carry_bits, packed)
    if not packed:
        return whole_layout(count, n_bits)
    size = width + carry_bits
    per_group = _capacity(n_bits) // size
    first = start // per_group
    slots = tuple(
        Slot(j // per_group - first, j % per_group * size, size)
        for j in range(start, start + count)
    )
    return SlotLayout(slots, slots[-1].group + 1 if slots else 0, packed=True)
