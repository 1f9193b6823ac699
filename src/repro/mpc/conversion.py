"""Conversions between TPHE ciphertexts and secret shares (Algorithm 2, §5.2).

``ciphers_to_shares`` implements the paper's Algorithm 2 for a batch:
every client adds an encrypted random mask to each ciphertext, the masked
values are jointly decrypted, and each client keeps (the negation of) her
masks as her shares — client 1 additionally adds the decrypted masked
values.  The results are additively shared values in Z_q.

``share_to_cipher`` is the reverse conversion used by the enhanced protocol
(§5.2), built as Algorithm 2 run backwards so that the plaintext of the
result is the shared value itself.  (§5.2's own construction — every client
encrypts her field share, the shares are summed homomorphically — leaves
``x + t·q`` in the plaintext, a ~127-bit wrap that every later product
multiplies and every later masked opening exposes.)  For a shared x with
``|x| < 2^β``, β = ``fixed.k``, the fixed-point engine's own precondition:

1. every client i inputs a fresh mask ``r_i < 2^{β+κ}`` to the MPC engine;
2. the clients open ``e = x + 2^β + Σ_i r_i`` — an integer, never reduced
   mod q, since ``e < 2^{β+κ+bitlen(m)} ≪ q``;
3. every client encrypts her own ``r_i``, and
   ``[x] = (e − 2^β) ⊖ Σ_i [r_i]`` — the public constant enters
   unobfuscated, the m mask encryptions randomise the result.

It runs over a batch: one call inputs each client's masks for every value
in one ``input_many``, opens every ``e`` in one ``open_many``, and moves
one mask-ciphertext list per client 2..m and one broadcast result list on
the bus (tag ``to-cipher``, outside the decryption tags) — two bus rounds
at any length.

*What the opening shows.*  ``e`` is the only value anyone sees.  With one
honest client, ``r_i`` is uniform on ``[0, 2^{β+κ})`` and independent of
x, so ``e`` is within statistical distance ``2^{β+1} / 2^{β+κ} = 2^{1−κ}``
of a value that does not depend on x: the κ-bit-wider statistical mask
Algorithm 2 already relies on in the other direction, and nothing else.
The argument needs the bound to be true, so an opened ``e`` that is wider
than ``β + κ + bitlen(m) + 1`` bits raises :class:`MaskBoundError` (the
same check guards Eq. 10's openings in :mod:`repro.core.trainer`).  Like
Algorithm 2 it is a semi-honest construction: nothing ties the ``r_i`` a
client encrypts to the ``r_i`` she input.

Fixed-point handling: a ciphertext with exponent -S converts to a shared
value at the MPC scale 2^F.  If S > F the converted value is securely
truncated by S - F bits (probabilistic truncation); if S < F it is
converted at its own scale and its shares are multiplied by the public
2^(F-S), which is exact — the ciphertext is never rescaled, so a count at
exponent 0 masks and packs at a count's width.

**Slot packing** (:mod:`repro.crypto.packing`).  Algorithm 2 pays one
threshold decryption — one ``c^{d_i} mod n²`` per party — per masked
ciphertext, and a masked class count of a 48-sample tree fills under a
tenth of a 512-bit plaintext.  When the caller declares a bound
(``bound_bits``), value j with ``|x_j| < 2^{β_j}``
(:func:`magnitude_bits`: ``β_j = bound_bits`` at exponent -F or above,
plus ``F - S_j`` below) gets a slot of

    width_j = β_j + κ + bitlen(m)   bits.

Into it go the value shifted non-negative by the public offset
``2^{β_j}`` and one ``(β_j + κ)``-bit mask from each of the m parties:

    x_j + 2^{β_j} + Σ_i r_ij  <  2^{β_j + 1} + m · 2^{β_j + κ}
                              <= (m + 1) · 2^{β_j + κ}  <=  2^{width_j},

so no carry ever crosses into the next slot, the slot's content minus the
offset is exactly the ``e_j = x_j + Σ_i r_ij`` every party sees in the
value-at-a-time protocol, and the mask hides ``x_j`` with the same κ bits
of statistical slack.  The values are packed homomorphically by client
1 (:func:`pack_values`); every party packs her own masks into **one**
mask encryption per packed ciphertext, and one decryption yields all of a
ciphertext's ``e_j`` (⌊511 / width⌋ per 512-bit ciphertext: 10 class
counts of a tree over up to 63 samples at κ = 40 and m = 3, 6 values
declared at ``fixed.k``).  The layout is computed by :func:`mask_layout`
from the mask widths, m and |n| on both sides.

*A tree level's split statistics* have m holders and one width, so lines
1-3 ride their ``split-stats`` reply: each party's mask encryption of
every group of the level with her Horner-packed segment multiplied in
(:class:`Segment`), and her ``(−r mod q)`` per value.  Every party sees
every party's groups (the super client's, with the offsets folded in,
ride her request; the others' go peer to peer), multiplies them into the
level's masked batch herself and sends the super client her partial
decryption of it.  The batch with its ``negated`` shares and the m
vectors is a :class:`PackedBatch` for which :func:`ciphers_to_shares`
runs neither a mask step nor a decryption flow.

*Declare or don't pack.*  The inequality needs a true bound, and only
the caller knows one.  The trainers' class counts over plaintext labels
declare bitlen(W) for the public root weight sum W, which bounds every
count at exponent 0, and their regression label sums ``fixed.k``, under
both protocols (the enhanced protocol's [α] is an exact 0/1 vector:
:func:`share_to_cipher` encrypts the selection bits themselves).  A
riding encrypted-label [γ] (GBDT rounds >= 2), the
forest's vote sums and logistic regression's partial sums are bounded too,
but at a width nobody has written down, so they declare nothing, and an
undeclared value keeps a whole ciphertext — the same code with a slot as
wide as the plaintext space.  Packing a value wider than its declaration
would silently corrupt its neighbours; only overflow of a ciphertext's
*top* slot is detectable after decryption (and raises).
"""

from __future__ import annotations

import operator
import secrets
from functools import reduce
from dataclasses import dataclass
from typing import Sequence

from repro.crypto.encoding import EncryptedNumber
from repro.crypto.packing import (
    PackingError,
    SlotLayout,
    slot_layout,
    uniform_layout,
)
from repro.crypto.paillier import Ciphertext, PaillierPublicKey
from repro.crypto.threshold import ThresholdPaillier, combine_partial_vectors
from repro.mpc import comparison
from repro.mpc.advanced import FixedPointOps
from repro.mpc.sharing import SharedValue
from repro.network.bus import MessageBus
from repro.network.flows import collect_replies, record_threshold_decrypt
from repro.network.transport import MAX_FRAME
from repro.network.wire import PartialDecryptionVector, Request

__all__ = [
    "PackedBatch",
    "Segment",
    "ciphers_to_shares",
    "magnitude_bits",
    "pack_values",
    "segment_header",
    "segment_layout",
    "share_to_cipher",
    "check_masked_opening",
    "mask_layout",
    "ConversionCounters",
    "MaskBoundError",
]


class MaskBoundError(ValueError):
    """A masked value opened wider than its masks: it broke its bound."""


class ConversionCounters:
    """Counts conversions and threshold decryptions (Table 2's Cd)."""

    def __init__(self) -> None:
        self.to_shares = 0
        self.to_cipher = 0
        self.threshold_decryptions = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "to_shares": self.to_shares,
            "to_cipher": self.to_cipher,
            "threshold_decryptions": self.threshold_decryptions,
        }


def mask_layout(
    mask_bits: Sequence[int],
    n_parties: int,
    public_key: PaillierPublicKey,
    packed: bool,
) -> SlotLayout:
    """The slot layout of one Algorithm 2 batch, from its mask widths.

    The one function both sides of a ``convert-masks`` request call — the
    requester to pack the statistics and her own masks, every responder
    (:meth:`~repro.federation.party.PartyRuntime._op_convert_masks`) to
    pack hers — so the layout is derived, never sent.  A mask of
    ``mask_bits[j] = β_j + κ`` bits gets a slot of
    ``β_j + κ + bitlen(m)`` bits (see the module docstring); widths that
    are not positive or do not fit the plaintext space raise
    :class:`~repro.crypto.packing.PackingError` before anything is sampled
    from them.
    """
    return slot_layout(
        mask_bits,
        public_key.n.bit_length(),
        carry_bits=n_parties.bit_length(),
        packed=packed,
    )


def segment_header(mask_bits: int, counts: Sequence[int], packed: bool) -> list[int]:
    """The public layout of a batch masked with ``mask_bits`` bits
    throughout, held in consecutive segments of ``counts[i]`` values,
    party i's the i-th: ``[packed, mask_bits, total, first slot of each
    party]``.  A ``split-stats`` request carries it: every party derives
    her :func:`segment_layout` of the level from it."""
    starts = [sum(counts[:i]) for i in range(len(counts))]
    return [int(packed), mask_bits, sum(counts), *starts]


@dataclass(frozen=True)
class Segment:
    """One party's part of a tree level's batch: the ``level`` layout, her
    own ``slots`` of it (groups numbered from the first one they touch)
    and the level group ``first`` that is."""

    level: SlotLayout
    slots: SlotLayout
    first: int

    def reply(
        self, ciphertexts: Sequence[Ciphertext], mask_groups: Sequence[Ciphertext]
    ) -> list[Ciphertext]:
        """Her mask encryption of every level group, multiplied in the
        groups her segment touches by her ``ciphertexts`` packed by
        Horner's rule (no offsets)."""
        groups = list(mask_groups)
        for at, partial in enumerate(self.slots.horner(ciphertexts), self.first):
            groups[at] = groups[at] + partial
        return groups


def segment_layout(
    header: Sequence[int],
    party: int,
    count: int,
    n_parties: int,
    public_key: PaillierPublicKey,
    field_q: int,
) -> Segment:
    """Party ``party``'s ``count`` slots of the batch a
    :func:`segment_header` describes, in the level's layout
    ``mask_layout([mask_bits] * total, ...)``.

    The header arrives from a peer, so it is checked before anything is
    sized from it: a flag other than 0 / 1, a start per party missing, a
    segment that does not fit the total, a width that is not positive or
    does not fit the plaintext space, or a total whose reply (a ciphertext
    per group, a share per value) would not fit one
    :data:`~repro.network.transport.MAX_FRAME` frame raises
    :class:`~repro.crypto.packing.PackingError`.
    """
    packed, mask_bits, total, *starts = header
    if (
        packed not in (0, 1)
        or len(starts) != n_parties
        or not all(isinstance(v, int) for v in (total, *starts))
        or not 0 <= starts[party] <= total - count
    ):
        raise PackingError(
            f"layout {list(header)} has no segment of {count} values for "
            f"party {party}"
        )
    n_bits, carry = public_key.n.bit_length(), n_parties.bit_length()
    slots = uniform_layout(
        mask_bits, count, n_bits, carry, bool(packed), start=starts[party]
    )
    # Slots of one width: a slot's group is arithmetic.
    per_group = (n_bits - 1) // (mask_bits + carry) if packed else 1
    groups = -(-total // per_group)
    reply = groups * 2 * ((n_bits + 7) // 8) + total * ((field_q.bit_length() + 7) // 8)
    if reply > MAX_FRAME:
        raise PackingError(
            f"layout {list(header[:3])}: a reply of {groups} ciphertexts and "
            f"{total} shares ({reply} bytes) exceeds one {MAX_FRAME}-byte frame"
        )
    level = uniform_layout(mask_bits, total, n_bits, carry, bool(packed))
    return Segment(level, slots, starts[party] // per_group)


def magnitude_bits(
    exponents: Sequence[int], fixed: FixedPointOps, bound_bits: int | None
) -> list[int]:
    """β_j for values at ``exponents``: ``|x_j| < 2^{β_j}`` for each
    value's plaintext integer.

    The declared bound (``fixed.k`` for an undeclared one) holds at the
    value's own scale when that is 2^-F or coarser — a count at exponent
    0 is a count — and at the MPC scale 2^-F otherwise, so a value deeper
    than -F adds the bits of its extra scale.
    """
    bound = fixed.k if bound_bits is None else bound_bits
    return [bound + max(0, -fixed.f - exponent) for exponent in exponents]


@dataclass(frozen=True)
class PackedBatch:
    """Values already packed: ``layout``'s ciphertexts with the sign
    offsets added, and each value's β and exponent in slot order; once
    the groups carry all m parties' masks, ``negated`` holds each party's
    ``(−r_ij mod q)`` per value, in party order, and once the groups are
    decrypted, ``vectors`` holds the m parties' partial decryptions of
    them, in party order."""

    groups: list[Ciphertext]
    layout: SlotLayout
    magnitudes: list[int]
    exponents: list[int]
    negated: list[list[int]] | None = None
    vectors: list[PartialDecryptionVector] | None = None


def pack_values(
    values: Sequence[EncryptedNumber],
    fixed: FixedPointOps,
    n_parties: int,
    public_key: PaillierPublicKey,
    bound_bits: int | None = None,
) -> PackedBatch:
    """One holder's values packed by :func:`mask_layout`: slot-packed when
    a bound is declared, one ciphertext each otherwise."""
    exponents = [value.exponent for value in values]
    magnitudes = magnitude_bits(exponents, fixed, bound_bits)
    layout = mask_layout(
        [beta + fixed.engine.kappa for beta in magnitudes],
        n_parties,
        public_key,
        packed=bound_bits is not None,
    )
    groups = layout.pack_ciphertexts(
        [value.ciphertext for value in values], magnitudes
    )
    return PackedBatch(groups, layout, magnitudes, exponents)


def ciphers_to_shares(
    values: Sequence[EncryptedNumber] | PackedBatch,
    threshold: ThresholdPaillier,
    fixed: FixedPointOps,
    counters: ConversionCounters | None = None,
    batch_engine=None,
    bus: MessageBus | None = None,
    bound_bits: int | None = None,
    holder: int = 0,
) -> list[SharedValue]:
    """Batch Algorithm 2 (the m decryption rounds are batched in practice).

    A pack step, a mask step, then one core.  Ciphertexts are packed by
    :func:`pack_values` (``bound_bits`` declares ``|x| < 2**bound_bits``
    as :func:`magnitude_bits` reads it); a :class:`PackedBatch` arrives
    packed already.  Declared values share slots: several values, and
    each party's masks for them, share one ciphertext, one mask
    encryption per party and one threshold decryption (see the module
    docstring).  Without a declaration every value keeps a ciphertext of
    its own and masks of ``fixed.k`` + exponent-slack + κ bits.  Either
    way each party sees exactly the per-value masked plaintexts e_j of the
    value-at-a-time loop.  A value at an exponent e above -F is converted
    at that exponent and its shares multiplied by the public 2^(F+e); one
    below is truncated after conversion.

    The mask step runs for a batch whose ``negated`` is ``None``, and the
    decryption for one whose ``vectors`` is ``None`` (a tree level's split
    statistics arrive masked and decrypted, from their ``split-stats``
    exchange): every party's masks are added to the groups before one
    batched threshold decryption; a
    :class:`~repro.crypto.batch.BatchCryptoEngine` may be supplied so
    the holder's mask encryptions draw from its obfuscator pool.

    With a ``bus`` both phases are *reactive*.  ``holder`` (Algorithm 2's
    client 1: a federation's super client) broadcasts a ``convert-masks``
    request (op ``convert-masks-packed`` for declared bounds) with the
    per-value mask widths, and every other party's runtime samples her
    own masks, packs and encrypts them with *her* engine, and replies
    with the mask ciphertexts plus her (-r mod q) share vector.  (The
    share vectors travel to the engine host because the MPC layer itself
    is centrally simulated — the same boundary as
    :meth:`MPCEngine.input_many` everywhere else.)  The masked batch then
    goes through the threshold-decryption flow, each party's c^{d_i}
    exponentiations running under her own authority.

    Without a bus (the local form unit tests use as their reference) all
    m parties' masks are sampled here and the share vectors come straight
    from the bundle's key shares; the op counts are the same.  Either way
    the masked plaintexts are reconstructed from the m share vectors by
    :func:`~repro.crypto.threshold.combine_partial_vectors`; party 0's
    share of value j is ``e_j + neg_0j``, every other party's ``neg_ij``.

    The MPC engine accounts the mask broadcast and combine as one round
    per call, m field elements per value.
    """
    count = len(values.exponents if isinstance(values, PackedBatch) else values)
    if not count:
        return []
    m = threshold.n_parties
    pk = threshold.public_key
    batch = (
        values
        if isinstance(values, PackedBatch)
        else pack_values(values, fixed, m, pk, bound_bits)
    )
    engine = fixed.engine
    q = engine.field.q
    layout, magnitudes = batch.layout, batch.magnitudes
    masked_cts, negated = batch.groups, batch.negated
    if negated is None:
        bits_list = [beta + engine.kappa for beta in magnitudes]

        def encrypt_masks(masks: list[int]) -> list:
            plaintexts = layout.pack_plaintexts(masks)
            if batch_engine is not None:
                return batch_engine.encrypt_ciphertexts(plaintexts)
            return [pk.encrypt(r) for r in plaintexts]

        # Algorithm 2 lines 1-3: every client picks a mask per value,
        # encrypts them (one ciphertext per packed group) and sends them
        # to the holder.
        own_masks = [secrets.randbits(bits) for bits in bits_list]
        peers = [party for party in range(m) if party != holder]
        mask_cts = [encrypt_masks(own_masks)]
        by_party = {holder: [(-r) % q for r in own_masks]}
        if bus is not None:
            # The holder requests mask contributions; every other party
            # reacts with [her mask ciphertexts, her (-r mod q) shares].
            op = "convert-masks-packed" if layout.packed else "convert-masks"
            with bus.flow(1):
                bus.broadcast_payload(holder, Request(op, bits_list), tag="mpc-convert")
                replies = collect_replies(bus, holder, peers, "mpc-convert")
                for party in peers:
                    party_cts, party_shares = replies[party]
                    mask_cts.append(party_cts)
                    by_party[party] = [int(v) for v in party_shares.values]
        else:
            for party in peers:
                masks = [secrets.randbits(bits) for bits in bits_list]
                mask_cts.append(encrypt_masks(masks))
                by_party[party] = [(-r) % q for r in masks]
        negated = [by_party[party] for party in range(m)]
        for party_cts in mask_cts:
            if len(party_cts) != layout.n_groups:
                raise ValueError(
                    f"expected {layout.n_groups} mask ciphertexts per party, "
                    f"got {len(party_cts)}"
                )
            masked_cts = [
                masked + mask_ct for masked, mask_ct in zip(masked_cts, party_cts)
            ]
    # Joint decryption of the masked (packed) values (line 5), unsigned:
    # every party's c^{d_i} vector, combined.  The layout restores each
    # value's sign.
    if batch.vectors is not None:
        vectors = batch.vectors
    elif bus is not None:
        vectors = record_threshold_decrypt(
            bus, masked_cts, tag="mpc-convert", holder=holder
        )
    else:
        vectors = threshold.share_vectors(masked_cts)
    masked_plains = combine_partial_vectors(
        pk, vectors, m, signed=False, theta=threshold.theta
    )
    if counters is not None:
        counters.threshold_decryptions += layout.n_groups
        counters.to_shares += count
    # Party 0 sets e - r_0, the others -r_i (lines 6-8), each times the
    # public 2^(F+e) that brings a coarser value to the MPC scale.
    opened = layout.unpack(masked_plains, magnitudes, pk)
    scales = [1 << max(0, fixed.f + exponent) for exponent in batch.exponents]
    columns = [
        [(e + r) * scale % q for e, r, scale in zip(opened, negated[0], scales)],
        *([r * scale % q for r, scale in zip(rs, scales)] for rs in negated[1:]),
    ]
    if engine.authenticated:
        # Every party inputs her own share, in one input round for the
        # batch; the converted value is the sum of the m authenticated
        # inputs, so nobody forms it in the clear.
        engine._record_round(messages=m * (m - 1), values=count)
        inputs = [engine._share_values(column, engine.rng) for column in columns]
        columns = [[sum(v) % q for v in zip(*rows)] for rows in zip(*inputs)]
    results = engine._values(columns)
    # The mask broadcast + combine is one communication round per call,
    # carrying m field elements per value.
    engine._record_round(messages=2 * (m - 1), values=m * count)
    # Values at a deeper scale than 2^F are rescaled, one batch per depth.
    extras = [max(0, -fixed.f - exponent) for exponent in batch.exponents]
    for extra in dict.fromkeys(e for e in extras if e):
        at = [j for j, e in enumerate(extras) if e == extra]
        rescaled = comparison.trunc_pr(
            engine, [results[j] for j in at], fixed.k + extra, extra
        )
        for j, value in zip(at, rescaled):
            results[j] = value
    return results


def check_masked_opening(opened: int, mask_bits: int, n_parties: int) -> None:
    """Refuse a masked opening wider than its masks admit.

    ``opened = x + 2^β + Σ_i r_i`` over m masks of ``mask_bits = β + κ``
    bits stays below ``(m + 1) · 2^{mask_bits}`` whenever ``|x| < 2^β``.
    Anything above ``2^{mask_bits + bitlen(m) + 1}`` (or below zero)
    means the value under the masks broke its bound: they no longer hide
    it, and a share built from the opening would be wrong.
    """
    limit = mask_bits + n_parties.bit_length() + 1
    if opened < 0 or opened >> limit:
        raise MaskBoundError(
            f"masked opening of {opened.bit_length()} bits"
            f"{' (negative)' if opened < 0 else ''} under {n_parties} masks "
            f"of {mask_bits} bits: the masked value is outside its bound"
        )


def share_to_cipher(
    values: list[SharedValue],
    threshold: ThresholdPaillier,
    fixed: FixedPointOps,
    counters: ConversionCounters | None = None,
    exponent: int | None = None,
    bus: MessageBus | None = None,
    holder: int = 0,
) -> list[EncryptedNumber]:
    """Reverse conversion (§5.2) over a batch: the ciphertext of each
    shared value.

    The plaintext of each returned ciphertext is x itself (signed, no
    multiple of q), for any shared x with ``|x| < 2**fixed.k``: the
    clients open every x under m fresh ``fixed.k + κ``-bit masks and
    subtract the encrypted masks again (see the module docstring for the
    steps and for what the opening shows).  A value outside the bound
    raises :class:`MaskBoundError` at the opening, before anything is
    encrypted or sent.

    ``exponent`` declares the fixed-point scale of the shared values:
    -F (the default) for fixed-point values, 0 for raw integers/bits such
    as the enhanced protocol's selection vector [λ].

    One call costs the same at any length: one ``input_many`` per party
    (her masks), one ``open_many`` (every e) and one accounted round for
    the mask-ciphertext exchange.  With a ``bus``, every other client
    sends ``holder`` one list of mask ciphertexts and ``holder`` broadcasts
    one list of results — two bus rounds, tag ``to-cipher``.  The tag is
    not a decryption tag: a party runtime consumes a ciphertext list under
    it without answering with her c^{d_i} shares.
    """
    from repro.crypto.encoding import PaillierEncoder

    if not values:
        return []
    engine = fixed.engine
    m = engine.n_parties
    pk = threshold.public_key
    encoder = PaillierEncoder(pk, frac_bits=fixed.f)
    offset = 1 << fixed.k
    mask_bits = fixed.k + engine.kappa
    count = len(values)
    masks = [[secrets.randbits(mask_bits) for _ in range(count)] for _ in range(m)]
    mask_shares = [
        engine.input_many(party_masks, owner=party)
        for party, party_masks in enumerate(masks)
    ]
    opened = engine.open_many(
        [
            engine.add_public(engine.sum_values([value, *shares]), offset)
            for value, shares in zip(values, zip(*mask_shares))
        ]
    )
    for e in opened:
        check_masked_opening(e, mask_bits, m)
    mask_cts = [[pk.encrypt(r) for r in party_masks] for party_masks in masks]
    totals = [
        (e - offset) - reduce(operator.add, cts)
        for e, cts in zip(opened, zip(*mask_cts))
    ]
    if bus is not None:
        with bus.flow(2):
            for party in range(m):
                if party != holder:
                    bus.send_payload(party, holder, mask_cts[party], tag="to-cipher")
            bus.broadcast_payload(holder, totals, tag="to-cipher")
    if counters is not None:
        counters.to_cipher += count
    engine._record_round(messages=m * (m - 1), values=m * count)
    scale = -fixed.f if exponent is None else exponent
    return [EncryptedNumber(encoder, total, scale) for total in totals]
