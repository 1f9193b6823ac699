"""Conversions between TPHE ciphertexts and secret shares (Algorithm 2, §5.2).

``cipher_to_share`` implements the paper's Algorithm 2: every client adds an
encrypted random mask to the ciphertext, the masked value is jointly
decrypted, and each client keeps (the negation of) her mask as her share —
client 1 additionally adds the decrypted masked value.  The result is an
additively shared value in Z_q.

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
truncated by S - F bits (probabilistic truncation); if S < F the ciphertext
is first losslessly rescaled.

**Slot packing** (:mod:`repro.crypto.packing`).  Algorithm 2 pays one
threshold decryption — one ``c^{d_i} mod n²`` per party — per masked
ciphertext, and a masked statistic fills a sixth of a 512-bit plaintext.
When the caller declares a bound (``bound_bits``), value j with
``|x_j| < 2^{β_j}`` (``β_j = bound_bits + S_j - F``) gets a slot of

    width_j = β_j + κ + bitlen(m)   bits.

Into it go the value shifted non-negative by the public offset
``2^{β_j}`` and one ``(β_j + κ)``-bit mask from each of the m parties:

    x_j + 2^{β_j} + Σ_i r_ij  <  2^{β_j + 1} + m · 2^{β_j + κ}
                              <= (m + 1) · 2^{β_j + κ}  <=  2^{width_j},

so no carry ever crosses into the next slot, the slot's content minus the
offset is exactly the ``e_j = x_j + Σ_i r_ij`` every party sees in the
value-at-a-time protocol, and the mask hides ``x_j`` with the same κ bits
of statistical slack.  Client 1 packs the statistics homomorphically,
every party packs her own masks into **one** mask encryption per packed
ciphertext, and one decryption yields all of a ciphertext's ``e_j`` (6
per 512-bit ciphertext at the defaults).  The layout is computed by
:func:`mask_layout` from the mask widths, m and |n| on both sides.

*Declare or don't pack.*  The inequality needs a true bound, and only
the caller knows one.  The trainers' node and split statistics over
plaintext labels declare ``fixed.k`` under both protocols (the enhanced
protocol's [α] is an exact 0/1 vector: :func:`share_to_cipher` encrypts
the selection bits themselves).  A riding encrypted-label [γ] (GBDT rounds >= 2), the
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
from typing import Sequence

from repro.crypto.encoding import EncryptedNumber
from repro.crypto.packing import SlotLayout, slot_layout
from repro.crypto.paillier import PaillierPublicKey
from repro.crypto.threshold import ThresholdPaillier, combine_partial_vectors
from repro.mpc import comparison
from repro.mpc.advanced import FixedPointOps
from repro.mpc.sharing import SharedValue
from repro.network.bus import MessageBus
from repro.network.flows import (
    broadcast_request,
    collect_replies,
    record_threshold_decrypt,
)

__all__ = [
    "cipher_to_share",
    "ciphers_to_shares",
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


def cipher_to_share(
    value: EncryptedNumber,
    threshold: ThresholdPaillier,
    fixed: FixedPointOps,
    counters: ConversionCounters | None = None,
    bus: MessageBus | None = None,
    runtimes: list | None = None,
) -> SharedValue:
    """Algorithm 2: convert one ciphertext into a secretly shared value."""
    return ciphers_to_shares(
        [value], threshold, fixed, counters, bus=bus, runtimes=runtimes
    )[0]


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


def ciphers_to_shares(
    values: list[EncryptedNumber],
    threshold: ThresholdPaillier,
    fixed: FixedPointOps,
    counters: ConversionCounters | None = None,
    batch_engine=None,
    bus: MessageBus | None = None,
    runtimes: list | None = None,
    bound_bits: int | None = None,
) -> list[SharedValue]:
    """Batch Algorithm 2 (the m decryption rounds are batched in practice).

    All values are masked first, then the masked ciphertexts go through one
    batched threshold decryption; a
    :class:`~repro.crypto.batch.BatchCryptoEngine` may be supplied so the
    mask encryptions draw from its obfuscator pool.

    ``bound_bits`` is the caller's declaration that every value, at the
    MPC scale 2^F, has magnitude below ``2**bound_bits``.  Declared values
    are slot-packed: several statistics, and each party's masks for them,
    share one ciphertext, one mask encryption per party and one threshold
    decryption (see the module docstring).  Without a declaration every
    value keeps a ciphertext of its own and masks of ``fixed.k`` +
    exponent-slack + κ bits.  Either way each party sees exactly the
    per-value masked plaintexts e_j of the value-at-a-time loop, and the
    shares built from them are the same.

    With a ``bus`` and ``runtimes`` (the per-party
    :class:`~repro.federation.party.PartyRuntime` list) both phases are
    *reactive*.  Client 1 broadcasts a ``convert-masks`` request (op
    ``convert-masks-packed`` for declared bounds) with the per-value mask
    widths, and every other party samples her own masks, packs and
    encrypts them with *her* engine, and replies with the mask
    ciphertexts plus her (-r mod q) share vector.  Her sampling and
    encryption run wherever her runtime lives — in this process when she
    is local, in her own standalone process otherwise.  (The share
    vectors travel to the engine host because the MPC layer itself is
    centrally simulated — the same boundary as
    :meth:`MPCEngine.input_many` everywhere else.)  The masked batch then
    goes through the threshold-decryption flow, each party's c^{d_i}
    exponentiations running under her own authority.

    Without a bus (the local form unit tests use as their reference) all
    m parties' masks are sampled here and the share vectors come straight
    from the bundle's key shares; the op counts are the same.  Either way
    the masked plaintexts are reconstructed from the m share vectors by
    :func:`~repro.crypto.threshold.combine_partial_vectors`.
    """
    if not values:
        return []
    if bus is not None and runtimes is None:
        raise ValueError("a conversion over a bus needs the party runtimes")
    engine = fixed.engine
    q = engine.field.q
    m = threshold.n_parties
    pk = threshold.public_key
    packed = bound_bits is not None
    adjusted: list[EncryptedNumber] = []
    extras: list[int] = []
    magnitudes: list[int] = []
    for value in values:
        target_exponent = -fixed.f
        if value.exponent > target_exponent:
            value = value.decrease_exponent_to(target_exponent)
        adjusted.append(value)
        extra = target_exponent - value.exponent  # >= 0
        extras.append(extra)
        magnitudes.append((bound_bits if packed else fixed.k) + extra)
    bits_list = [beta + engine.kappa for beta in magnitudes]
    layout = mask_layout(bits_list, m, pk, packed)
    masked_cts = layout.pack_ciphertexts(
        [value.ciphertext for value in adjusted], magnitudes
    )

    def encrypt_masks(masks: list[int]) -> list:
        plaintexts = layout.pack_plaintexts(masks)
        if batch_engine is not None:
            return batch_engine.encrypt_ciphertexts(plaintexts)
        return [pk.encrypt(r) for r in plaintexts]

    # Algorithm 2 lines 1-3: every client picks a mask per value, encrypts
    # them (one ciphertext per packed group) and sends them to client 1.
    own_masks = [secrets.randbits(bits) for bits in bits_list]
    if bus is not None:
        # Client 1 requests mask contributions; every other party reacts
        # with [her mask ciphertexts, her (-r mod q) share vector].
        broadcast_request(
            bus,
            0,
            "convert-masks-packed" if packed else "convert-masks",
            bits_list,
            tag="mpc-convert",
            runtimes=runtimes,
        )
        mask_cts = [encrypt_masks(own_masks)]
        replies = collect_replies(bus, 0, range(1, m))
        neg_shares = []
        for party in range(1, m):
            party_cts, party_shares = replies[party]
            mask_cts.append(party_cts)
            neg_shares.append([int(v) for v in party_shares.values])
        bus.round()
    else:
        peer_masks = [
            [secrets.randbits(bits) for bits in bits_list] for _ in range(1, m)
        ]
        mask_cts = [encrypt_masks(masks) for masks in [own_masks] + peer_masks]
        neg_shares = [[(-r) % q for r in masks] for masks in peer_masks]
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
    if bus is not None:
        vectors = record_threshold_decrypt(
            bus, masked_cts, tag="mpc-convert", runtimes=runtimes
        )
    else:
        vectors = threshold.share_vectors(masked_cts)
    masked_plains = combine_partial_vectors(
        pk, vectors, m, signed=False, theta=threshold.theta
    )
    if counters is not None:
        counters.threshold_decryptions += layout.n_groups
        counters.to_shares += len(values)
    results: list[SharedValue] = []
    for j, masked_plain in enumerate(layout.unpack(masked_plains, magnitudes, pk)):
        # Client 1 sets e - r_1, the others -r_i (lines 6-8).
        own_share = masked_plain - own_masks[j]
        others = [shares[j] for shares in neg_shares]
        if engine.authenticated:
            shared = engine._make_shared((own_share + sum(others)) % q)
        else:
            shared = SharedValue(
                engine, (own_share % q, *(v % q for v in others))
            )
        # Account the mask broadcast + combine as one communication round.
        engine._record_round(messages=2 * (m - 1), values=m)
        extra = extras[j]
        if extra:
            shared = comparison.trunc_pr(engine, shared, fixed.k + extra, extra)
        results.append(shared)
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
    value: SharedValue,
    threshold: ThresholdPaillier,
    fixed: FixedPointOps,
    counters: ConversionCounters | None = None,
    exponent: int | None = None,
    bus: MessageBus | None = None,
) -> EncryptedNumber:
    """Reverse conversion (§5.2): the ciphertext of a shared value.

    The plaintext of the returned ciphertext is x itself (signed, no
    multiple of q), for any shared x with ``|x| < 2**fixed.k``: the
    clients open x under m fresh ``fixed.k + κ``-bit masks and subtract
    the encrypted masks again (see the module docstring for the steps and
    for what the opening shows).  A value outside the bound raises
    :class:`MaskBoundError` at the opening.

    ``exponent`` declares the fixed-point scale of the shared value:
    -F (the default) for fixed-point values, 0 for raw integers/bits such
    as the enhanced protocol's selection vector [λ].

    With a ``bus``, clients 2..m send their encrypted masks to client 1,
    who broadcasts the result — 2(m−1) ciphertext messages over two
    rounds.  The MPC engine accounts m inputs and one opening.
    """
    from repro.crypto.encoding import PaillierEncoder

    engine = value.engine
    m = value.n_parties
    pk = threshold.public_key
    encoder = PaillierEncoder(pk, frac_bits=fixed.f)
    offset = 1 << fixed.k
    mask_bits = fixed.k + engine.kappa
    masks = [secrets.randbits(mask_bits) for _ in range(m)]
    mask_shares = [
        engine.input_private(r, owner=party) for party, r in enumerate(masks)
    ]
    opened = engine.open(
        engine.add_public(engine.sum_values([value, *mask_shares]), offset)
    )
    check_masked_opening(opened, mask_bits, m)
    mask_cts = [pk.encrypt(r) for r in masks]
    total = (opened - offset) - reduce(operator.add, mask_cts)
    if bus is not None:
        for party in range(1, m):
            bus.send_payload(party, 0, mask_cts[party], tag="mpc-convert")
        bus.broadcast_payload(0, total, tag="mpc-convert")
        bus.round(2)
    if counters is not None:
        counters.to_cipher += 1
    engine._record_round(messages=m * (m - 1), values=m)
    return EncryptedNumber(encoder, total, -fixed.f if exponent is None else exponent)
