"""Conversions between TPHE ciphertexts and secret shares (Algorithm 2, §5.2).

``cipher_to_share`` implements the paper's Algorithm 2: every client adds an
encrypted random mask to the ciphertext, the masked value is jointly
decrypted, and each client keeps (the negation of) her mask as her share —
client 1 additionally adds the decrypted masked value.  The result is an
additively shared value in Z_q.

``share_to_cipher`` implements the reverse conversion used by the enhanced
protocol (§5.2): every client encrypts her share and the shares are summed
homomorphically.  The resulting plaintext equals the shared value plus a
multiple of q < m·q, which :func:`decrypt_shared_cipher` strips after joint
decryption (the Paillier plaintext space is orders of magnitude larger than
q, so the wrap never aliases).

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

*Declare or don't pack.*  The inequality needs a true bound.  Callers
whose values carry :func:`share_to_cipher` q-wraps (the enhanced trainer,
encrypted-label GBDT rounds, forest votes, logistic regression: ~127
bits per tree level on top of the value) declare nothing, and an
undeclared value keeps a whole ciphertext — the same code with a slot as
wide as the plaintext space.  Packing such a value would silently
corrupt its neighbours; only overflow of a ciphertext's *top* slot is
detectable after decryption (and raises).
"""

from __future__ import annotations

import secrets
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
    "decrypt_shared_cipher",
    "mask_layout",
    "ConversionCounters",
]


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
    services: list | None = None,
    runtimes: list | None = None,
) -> SharedValue:
    """Algorithm 2: convert one ciphertext into a secretly shared value.

    Ciphertexts produced by :func:`share_to_cipher` (whose plaintext may
    exceed q by a multiple of q) are handled transparently: building the
    shares mod q strips the wrap before any secure truncation runs.
    """
    return ciphers_to_shares(
        [value], threshold, fixed, counters, bus=bus, services=services,
        runtimes=runtimes,
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
    services: list | None = None,
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

    With ``runtimes`` (the per-party
    :class:`~repro.federation.party.PartyRuntime` list) the mask phase is
    *reactive*: client 1 broadcasts a ``convert-masks`` request (op
    ``convert-masks-packed`` for declared bounds) with the per-value mask
    widths, and every other party samples her own masks, packs and
    encrypts them with *her* engine, and replies with the mask
    ciphertexts plus her (-r mod q) share vector.  Her sampling and
    encryption run wherever her runtime lives — in this process when she
    is local, in her own standalone process otherwise.  (The share
    vectors travel to the engine host because the MPC layer itself is
    centrally simulated — the same boundary as
    :meth:`MPCEngine.input_many` everywhere else.)  Without runtimes the
    legacy central path samples all m parties' masks here, with the same
    op counts and bus rounds.

    With ``services`` (the per-party
    :class:`~repro.federation.party.PartyService` list) and
    ``decrypt_mode="combine"``, the masked plaintexts are reconstructed
    from the m real share vectors the flow moved — each party's c^{d_i}
    exponentiations run under her own authority, and the conversion works
    even after a deployment scrubbed the dealer key (or no dealer ever
    existed, with distributed keygen).
    """
    if not values:
        return []
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
    if bus is not None and runtimes is not None:
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
        if bus is not None:
            # Client 1's own masks stay local.
            for party in range(1, m):
                bus.send_payload(party, 0, mask_cts[party], tag="mpc-convert")
            bus.round()
    for party_cts in mask_cts:
        if len(party_cts) != layout.n_groups:
            raise ValueError(
                f"expected {layout.n_groups} mask ciphertexts per party, "
                f"got {len(party_cts)}"
            )
        masked_cts = [
            masked + mask_ct for masked, mask_ct in zip(masked_cts, party_cts)
        ]
    combine = (
        bus is not None
        and services is not None
        and threshold.decrypt_mode == "combine"
    )
    if bus is not None:
        if combine:
            vectors = record_threshold_decrypt(
                bus, masked_cts, tag="mpc-convert", services=services
            )
        else:
            record_threshold_decrypt(bus, masked_cts, tag="mpc-convert")
    # Joint decryption of the masked (packed) values (line 5), unsigned:
    # reconstructed from the m share vectors the flow moved, or — in
    # simulate mode — batched through the engine's CRT shortcut (fanned
    # out across its workers).  The layout restores each value's sign.
    if combine:
        masked_plains = combine_partial_vectors(
            pk, vectors, m, signed=False, theta=threshold.theta
        )
    elif batch_engine is not None:
        masked_plains = batch_engine.threshold_decrypt_batch(masked_cts, signed=False)
    else:
        masked_plains = threshold.joint_decrypt_batch(masked_cts, signed=False)
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


def share_to_cipher(
    value: SharedValue,
    threshold: ThresholdPaillier,
    fixed: FixedPointOps,
    counters: ConversionCounters | None = None,
    exponent: int | None = None,
    bus: MessageBus | None = None,
) -> EncryptedNumber:
    """Reverse conversion (§5.2): encrypt shares, sum homomorphically.

    The plaintext of the returned ciphertext is Σ⟨x⟩_i over the integers,
    i.e. x + t·q with 0 <= t < m; callers must decrypt it through
    :func:`decrypt_shared_cipher` (or convert it back with
    ``cipher_to_share(..., wrapped=True)``, which reduces mod q for free).

    ``exponent`` declares the fixed-point scale of the shared value:
    -F (the default) for fixed-point values, 0 for raw integers/bits such
    as the enhanced protocol's selection vector [λ].

    With a ``bus``, clients 2..m send their encrypted shares to client 1,
    who broadcasts the homomorphic sum back — 2(m−1) ciphertext messages
    over two rounds (the seed broadcast ``ciphertext_bytes * m``, i.e.
    m(m−1) ciphertexts).
    """
    from repro.crypto.encoding import PaillierEncoder

    pk = threshold.public_key
    encoder = PaillierEncoder(pk, frac_bits=fixed.f)
    total = None
    share_cts = []
    for share in value.shares:
        ct = pk.encrypt(share)
        share_cts.append(ct)
        total = ct if total is None else total + ct
    if bus is not None:
        for party in range(1, value.n_parties):
            bus.send_payload(party, 0, share_cts[party], tag="mpc-convert")
        bus.broadcast_payload(0, total, tag="mpc-convert")
        bus.round(2)
    if counters is not None:
        counters.to_cipher += 1
    value.engine._record_round(
        messages=value.n_parties * (value.n_parties - 1), values=value.n_parties
    )
    return EncryptedNumber(encoder, total, -fixed.f if exponent is None else exponent)


def decrypt_shared_cipher(
    value: EncryptedNumber,
    threshold: ThresholdPaillier,
    fixed: FixedPointOps,
    counters: ConversionCounters | None = None,
) -> float:
    """Jointly decrypt a share_to_cipher ciphertext and strip the q-wrap."""
    raw = threshold.joint_decrypt(value.ciphertext, signed=False)
    if counters is not None:
        counters.threshold_decryptions += 1
    q = fixed.engine.field.q
    reduced = fixed.engine.field.to_signed(raw % q)
    return reduced * 2.0**value.exponent
