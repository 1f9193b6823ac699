"""Slot packing (repro.crypto.packing): the layout, pack and unpack.

The property every caller relies on: whatever is added into a slot — the
value at either end of its declared range, its sign offset, every party's
all-ones mask — comes back out of *that* slot and no other.
"""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.packing import PackingError, slot_layout, whole_layout
from repro.crypto.paillier import generate_keypair
from repro.crypto.primes import random_prime
from repro.mpc.conversion import mask_layout

K, KAPPA = 40, 40  # PivotConfig's mpc_k / kappa defaults


@lru_cache(maxsize=None)
def _keypair_of_length(bits: int):
    """A key pair whose modulus has exactly ``bits`` bits (seeded)."""
    rng = random.Random(bits)
    while True:
        p, q = random_prime((bits + 1) // 2, rng), random_prime(bits // 2, rng)
        if p != q and (p * q).bit_length() == bits:
            return generate_keypair(p=p, q=q)


@settings(deadline=None, max_examples=25)
@given(
    m=st.integers(min_value=2, max_value=5),
    bits=st.sampled_from([256, 257, 383, 512, 777, 1024]),
    values=st.lists(
        st.tuples(
            st.sampled_from([0, 7, 16, 32]),  # exponent slack ("extra")
            st.sampled_from(["low", "high", "zero", "random"]),
        ),
        min_size=1,
        max_size=14,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_every_slot_unpacks_to_its_own_value(m, bits, values, seed):
    pk, sk = _keypair_of_length(bits)
    rng = random.Random(seed)
    betas = [K + extra for extra, _ in values]
    mask_bits = [beta + KAPPA for beta in betas]
    xs = []
    for beta, (_, kind) in zip(betas, values):
        top = (1 << beta) - 1
        xs.append(
            {"low": -top, "high": top, "zero": 0}.get(kind, rng.randint(-top, top))
        )
    layout = mask_layout(mask_bits, m, pk, packed=True)
    # The layout is a pure function of public numbers: slots in value
    # order, contiguous from bit 0, never past the plaintext capacity.
    assert layout == mask_layout(mask_bits, m, pk, packed=True)
    assert [s.width for s in layout.slots] == [b + m.bit_length() for b in mask_bits]
    for group in range(layout.n_groups):
        shift = 0
        for slot in (s for s in layout.slots if s.group == group):
            assert slot.shift == shift
            shift += slot.width
        assert 0 < shift <= bits - 1
    packed = layout.pack_ciphertexts([pk.encrypt(x) for x in xs], betas)
    assert len(packed) == layout.n_groups
    masks = [(1 << width) - 1 for width in mask_bits]  # all ones, every party
    for _ in range(m):
        mask_cts = [pk.encrypt(p) for p in layout.pack_plaintexts(masks)]
        packed = [a + b for a, b in zip(packed, mask_cts)]
    plains = [sk.raw_decrypt(ct.raw) for ct in packed]  # unsigned
    assert layout.unpack(plains, betas, pk) == [
        x + m * mask for x, mask in zip(xs, masks)
    ]


def test_default_parameters_pack_six_statistics_or_twelve_rows():
    conversion = slot_layout([K + KAPPA] * 13, 512, carry_bits=(3).bit_length())
    assert [s.group for s in conversion.slots] == [0] * 6 + [1] * 6 + [2]
    prediction = slot_layout([K + 1] * 25, 512)
    assert prediction.n_groups == 3 and prediction.slots[12].group == 1
    assert slot_layout([K + KAPPA] * 24, 1024, carry_bits=2).n_groups == 2


@settings(deadline=None, max_examples=10)
@given(xs=st.lists(st.integers(-(2**60), 2**60), min_size=1, max_size=5))
def test_undeclared_bound_gets_its_own_ciphertext(keypair, xs):
    pk, sk = keypair
    widths = [K + KAPPA] * len(xs)
    layout = slot_layout(widths, pk.n.bit_length(), carry_bits=2, packed=False)
    assert layout == whole_layout(len(xs), pk.n.bit_length())
    assert layout.n_groups == len(xs)
    assert [s.group for s in layout.slots] == list(range(len(xs)))
    cts = [pk.encrypt(x) for x in xs]
    # The same three calls as the packed case, and nothing moves: the
    # ciphertexts as they are, one mask each, signed through Z_n.
    assert layout.pack_ciphertexts(cts, []) == cts
    assert layout.pack_plaintexts(widths) == widths
    plains = [sk.raw_decrypt(ct.raw) for ct in cts]
    assert layout.unpack(plains, [], pk) == xs


@pytest.mark.parametrize("packed", [True, False])
@pytest.mark.parametrize("width", [0, -3, 255 - 2 + 1, 10**9, 80.0, b"80", [80]])
def test_bad_widths_raise_before_anything_is_sized(width, packed):
    with pytest.raises(PackingError):
        slot_layout([80, width], 256, carry_bits=2, packed=packed)


def test_widest_slot_that_fits_is_accepted():
    layout = slot_layout([253], 256, carry_bits=2)
    assert layout.slots[0].width == 255 and layout.n_groups == 1


def test_value_wider_than_its_slot_raises(keypair):
    pk, _ = keypair
    layout = slot_layout([80, 80], 256)
    with pytest.raises(PackingError):
        layout.pack_plaintexts([1 << 80, 0])
    with pytest.raises(PackingError):
        layout.pack_plaintexts([0, -1])
    with pytest.raises(PackingError):  # a declared bound the slot cannot hold
        layout.pack_ciphertexts([pk.encrypt(0), pk.encrypt(0)], [40, 80])
    with pytest.raises(PackingError):  # wrong number of values
        layout.pack_plaintexts([1])


def test_top_slot_overflow_is_detected(keypair):
    pk, _ = keypair
    layout = slot_layout([80, 80], 256)
    ok = (5 + (1 << 40)) | ((9 + (1 << 40)) << 80)
    assert layout.unpack([ok], [40, 40], pk) == [5, 9]
    with pytest.raises(PackingError, match="overflowed"):
        layout.unpack([ok | (1 << 160)], [40, 40], pk)
    with pytest.raises(PackingError):
        layout.unpack([ok, ok], [40, 40], pk)
