import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpc import MacCheckError, MPCEngine, SharedValue
from repro.mpc import comparison as cmp
from repro.mpc.binary import BinaryWord

SIGNED = st.integers(min_value=-(2**62), max_value=2**62)

relaxed = settings(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def test_rejects_single_party():
    with pytest.raises(ValueError):
        MPCEngine(1)


def test_share_public_and_open(engine):
    assert engine.open(engine.share_public(42)) == 42


def test_open_signed(engine):
    sv = engine.share_public(engine.field.from_signed(-5))
    assert engine.open_signed(sv) == -5


@relaxed
@given(x=SIGNED, y=SIGNED)
def test_addition(engine, x, y):
    f = engine.field
    a = engine._make_shared(f.from_signed(x))
    b = engine._make_shared(f.from_signed(y))
    assert f.to_signed(engine.open(a + b)) == x + y
    assert f.to_signed(engine.open(a - b)) == x - y
    assert f.to_signed(engine.open(-a)) == -x


@relaxed
@given(x=SIGNED, k=st.integers(min_value=-1000, max_value=1000))
def test_public_scaling_and_addition(engine, x, k):
    f = engine.field
    a = engine._make_shared(f.from_signed(x))
    assert f.to_signed(engine.open(a * k)) == x * k
    assert f.to_signed(engine.open(a + f.from_signed(k))) == x + k
    assert f.to_signed(engine.open(k - a)) == k - x


@relaxed
@given(x=st.integers(min_value=-(2**40), max_value=2**40), y=st.integers(min_value=-(2**40), max_value=2**40))
def test_beaver_multiplication(engine, x, y):
    f = engine.field
    a = engine._make_shared(f.from_signed(x))
    b = engine._make_shared(f.from_signed(y))
    assert f.to_signed(engine.open(engine.mul(a, b))) == x * y


def test_mul_many_batches_one_round(engine):
    f = engine.field
    pairs = [
        (engine._make_shared(i), engine._make_shared(i + 1)) for i in range(5)
    ]
    rounds_before = engine.stats.rounds
    results = engine.mul_many(pairs)
    assert engine.stats.rounds == rounds_before + 1
    assert [engine.open(r) for r in results] == [i * (i + 1) for i in range(5)]


def test_inner_product(engine):
    xs = [engine._make_shared(v) for v in (1, 2, 3)]
    ys = [engine._make_shared(v) for v in (4, 5, 6)]
    assert engine.open(engine.inner_product(xs, ys)) == 32


def test_inner_product_empty(engine):
    assert engine.open(engine.inner_product([], [])) == 0


def test_inner_product_length_mismatch(engine):
    with pytest.raises(ValueError):
        engine.inner_product([engine.share_public(1)], [])


def test_sum_values(engine):
    vals = [engine._make_shared(v) for v in (10, 20, 30)]
    assert engine.open(engine.sum_values(vals)) == 60
    assert engine.open(engine.sum_values([])) == 0


def test_input_private_owner_validation(engine):
    with pytest.raises(ValueError):
        engine.input_private(1, owner=5)
    sv = engine.input_private(77, owner=2)
    assert engine.open(sv) == 77


def test_input_many(engine):
    values = engine.input_many([1, 2, 3], owner=0)
    assert [engine.open(v) for v in values] == [1, 2, 3]


def test_shares_look_random(engine):
    """No single party's share equals the secret (overwhelmingly likely)."""
    sv = engine._make_shared(42)
    assert any(s != 42 for s in sv.shares)
    assert sum(sv.shares) % engine.field.q == 42


def test_cross_engine_operations_rejected(engine, engine2):
    a = engine.share_public(1)
    b = engine2.share_public(1)
    with pytest.raises(ValueError):
        _ = a + b
    with pytest.raises(ValueError):
        engine2.open(a)


# -- authenticated (SPDZ MAC) mode -------------------------------------------


def test_authenticated_open(auth_engine):
    sv = auth_engine._make_shared(123)
    assert sv.macs is not None
    assert auth_engine.open(sv) == 123


def test_authenticated_arithmetic_preserves_macs(auth_engine):
    a = auth_engine._make_shared(10)
    b = auth_engine._make_shared(20)
    c = (a + b) * 3 - 15
    assert c.macs is not None
    assert auth_engine.open(c) == 75


def test_authenticated_mul(auth_engine):
    a = auth_engine._make_shared(6)
    b = auth_engine._make_shared(7)
    assert auth_engine.open(auth_engine.mul(a, b)) == 42


def test_tampered_share_detected(auth_engine):
    sv = auth_engine._make_shared(5)
    bad_shares = list(sv.shares)
    bad_shares[1] = (bad_shares[1] + 1) % auth_engine.field.q
    with pytest.raises(MacCheckError):
        auth_engine.open(SharedValue(auth_engine, tuple(bad_shares), sv.macs))


def test_tampered_mac_detected(auth_engine):
    sv = auth_engine._make_shared(5)
    bad_macs = list(sv.macs)
    bad_macs[0] = (bad_macs[0] + 1) % auth_engine.field.q
    with pytest.raises(MacCheckError):
        auth_engine.open(SharedValue(auth_engine, sv.shares, tuple(bad_macs)))


def test_unauthenticated_share_rejected_in_auth_mode(auth_engine):
    sv = SharedValue(auth_engine, auth_engine._make_shared(5).shares, None)
    with pytest.raises(MacCheckError):
        auth_engine.open(sv)


def test_comm_accounting(engine):
    engine.reset_stats()
    a = engine._make_shared(1)
    b = engine._make_shared(2)
    engine.mul(a, b)  # one batched open round
    assert engine.stats.rounds == 1
    assert engine.stats.opened_values == 2
    assert engine.stats.bytes > 0


# -- the binary domain: XOR-shared words ---------------------------------------

WORD = st.integers(min_value=0, max_value=2**40 - 1)


@relaxed
@given(x=WORD, y=WORD, mask=WORD, shift=st.integers(min_value=0, max_value=41))
@pytest.mark.parametrize("which", ["engine", "auth_engine"])
def test_binary_word_algebra(request, which, x, y, mask, shift):
    """Local operations and the Beaver AND open to the plain bit operations,
    MACs following along in the authenticated engine."""
    eng = request.getfixturevalue(which)
    wx, wy = eng._make_binary(x, 40), eng._make_binary(y, 40)
    assert (wx.macs is not None) == eng.authenticated
    opened = eng.open_words(
        [wx ^ wy, wx ^ mask, wx >> shift, wx & mask, wx.parity(), eng.and_words(wx, wy)]
    )
    assert opened == [x ^ y, x ^ mask, x >> shift, x & mask, x.bit_count() & 1, x & y]


def test_binary_words_reject_foreign_engines_and_widths(engine, engine2):
    mine, theirs = engine._make_binary(5, 8), engine2._make_binary(5, 8)
    with pytest.raises(ValueError):
        _ = mine ^ theirs
    with pytest.raises(ValueError):
        engine.and_words(mine, theirs)
    with pytest.raises(ValueError):
        engine2.open_words([mine])
    with pytest.raises(ValueError):
        _ = mine ^ engine._make_binary(5, 9)
    with pytest.raises(ValueError):
        _ = mine ^ 0x100  # a public word wider than the lanes
    with pytest.raises(ValueError):
        _ = mine & -1
    with pytest.raises(ValueError):
        engine._make_binary(0x100, 8)


def test_binary_opening_is_accounted_in_bits(engine):
    engine.reset_stats()
    engine.open_words([engine._make_binary(1, 40), engine._make_binary(1, 1)])
    assert engine.stats.snapshot() == {
        "rounds": 1, "messages": 6, "bytes": 6 * 6, "opened_values": 2,
    }
    assert engine.open_words([]) == []
    assert engine.stats.rounds == 1


def _flip_lane(word, party, lane):
    shares = list(word.shares)
    shares[party] ^= 1 << lane
    return BinaryWord(word.engine, word.width, tuple(shares), word.macs)


def test_tampered_binary_share_detected(auth_engine):
    word = auth_engine._make_binary(0b1011, 40)
    assert auth_engine.open_words([word]) == [0b1011]
    with pytest.raises(MacCheckError):
        auth_engine.open_words([_flip_lane(word, party=1, lane=17)])
    # A tampered lane survives local operations up to the next opening.
    with pytest.raises(MacCheckError):
        auth_engine.open_words([(_flip_lane(word, party=2, lane=3) >> 2).parity()])
    bad_macs = (word.macs[0] ^ 1,) + word.macs[1:]
    with pytest.raises(MacCheckError):
        auth_engine.open_words([BinaryWord(auth_engine, 40, word.shares, bad_macs)])
    with pytest.raises(MacCheckError):
        auth_engine.open_words([BinaryWord(auth_engine, 40, word.shares, None)])


@pytest.mark.parametrize("position", [0, 1, 2])
def test_tampered_and_triple_detected(auth_engine, monkeypatch, position):
    deal = auth_engine.dealer.and_triple

    def tampered(width):
        triple = list(deal(width))
        triple[position] = _flip_lane(triple[position], party=0, lane=width - 1)
        return tuple(triple)

    monkeypatch.setattr(auth_engine.dealer, "and_triple", tampered)
    x, y = auth_engine._make_binary(0b1100, 4), auth_engine._make_binary(0b1010, 4)
    with pytest.raises(MacCheckError):
        # a, b are caught masking x, y; c at the opening of the product.
        auth_engine.open_words([auth_engine.and_words(x, y)])


def test_tampered_dabit_detected(auth_engine, monkeypatch):
    deal = auth_engine.dealer.dabit

    def tampered():
        word, arithmetic = deal()
        return _flip_lane(word, party=1, lane=0), arithmetic

    monkeypatch.setattr(auth_engine.dealer, "dabit", tampered)
    with pytest.raises(MacCheckError):
        cmp.ltz(auth_engine, auth_engine._make_shared(5), 40)


def test_tampered_prandm_word_detected(auth_engine, monkeypatch):
    deal = auth_engine.dealer.prandm

    def tampered(k, m, with_bits=True):
        tup = deal(k, m, with_bits)
        tup.r1_bits = _flip_lane(tup.r1_bits, party=0, lane=m - 1)
        return tup

    monkeypatch.setattr(auth_engine.dealer, "prandm", tampered)
    with pytest.raises(MacCheckError):
        cmp.ltz(auth_engine, auth_engine._make_shared(5), 40)


def test_semi_honest_binary_material_carries_no_macs(engine):
    dealer = engine.dealer
    words = [*dealer.and_triple(40), dealer.dabit()[0], dealer.prandm(40, 12).r1_bits]
    assert all(word.macs is None for word in words)
    assert engine._make_binary(3, 2).macs is None


# -- dealer: only the sharings a protocol reads, and the seeded stream --------


def test_sharing_randomness_is_the_randrange_stream():
    """The inlined rejection loop draws what ``randrange(q)`` would."""
    engine = MPCEngine(3, seed=11)
    reference = random.Random(11)
    q = engine.field.q
    for value in range(200):
        expected = [reference.randrange(q) for _ in range(2)]
        assert list(engine._make_shared(value).shares[:2]) == expected
    dealer_reference = random.Random(12)  # the dealer is seeded seed + 1
    assert engine.dealer._rand_field() == dealer_reference.randrange(q)


@pytest.mark.parametrize("authenticated", [False, True])
def test_dealer_shares_only_the_bits_its_caller_reads(authenticated):
    engine = MPCEngine(3, authenticated=authenticated, seed=5)
    dealer = engine.dealer
    for_trunc = dealer.prandm(80, 32, with_bits=False)
    assert for_trunc.r1_bits is None
    assert engine.open(for_trunc.r1) < 1 << 32
    for_mod2m = dealer.prandm(40, 12)
    assert for_mod2m.r1_bits.width == 12
    assert engine.open_words([for_mod2m.r1_bits]) == [engine.open(for_mod2m.r1)]
    bitwise = dealer.bitwise_random(24 + engine.kappa, low_bits=24)
    low = [engine.open(bit) for bit in bitwise.bits]
    assert len(low) == 24
    assert sum(bit << i for i, bit in enumerate(low)) == engine.open(bitwise.r) % (1 << 24)
    # One tuple is one tuple, with or without its bitwise part.
    assert dealer.usage.snapshot() == {
        "triples": 0, "bits": 0, "prandm": 2, "bitwise": 1, "randoms": 0,
        "and_triples": 0, "dabits": 0,
    }
    dealer.and_triple(40)
    word, arithmetic = dealer.dabit()
    assert engine.open_words([word]) == [engine.open(arithmetic)]
    assert dealer.usage.snapshot() == {
        "triples": 0, "bits": 0, "prandm": 2, "bitwise": 1, "randoms": 0,
        "and_triples": 1, "dabits": 1,
    }
    assert dealer.usage.total() == 5
