import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpc import MacCheckError, MPCEngine, PrimeField, SharedValue
from repro.mpc import comparison as cmp
from repro.mpc.binary import BinaryWord, concat

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
    assert engine.open_many([engine.share_public(42)]) == [42]


def test_open_signed(engine):
    sv = engine.share_public(engine.field.from_signed(-5))
    assert [engine.field.to_signed(v) for v in engine.open_many([sv])] == [-5]


@relaxed
@given(x=SIGNED, y=SIGNED)
def test_addition(engine, x, y):
    f = engine.field
    a = engine._make_shared(f.from_signed(x))
    b = engine._make_shared(f.from_signed(y))
    opened = engine.open_many([a + b, a - b, -a])
    assert [f.to_signed(v) for v in opened] == [x + y, x - y, -x]


@relaxed
@given(x=SIGNED, k=st.integers(min_value=-1000, max_value=1000))
def test_public_scaling_and_addition(engine, x, k):
    f = engine.field
    a = engine._make_shared(f.from_signed(x))
    opened = engine.open_many([a * k, a + f.from_signed(k), k - a])
    assert [f.to_signed(v) for v in opened] == [x * k, x + k, k - x]


@relaxed
@given(x=st.integers(min_value=-(2**40), max_value=2**40), y=st.integers(min_value=-(2**40), max_value=2**40))
def test_beaver_multiplication(engine, x, y):
    f = engine.field
    a = engine._make_shared(f.from_signed(x))
    b = engine._make_shared(f.from_signed(y))
    (product,) = engine.open_many(engine.mul_many([(a, b)]))
    assert f.to_signed(product) == x * y
    # The one scalar wrapper left, kept for the e2e probe, is a batch of one.
    (product,) = engine.open_many([engine.mul(a, b)])
    assert f.to_signed(product) == x * y


def test_shared_times_shared_raises(engine):
    """A product of two shared values is interactive: it goes into a
    ``mul_many`` batch, never through a hidden round behind ``*``."""
    a, b = engine._make_shared(2), engine._make_shared(3)
    stats, usage = engine.stats.snapshot(), engine.dealer.usage.snapshot()
    with pytest.raises(TypeError):
        _ = a * b
    assert engine.stats.snapshot() == stats
    assert engine.dealer.usage.snapshot() == usage


def test_mul_many_batches_one_round(engine):
    f = engine.field
    pairs = [
        (engine._make_shared(i), engine._make_shared(i + 1)) for i in range(5)
    ]
    rounds_before = engine.stats.rounds
    results = engine.mul_many(pairs)
    assert engine.stats.rounds == rounds_before + 1
    assert engine.open_many(results) == [i * (i + 1) for i in range(5)]


def test_inner_product(engine):
    xs = [engine._make_shared(v) for v in (1, 2, 3)]
    ys = [engine._make_shared(v) for v in (4, 5, 6)]
    assert engine.open_many([engine.inner_product(xs, ys)]) == [32]


def test_inner_product_empty(engine):
    assert engine.open_many([engine.inner_product([], [])]) == [0]


def test_inner_product_length_mismatch(engine):
    with pytest.raises(ValueError):
        engine.inner_product([engine.share_public(1)], [])


def test_sum_values(engine):
    vals = [engine._make_shared(v) for v in (10, 20, 30)]
    assert engine.open_many([engine.sum_values(vals), engine.sum_values([])]) == [60, 0]


def test_input_private_owner_validation(engine):
    with pytest.raises(ValueError):
        engine.input_many([1], owner=5)
    assert engine.open_many(engine.input_many([77], owner=2)) == [77]


def test_input_many(engine):
    values = engine.input_many([1, 2, 3], owner=0)
    assert engine.open_many(values) == [1, 2, 3]


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
        engine2.open_many([a])


# -- authenticated (SPDZ MAC) mode -------------------------------------------


def test_authenticated_open(auth_engine):
    sv = auth_engine._make_shared(123)
    assert sv.macs is not None
    assert auth_engine.open_many([sv]) == [123]


def test_authenticated_arithmetic_preserves_macs(auth_engine):
    a = auth_engine._make_shared(10)
    b = auth_engine._make_shared(20)
    c = (a + b) * 3 - 15
    assert c.macs is not None
    assert auth_engine.open_many([c]) == [75]


def test_authenticated_mul(auth_engine):
    a = auth_engine._make_shared(6)
    b = auth_engine._make_shared(7)
    assert auth_engine.open_many(auth_engine.mul_many([(a, b)])) == [42]


def test_tampered_share_detected(auth_engine):
    sv = auth_engine._make_shared(5)
    bad_shares = list(sv.shares)
    bad_shares[1] = (bad_shares[1] + 1) % auth_engine.field.q
    with pytest.raises(MacCheckError):
        auth_engine.open_many([SharedValue(auth_engine, tuple(bad_shares), sv.macs)])


def test_tampered_mac_detected(auth_engine):
    sv = auth_engine._make_shared(5)
    bad_macs = list(sv.macs)
    bad_macs[0] = (bad_macs[0] + 1) % auth_engine.field.q
    with pytest.raises(MacCheckError):
        auth_engine.open_many([SharedValue(auth_engine, sv.shares, tuple(bad_macs))])


def test_unauthenticated_share_rejected_in_auth_mode(auth_engine):
    sv = SharedValue(auth_engine, auth_engine._make_shared(5).shares, None)
    with pytest.raises(MacCheckError):
        auth_engine.open_many([sv])


def test_comm_accounting(engine):
    engine.reset_stats()
    a = engine._make_shared(1)
    b = engine._make_shared(2)
    engine.mul_many([(a, b)])  # one batched open round
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
        [wx ^ wy, wx ^ mask, wx >> shift, wx & mask, wx.parity(), eng.and_words(wx, wy),
         wx << shift, wx.narrow(17), wx.reverse_blocks(8), concat([wx, wy]),
         wx.parity(8), wx.parity(5), wx.parity(1)]
    )
    reversed_blocks = sum(
        int(format(x >> (8 * j) & 0xFF, "08b")[::-1], 2) << (8 * j) for j in range(5)
    )

    def block_parities(block):
        low = (1 << block) - 1
        return sum(((x >> block * j & low).bit_count() & 1) << j for j in range(40 // block))

    assert opened == [
        x ^ y, x ^ mask, x >> shift, x & mask, x.bit_count() & 1, x & y,
        x << shift & (2**40 - 1), x & (2**17 - 1), reversed_blocks, x | y << 40,
        block_parities(8), block_parities(5), x,
    ]


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
    with pytest.raises(MacCheckError):
        auth_engine.open_words([_flip_lane(word, party=0, lane=29).parity(8)])
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
    deal = auth_engine.dealer.dabits

    def tampered(count):
        word, arithmetic = deal(count)
        return _flip_lane(word, party=1, lane=0), arithmetic

    monkeypatch.setattr(auth_engine.dealer, "dabits", tampered)
    with pytest.raises(MacCheckError):
        cmp.ltz(auth_engine, [auth_engine._make_shared(5)], 40)


def test_tampered_prandm_word_detected(auth_engine, monkeypatch):
    deal = auth_engine.dealer.prandms

    def tampered(count, k, m, with_bits=True):
        r2s, r1s, r1_bits = deal(count, k, m, with_bits)
        return r2s, r1s, _flip_lane(r1_bits, party=0, lane=m - 1)

    monkeypatch.setattr(auth_engine.dealer, "prandms", tampered)
    with pytest.raises(MacCheckError):
        cmp.ltz(auth_engine, [auth_engine._make_shared(5)], 40)


def test_tampered_prandm_word_detected_in_a_batch(auth_engine, monkeypatch):
    """One value's r1 bits flipped among many: caught through the concat,
    the per-block parity and the lift of the whole batch."""
    deal = auth_engine.dealer.prandms

    def tampered(count, k, m, with_bits=True):
        r2s, r1s, r1_bits = deal(count, k, m, with_bits)
        # The third value's block of the batch's r1 word.
        return r2s, r1s, _flip_lane(r1_bits, party=1, lane=2 * m + m // 2)

    monkeypatch.setattr(auth_engine.dealer, "prandms", tampered)
    values = [auth_engine._make_shared(v) for v in range(5)]
    with pytest.raises(MacCheckError):
        cmp.ltz(auth_engine, values, 40)


@pytest.mark.parametrize("which", ["engine", "auth_engine"])
def test_empty_batches_cost_nothing(request, which):
    """No values, no round: an empty input, opening, multiplication or
    comparison leaves the counters and the dealer as they were."""
    eng = request.getfixturevalue(which)
    stats, usage = eng.stats.snapshot(), eng.dealer.usage.snapshot()
    assert eng.input_many([], owner=1) == []
    assert eng.open_many([]) == []
    assert eng.mul_many([]) == []
    assert cmp.ltz(eng, [], 40) == []
    assert cmp.mod2m(eng, [], 40, 39) == []
    assert eng.stats.snapshot() == stats
    assert eng.dealer.usage.snapshot() == usage


def test_semi_honest_binary_material_carries_no_macs(engine):
    dealer = engine.dealer
    words = [
        *dealer.and_triple(40),
        dealer.dabits(3)[0],
        dealer.prandms(1, 40, 12)[2],
        dealer.edabits(2, 24, engine.kappa)[1],
    ]
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
    assert engine._field_draws(engine.dealer.rng, 3) == [
        dealer_reference.randrange(q) for _ in range(3)
    ]
    # A batch drops a draw at or above q and draws on, exactly as randrange
    # does: in a field of 251 elements one 8-bit draw in 51 is refused.
    small = MPCEngine(3, field=PrimeField(251))
    batch, reference = random.Random(3), random.Random(3)
    assert small._field_draws(batch, 2000) == [reference.randrange(251) for _ in range(2000)]
    assert batch.getstate() == reference.getstate()


@pytest.mark.parametrize("authenticated", [False, True])
def test_dealer_shares_only_the_bits_its_caller_reads(authenticated):
    engine = MPCEngine(3, authenticated=authenticated, seed=5)
    dealer = engine.dealer
    _, r1s, r1_bits = dealer.prandms(1, 80, 32, with_bits=False)
    assert r1_bits is None
    (r1,) = engine.open_many(engine._values(r1s))
    assert r1 < 1 << 32
    _, r1s, r1_bits = dealer.prandms(1, 40, 12)
    assert r1_bits.width == 12
    assert engine.open_words([r1_bits]) == engine.open_many(engine._values(r1s))
    # edaBits: r_j below 2^(24+κ) in Z_q, its low 24 bits in block j.
    masks, packed = dealer.edabits(3, 24, engine.kappa)
    assert packed.width == 3 * 24
    (word,) = engine.open_words([packed])
    for j, r in enumerate(engine.open_many(engine._values(masks))):
        assert r < 1 << (24 + engine.kappa)
        assert word >> (24 * j) & ((1 << 24) - 1) == r % (1 << 24)
    # One tuple is one tuple, with or without its bits; one edaBit per value.
    assert dealer.usage.snapshot() == {
        "triples": 0, "bits": 0, "prandm": 2, "edabits": 3,
        "and_triples": 0, "dabits": 0,
    }
    dealer.and_triple(40)
    word, arithmetic = dealer.dabits(5)
    (opened,) = engine.open_words([word])
    assert [opened >> i & 1 for i in range(5)] == engine.open_many(engine._values(arithmetic))
    assert dealer.usage.snapshot() == {
        "triples": 0, "bits": 0, "prandm": 2, "edabits": 3,
        "and_triples": 1, "dabits": 5,
    }
    assert dealer.usage.total() == 11
