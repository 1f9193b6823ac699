from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import PaillierEncoder, generate_threshold_keypair
from repro.mpc import FixedPointOps, MPCEngine
from repro.mpc import comparison as cmp
from repro.mpc import conversion as conv
from repro.mpc.dealer import DealerUsage

K = 40
SIGNED_K = st.integers(min_value=-(2 ** (K - 1)) + 1, max_value=2 ** (K - 1) - 1)

relaxed = settings(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def shared(engine, x):
    return engine._make_shared(engine.field.from_signed(x))


# -- BitLT: the compare inside mod2m ------------------------------------------
#
# Mod2m opens c' = (a + r1) mod 2^m and returns c' − r1 + 2^m·[c' < r1]; the
# bit [c' < r1] is BitLT of the public c' against r1's shared bits.  It
# wraps exactly when a mod 2^m + r1 >= 2^m, so values whose low m bits are
# all 0 never take it (c' == r1: equal values are not less) and values whose
# low bits are all 1 almost always do.


def _edge_values(k, m):
    """0, ±1, ±2^(k−2), and values whose low m bits are all 0 or all 1."""
    top = 2 ** (k - 2)
    low = (1 << m) - 1
    values = {0, 1, -1, top, -top, top - 1, -top + 1}
    for high in (0, 1, -1, 5, -5):
        values |= {high << m, (high << m) | low}
    bound = 2 ** (k - 1)
    return sorted(v for v in values if -bound < v < bound)


@relaxed
@given(
    m=st.sampled_from([1, 2, 17, K - 1]),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=8),
)
def test_bit_lt_public(engine, m, picks):
    """Every value of a batch at a block edge: a mod 2^m, whichever way its
    compare goes."""
    edges = _edge_values(K, m)
    values = [edges[p % len(edges)] for p in picks]
    got = engine.open_many(cmp.mod2m(engine, [shared(engine, a) for a in values], K, m))
    assert got == [a % (1 << m) for a in values]


def test_bit_lt_empty(engine):
    """m = 0: nothing to compare, no dealer material, no round."""
    usage, stats = engine.dealer.usage.snapshot(), engine.stats.snapshot()
    zeros = cmp.mod2m(engine, [shared(engine, 5), shared(engine, -3)], K, 0)
    assert engine.dealer.usage.snapshot() == usage and engine.stats.snapshot() == stats
    assert engine.open_many(zeros) == [0, 0]


def test_bit_lt_equal_values(engine):
    """Low m bits all zero: c' == r1, which is not less, for every value."""
    values = [0, 1 << 7, -(1 << 7), 3 << 7]
    got = engine.open_many(cmp.mod2m(engine, [shared(engine, a) for a in values], K, 7))
    assert got == [0, 0, 0, 0]


def test_bit_lt_public_cost(engine):
    """The compare of a whole batch is ⌈log₂ m⌉ word-ANDs over all its
    lanes and one daBit per value, in one lift: with the masked opening,
    2 + ⌈log₂ m⌉ rounds, no field multiplication, openings accounted at
    their width in bits."""
    from repro.analysis import opcount

    values = [shared(engine, a) for a in (0x123456789A, -5, 7)]
    engine.reset_stats()
    with opcount.counting() as ops:
        cmp.mod2m(engine, values, K + 1, K)
    assert ops["cs"] == 0
    usage = engine.dealer.usage
    assert (usage.prandm, usage.and_triples, usage.dabits, usage.triples) == (3, 6, 3, 0)
    messages = 3 * 2
    field_bytes = engine._element_bytes
    assert engine.stats.snapshot() == {
        "rounds": 8,
        "messages": 8 * messages,
        # 3 masked values; 2·120 lanes per AND; 3 daBit-masked lanes.
        "bytes": messages * (3 * field_bytes + 6 * 30 + 1),
        "opened_values": 3 + 6 * 2 + 1,
    }


# -- mod2m / trunc ------------------------------------------------------------


@relaxed
@given(a=SIGNED_K, m=st.integers(min_value=1, max_value=K - 1))
def test_mod2m(engine, a, m):
    got = engine.open_many(cmp.mod2m(engine, [shared(engine, a)], K, m))
    assert got == [a % (1 << m)]


def test_mod2m_zero_bits(engine):
    assert engine.open_many(cmp.mod2m(engine, [shared(engine, 99)], K, 0)) == [0]


def test_mod2m_m_too_large(engine):
    with pytest.raises(ValueError):
        cmp.mod2m(engine, [shared(engine, 1)], K, K)


def signed(engine, values):
    return [engine.field.to_signed(v) for v in engine.open_many(values)]


@relaxed
@given(a=SIGNED_K, m=st.integers(min_value=1, max_value=K - 1))
def test_trunc_exact_floor(engine, a, m):
    got = signed(engine, cmp.trunc(engine, [shared(engine, a)], K, m))
    assert got == [a >> m]  # arithmetic shift == floor division


def test_trunc_zero_is_identity(engine):
    sv = shared(engine, 77)
    (got,) = cmp.trunc(engine, [sv], K, 0)
    assert got is sv


@relaxed
@given(a=SIGNED_K, m=st.integers(min_value=1, max_value=20))
def test_trunc_pr_within_one_ulp(engine, a, m):
    (got,) = signed(engine, cmp.trunc_pr(engine, [shared(engine, a)], K, m))
    assert got in (a >> m, (a >> m) + 1)


# -- the widths production runs (every lt is m = 40), both models ---------------


@pytest.fixture(
    scope="module",
    params=[(2, False), (3, False), (2, True), (3, True)],
    ids=["2-semi", "3-semi", "2-auth", "3-auth"],
)
def any_engine(request):
    n_parties, authenticated = request.param
    return MPCEngine(n_parties, authenticated=authenticated, seed=77)


def _edge_operands(k):
    top = 2 ** (k - 1) - 1
    return sorted({0, 1, -1, top, -top, top - 1, -top + 1})


@pytest.mark.parametrize("k", [8, 40, 41])
def test_mod2m_trunc_at_edge_widths(any_engine, k):
    engine = any_engine
    widths = sorted({m for m in (1, 2, 3, 31, 32, 33, k - 1) if m < k})
    operands = _edge_operands(k)
    for m in widths:
        shares = [shared(engine, a) for a in operands]
        got = engine.open_many(cmp.mod2m(engine, shares, k, m))
        assert got == [a % (1 << m) for a in operands], m
        assert signed(engine, cmp.trunc(engine, shares, k, m)) == [a >> m for a in operands], m


@pytest.mark.parametrize("k", [8, 40, 41])
def test_sign_and_order_at_edge_operands(any_engine, k):
    engine = any_engine
    operands = _edge_operands(k)
    shares = [shared(engine, a) for a in operands]
    assert engine.open_many(cmp.ltz(engine, shares, k)) == [int(a < 0) for a in operands]
    assert engine.open_many(cmp.eqz(engine, shares, k)) == [int(a == 0) for a in operands]
    pairs = [
        (a, b)
        for a in operands
        for b in sorted({a, a + 1, a - 1, -a})
        if operands[0] <= b <= operands[-1]
    ]
    left = [shared(engine, a) for a, _ in pairs]
    right = [shared(engine, b) for _, b in pairs]
    assert engine.open_many(cmp.lt(engine, left, right, k)) == [int(a < b) for a, b in pairs]
    assert engine.open_many(cmp.le(engine, left, right, k)) == [int(a <= b) for a, b in pairs]


# -- batches: one compare for many values ----------------------------------------


@pytest.fixture(scope="module", params=[False, True], ids=["semi", "auth"])
def batch_engine(request):
    return MPCEngine(3, authenticated=request.param, seed=11)


@pytest.mark.parametrize("count", [0, 1, 2, 300])
@pytest.mark.parametrize("m", [1, 2, 17, K - 1])
@settings(
    deadline=None, max_examples=3, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_mod2m_many_and_ltz_many_equal_plaintext(batch_engine, m, count, data):
    engine = batch_engine
    edges = _edge_values(K, m)
    values = data.draw(st.lists(st.sampled_from(edges), min_size=count, max_size=count))
    shares = [shared(engine, a) for a in values]
    remainders = engine.open_many(cmp.mod2m(engine, shares, K, m))
    assert remainders == [a % (1 << m) for a in values]
    assert engine.open_many(cmp.ltz(engine, shares, K)) == [int(a < 0) for a in values]


def _pairs(values):
    return list(zip(values, values[::-1]))


def _rows(values, width):
    """One row of ``width`` per value: the value and the ones after it."""
    count = len(values)
    return [[values[(j + i) % count] for i in range(width)] for j in range(count)]


@lru_cache(maxsize=None)
def _threshold():
    return generate_threshold_keypair(3, 256)


def _ciphertexts(count):
    encoder = PaillierEncoder(_threshold().public_key)
    return [encoder.encrypt(a - count // 2) for a in range(count)]


# Every interactive primitive as one call on a batch of values: (call, its
# rounds, its AND triples, and per value its Cs, Cc, PRandM tuples and
# daBits).  A Beaver triple is a Cs.  ``argmax`` and ``fx.softmax`` take
# one row per value (of 3 and 2 values), and their material is per row.
CALLS = {
    "engine.mul_many": (lambda e, fx, xs: e.mul_many(_pairs(xs)), 1, 0, (1, 0, 0, 0)),
    "engine.open_many": (lambda e, fx, xs: e.open_many(xs), 1, 0, (0, 0, 0, 0)),
    "engine.input_many": (
        lambda e, fx, xs: e.input_many(list(range(len(xs))), owner=1), 1, 0, (0, 0, 0, 0)
    ),
    "mod2m": (lambda e, fx, xs: cmp.mod2m(e, xs, K, 17), 7, 5, (0, 0, 1, 1)),
    "trunc_pr": (lambda e, fx, xs: cmp.trunc_pr(e, xs, K, 17), 1, 0, (0, 0, 1, 0)),
    "trunc": (lambda e, fx, xs: cmp.trunc(e, xs, K, 17), 7, 5, (0, 0, 1, 1)),
    "ltz": (lambda e, fx, xs: cmp.ltz(e, xs, K), 8, 6, (0, 1, 1, 1)),
    "lt": (lambda e, fx, xs: cmp.lt(e, xs, xs[::-1], K), 8, 6, (0, 1, 1, 1)),
    "gt": (lambda e, fx, xs: cmp.gt(e, xs, xs[::-1], K), 8, 6, (0, 1, 1, 1)),
    "le": (lambda e, fx, xs: cmp.le(e, xs, xs[::-1], K), 8, 6, (0, 1, 1, 1)),
    "eqz": (lambda e, fx, xs: cmp.eqz(e, xs, K), 8, 6, (0, 2, 2, 2)),
    "select": (
        lambda e, fx, xs: cmp.select(e, [e.share_public(1) for _ in xs], xs, xs[::-1]),
        1, 0, (1, 0, 0, 0),
    ),
    "fx.mul": (lambda e, fx, xs: fx.mul(_pairs(xs)), 2, 0, (1, 0, 1, 0)),
    "fx.mul_public": (lambda e, fx, xs: fx.mul_public(xs, 0.5), 1, 0, (0, 0, 1, 0)),
    "fx.gt": (lambda e, fx, xs: fx.gt(xs, xs[::-1]), 8, 6, (0, 1, 1, 1)),
    "fx.ltz": (lambda e, fx, xs: fx.ltz(xs), 8, 6, (0, 1, 1, 1)),
    "fx.eqz": (lambda e, fx, xs: fx.eqz(xs), 8, 6, (0, 2, 2, 2)),
    # Two scan steps, each a gt and one round of 1 + i products per row.
    "argmax": (lambda e, fx, xs: cmp.argmax(e, _rows(xs, 3), K), 18, 12, (5, 2, 2, 2)),
    "fx.exp": (lambda e, fx, xs: fx.exp(xs), 40, 13, (14, 2, 11, 8)),
    "fx.ln": (
        lambda e, fx, xs: fx.ln([e.add_public(x, 1 << 20) for x in xs]),
        38, 19, (7, 0, 8, 7),
    ),
    "fx.softmax": (lambda e, fx, xs: fx.softmax(_rows(xs, 2)), 77, 32, (47, 4, 39, 17)),
    # The conversions: Algorithm 2 charges its mask broadcast and combine
    # once, the reverse conversion an input per party, one opening and its
    # mask exchange.
    "ciphers_to_shares": (
        lambda e, fx, xs: conv.ciphers_to_shares(_ciphertexts(len(xs)), _threshold(), fx),
        1, 0, (0, 0, 0, 0),
    ),
    "share_to_cipher": (
        lambda e, fx, xs: conv.share_to_cipher(xs, _threshold(), fx), 5, 0, (0, 0, 0, 0)
    ),
}


@pytest.mark.parametrize("count", [1, 2, 300])
def test_ltz_many_costs_one_compare_per_call(count):
    """8 rounds and 6 AND triples at k = 40 for any batch; a PRandM tuple,
    a daBit and a Cc per value; no field multiplication."""
    from repro.analysis import opcount

    engine = MPCEngine(3, seed=5)
    values = [shared(engine, a - count // 2) for a in range(count)]
    engine.reset_stats()
    with opcount.counting() as ops:
        cmp.ltz(engine, values, K)
    assert engine.stats.rounds == 8
    assert (ops["cs"], ops["cc"]) == (0, count)
    usage = engine.dealer.usage
    assert (usage.prandm, usage.and_triples, usage.dabits, usage.triples) == (
        count, 6, count, 0,
    )


@pytest.mark.parametrize("primitive", list(CALLS))
def test_one_call_costs_the_same_rounds_at_every_length(primitive):
    """One call is one batch: its rounds and AND triples are the same at
    every length, its Cs, Cc and dealer material grow per value, and an
    empty batch costs no round and no dealer material."""
    from repro.analysis import opcount

    call, rounds, and_triples, per_value = CALLS[primitive]
    engine = MPCEngine(3, seed=5)
    fx = FixedPointOps(engine)
    stats, usage = engine.stats.snapshot(), engine.dealer.usage.snapshot()
    assert call(engine, fx, []) == []
    assert engine.stats.snapshot() == stats and engine.dealer.usage.snapshot() == usage
    for count in (1, 2, 37, 300):
        values = [shared(engine, a - count // 2) for a in range(count)]
        engine.reset_stats()
        engine.dealer.usage = DealerUsage()
        with opcount.counting() as ops:
            call(engine, fx, values)
        used = engine.dealer.usage
        assert (engine.stats.rounds, used.and_triples) == (rounds, and_triples), count
        assert (ops["cs"], ops["cc"], used.prandm, used.dabits) == tuple(
            count * n for n in per_value
        ), count
        assert used.triples == ops["cs"]


def _one_value_mod2m(engine, a, k, m):
    """Mod2m of one value step by step, the way it ran before batches: its
    own PRandM opening, BitLT on the 1-block word, a 1-lane lift."""
    r2s, r1s, r1_bits = engine.dealer.prandms(1, k, m)
    (r2,), (r1,) = engine._values(r2s), engine._values(r1s)
    masked = engine.add_public(a + (r2 * (1 << m)) + r1, 1 << (k - 1))
    (c,) = engine.open_many([masked])
    c_prime = c % (1 << m)
    first_difference = cmp.top_bits(engine, r1_bits ^ c_prime, m)
    (u,) = cmp.lift(engine, (first_difference & (c_prime ^ ((1 << m) - 1))).parity())
    return engine.add_public(-r1 + u * (1 << m), c_prime)


@pytest.mark.parametrize("k, m", [(K + 1, K), (K, K - 1), (K, 1), (8, 3)])
def test_a_batch_of_one_is_the_one_value_protocol(k, m):
    """The same dealer material in the same order, the same shares and the
    same CommStats as the one-value protocol."""
    ours, theirs = MPCEngine(3, seed=21), MPCEngine(3, seed=21)
    for a in (0, 1, -1, 2 ** (k - 2) - 1, -(2 ** (k - 2))):
        (got,) = cmp.mod2m(ours, [shared(ours, a)], k, m)
        expected = _one_value_mod2m(theirs, shared(theirs, a), k, m)
        assert got.shares == expected.shares
    assert ours.stats.snapshot() == theirs.stats.snapshot()
    assert ours.dealer.usage.snapshot() == theirs.dealer.usage.snapshot()
    assert ours.dealer.rng.getstate() == theirs.dealer.rng.getstate()


# -- sign / comparison --------------------------------------------------------


@relaxed
@given(a=SIGNED_K)
def test_ltz(engine, a):
    assert engine.open_many(cmp.ltz(engine, [shared(engine, a)], K)) == [int(a < 0)]


@relaxed
@given(a=SIGNED_K, b=SIGNED_K)
def test_lt_gt_le(engine, a, b):
    sa, sb = [shared(engine, a)], [shared(engine, b)]
    bits = cmp.lt(engine, sa, sb, K) + cmp.gt(engine, sa, sb, K) + cmp.le(engine, sa, sb, K)
    assert engine.open_many(bits) == [int(a < b), int(a > b), int(a <= b)]


@relaxed
@given(a=st.integers(min_value=-100, max_value=100))
def test_eqz(engine, a):
    assert engine.open_many(cmp.eqz(engine, [shared(engine, a)], K)) == [int(a == 0)]


def test_select(engine):
    yes, no = shared(engine, 111), shared(engine, 222)
    one, zero = engine.share_public(1), engine.share_public(0)
    chosen = cmp.select(engine, [one, zero], [yes, yes], [no, no])
    assert engine.open_many(chosen) == [111, 222]


# -- bit decomposition, top bits, back to Z_q ----------------------------------


@relaxed
@given(values=st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=1, max_size=5))
def test_bit_dec(engine, values):
    """Packed decomposition: value j's bits in block j of one word."""
    word = cmp.decompose(engine, [shared(engine, a) for a in values], 16)
    assert word.width == 16 * len(values)
    (opened,) = engine.open_words([word])
    assert [opened >> (16 * j) & 0xFFFF for j in range(len(values))] == values


def test_bit_dec_zero_and_max(engine, auth_engine):
    values = [0, 2**10 - 1, 1, 2**9]
    for eng in (engine, auth_engine):
        word = cmp.decompose(eng, [shared(eng, a) for a in values], 10)
        (opened,) = eng.open_words([word])
        assert [opened >> (10 * j) & 0x3FF for j in range(4)] == values
        assert eng.open_many(cmp.lift(eng, word)) == [opened >> i & 1 for i in range(40)]


def test_top_bits(engine):
    """One-hot of each block's most significant set lane; carries and
    prefixes never cross a block, and an all-zero block stays zero."""
    blocks = [0b00101, 0, 0b11111, 0b10000, 0b00001]
    packed = sum(b << (5 * j) for j, b in enumerate(blocks))
    top = cmp.top_bits(engine, engine._make_binary(packed, 25), 5)
    (opened,) = engine.open_words([top])
    expected = [0 if b == 0 else 1 << (b.bit_length() - 1) for b in blocks]
    assert [opened >> (5 * j) & 0x1F for j in range(5)] == expected


@relaxed
@given(values=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=4))
def test_to_arithmetic(engine, values):
    packed = sum(v << (8 * j) for j, v in enumerate(values))
    word = engine._make_binary(packed, 8 * len(values))
    assert engine.open_many(cmp.to_arithmetic(engine, word, 8)) == values


# -- argmax -----------------------------------------------------------------------


@relaxed
@given(
    values=st.lists(
        st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=6
    )
)
def test_argmax(engine, values):
    shared_vals = [shared(engine, v) for v in values]
    ((idx, mx, onehot),) = cmp.argmax(engine, [shared_vals], K)
    expected_idx = values.index(max(values))  # first maximum wins ties
    opened_idx, opened_max, *opened = engine.open_many([idx, mx, *onehot])
    assert opened_idx == expected_idx
    assert engine.field.to_signed(opened_max) == max(values)
    assert opened == [int(i == expected_idx) for i in range(len(values))]


def test_argmax_empty_rejected(engine):
    assert cmp.argmax(engine, [], K) == []  # no rows: nothing to do
    with pytest.raises(ValueError):
        cmp.argmax(engine, [[]], K)
    with pytest.raises(ValueError, match="differ in length"):
        cmp.argmax(engine, [[shared(engine, 1)], []], K)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.lists(
        st.lists(st.integers(-8, 8), min_size=4, max_size=4), min_size=1, max_size=5
    )
)
def test_argmax_of_rows_is_each_row_alone(engine, rows):
    """Every row's (index, max, one-hot) in one call equals the row alone;
    ties go to the earliest index in each row."""
    shared_rows = [[shared(engine, v) for v in row] for row in rows]
    batch = cmp.argmax(engine, shared_rows, K)
    alone = [cmp.argmax(engine, [row], K)[0] for row in shared_rows]
    for row, got, want in zip(rows, batch, alone):
        opened = engine.open_many([got[0], got[1], *got[2]])
        assert opened == engine.open_many([want[0], want[1], *want[2]])
        best = row.index(max(row))
        assert opened[0] == best and engine.field.to_signed(opened[1]) == max(row)


def test_authenticated_comparisons(auth_engine):
    sa = auth_engine._make_shared(auth_engine.field.from_signed(-3))
    sb = auth_engine._make_shared(5)
    bits = cmp.lt(auth_engine, [sa], [sb], K) + cmp.ltz(auth_engine, [sa], K)
    assert auth_engine.open_many(bits) == [1, 1]
