import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mpc import MPCEngine
from repro.mpc import comparison as cmp

K = 40
SIGNED_K = st.integers(min_value=-(2 ** (K - 1)) + 1, max_value=2 ** (K - 1) - 1)

relaxed = settings(
    deadline=None,
    max_examples=15,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def shared(engine, x):
    return engine._make_shared(engine.field.from_signed(x))


# -- bit_lt_public ------------------------------------------------------------


@relaxed
@given(c=st.integers(min_value=0, max_value=255), r=st.integers(min_value=0, max_value=255))
def test_bit_lt_public(engine, c, r):
    r_bits = engine._make_binary(r, 8)
    got = engine.open(cmp.bit_lt_public(engine, c, r_bits))
    assert got == (1 if c < r else 0)


def test_bit_lt_empty(engine):
    assert engine.open(cmp.bit_lt_public(engine, 0, engine._make_binary(0, 0))) == 0


def test_bit_lt_equal_values(engine):
    r_bits = engine._make_binary(0b101, 3)
    assert engine.open(cmp.bit_lt_public(engine, 0b101, r_bits)) == 0


def test_bit_lt_public_cost(engine):
    """⌈log₂ m⌉ word-ANDs and one daBit: that many + 1 rounds, no field
    multiplication, openings accounted at their width in bits."""
    from repro.analysis import opcount

    r_bits = engine._make_binary(0x5A5A5A5A5A, 40)
    engine.reset_stats()
    with opcount.counting() as ops:
        cmp.bit_lt_public(engine, 0x123456789A, r_bits)
    assert ops["cs"] == 0
    usage = engine.dealer.usage
    assert (usage.and_triples, usage.dabits, usage.triples) == (6, 1, 0)
    messages = 3 * 2
    assert engine.stats.snapshot() == {
        "rounds": 7,
        "messages": 7 * messages,
        "bytes": messages * (6 * 10 + 1),  # 2·40 lanes per AND, 1 for the daBit
        "opened_values": 6 * 2 + 1,
    }


# -- mod2m / trunc ------------------------------------------------------------


@relaxed
@given(a=SIGNED_K, m=st.integers(min_value=1, max_value=K - 1))
def test_mod2m(engine, a, m):
    got = engine.open(cmp.mod2m(engine, shared(engine, a), K, m))
    assert got == a % (1 << m)


def test_mod2m_zero_bits(engine):
    assert engine.open(cmp.mod2m(engine, shared(engine, 99), K, 0)) == 0


def test_mod2m_m_too_large(engine):
    with pytest.raises(ValueError):
        cmp.mod2m(engine, shared(engine, 1), K, K)


@relaxed
@given(a=SIGNED_K, m=st.integers(min_value=1, max_value=K - 1))
def test_trunc_exact_floor(engine, a, m):
    got = engine.field.to_signed(engine.open(cmp.trunc(engine, shared(engine, a), K, m)))
    assert got == a >> m  # arithmetic shift == floor division


def test_trunc_zero_is_identity(engine):
    sv = shared(engine, 77)
    assert cmp.trunc(engine, sv, K, 0) is sv


@relaxed
@given(a=SIGNED_K, m=st.integers(min_value=1, max_value=20))
def test_trunc_pr_within_one_ulp(engine, a, m):
    got = engine.field.to_signed(
        engine.open(cmp.trunc_pr(engine, shared(engine, a), K, m))
    )
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
    for m in widths:
        for a in _edge_operands(k):
            sa = shared(engine, a)
            assert engine.open(cmp.mod2m(engine, sa, k, m)) == a % (1 << m), (m, a)
            got = engine.field.to_signed(engine.open(cmp.trunc(engine, sa, k, m)))
            assert got == a >> m, (m, a)


@pytest.mark.parametrize("k", [8, 40, 41])
def test_sign_and_order_at_edge_operands(any_engine, k):
    engine = any_engine
    operands = _edge_operands(k)
    for a in operands:
        sa = shared(engine, a)
        assert engine.open(cmp.ltz(engine, sa, k)) == int(a < 0), a
        assert engine.open(cmp.eqz(engine, sa, k)) == int(a == 0), a
        for b in {a, a + 1, a - 1, -a}:
            if not operands[0] <= b <= operands[-1]:
                continue
            sb = shared(engine, b)
            assert engine.open(cmp.lt(engine, sa, sb, k)) == int(a < b), (a, b)
            assert engine.open(cmp.le(engine, sa, sb, k)) == int(a <= b), (a, b)


# -- sign / comparison --------------------------------------------------------


@relaxed
@given(a=SIGNED_K)
def test_ltz(engine, a):
    assert engine.open(cmp.ltz(engine, shared(engine, a), K)) == (1 if a < 0 else 0)


@relaxed
@given(a=SIGNED_K, b=SIGNED_K)
def test_lt_gt_le(engine, a, b):
    sa, sb = shared(engine, a), shared(engine, b)
    assert engine.open(cmp.lt(engine, sa, sb, K)) == int(a < b)
    assert engine.open(cmp.gt(engine, sa, sb, K)) == int(a > b)
    assert engine.open(cmp.le(engine, sa, sb, K)) == int(a <= b)


@relaxed
@given(a=st.integers(min_value=-100, max_value=100))
def test_eqz(engine, a):
    assert engine.open(cmp.eqz(engine, shared(engine, a), K)) == int(a == 0)


@relaxed
@given(a=SIGNED_K, b=SIGNED_K)
def test_eq(engine, a, b):
    sa, sb = shared(engine, a), shared(engine, b)
    assert engine.open(cmp.eq(engine, sa, sb, K)) == int(a == b)


def test_select(engine):
    yes, no = shared(engine, 111), shared(engine, 222)
    one, zero = engine.share_public(1), engine.share_public(0)
    assert engine.open(cmp.select(engine, one, yes, no)) == 111
    assert engine.open(cmp.select(engine, zero, yes, no)) == 222


# -- bit decomposition ---------------------------------------------------------


@relaxed
@given(a=st.integers(min_value=0, max_value=2**16 - 1))
def test_bit_dec(engine, a):
    bits = cmp.bit_dec(engine, shared(engine, a), 16)
    got = sum(engine.open(b) << i for i, b in enumerate(bits))
    assert got == a


def test_bit_dec_zero_and_max(engine):
    for a in (0, 2**10 - 1):
        bits = cmp.bit_dec(engine, shared(engine, a), 10)
        assert sum(engine.open(b) << i for i, b in enumerate(bits)) == a


# -- prefix OR / argmax ---------------------------------------------------------


def test_prefix_or(engine):
    bits = [shared(engine, b) for b in (0, 0, 1, 0, 1)]
    prefix = cmp.prefix_or_msb_first(engine, bits)
    assert [engine.open(p) for p in prefix] == [0, 0, 1, 1, 1]


@relaxed
@given(
    values=st.lists(
        st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=6
    )
)
def test_argmax(engine, values):
    shared_vals = [shared(engine, v) for v in values]
    idx, mx, onehot = cmp.argmax(engine, shared_vals, K)
    expected_idx = values.index(max(values))  # first maximum wins ties
    assert engine.open(idx) == expected_idx
    assert engine.field.to_signed(engine.open(mx)) == max(values)
    opened = [engine.open(o) for o in onehot]
    assert opened == [int(i == expected_idx) for i in range(len(values))]


def test_argmax_empty_rejected(engine):
    with pytest.raises(ValueError):
        cmp.argmax(engine, [], K)


def test_authenticated_comparisons(auth_engine):
    sa = auth_engine._make_shared(auth_engine.field.from_signed(-3))
    sb = auth_engine._make_shared(5)
    assert auth_engine.open(cmp.lt(auth_engine, sa, sb, K)) == 1
    assert auth_engine.open(cmp.ltz(auth_engine, sa, K)) == 1
