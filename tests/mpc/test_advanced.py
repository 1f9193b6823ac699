import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import opcount
from repro.mpc import FixedPointOps, MPCEngine
from repro.mpc.binary import BinaryWord
from repro.mpc.field import PrimeField
from repro.mpc.sharing import MacCheckError

REALS = st.floats(min_value=-1000, max_value=1000, allow_nan=False)
POSITIVES = st.floats(min_value=0.01, max_value=1000, allow_nan=False)

relaxed = settings(
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def test_rejects_oversized_format():
    engine = MPCEngine(2, field=PrimeField(2**61 - 1), seed=0)
    with pytest.raises(ValueError):
        FixedPointOps(engine, k=40)


def test_encode_decode_roundtrip(fx):
    for v in (0.0, 1.5, -2.25, 1000.0625):
        assert fx.decode(fx.encode(v)) == v


def test_encode_overflow(fx):
    with pytest.raises(OverflowError):
        fx.encode(2.0 ** (fx.k - fx.f))


@relaxed
@given(x=REALS, y=REALS)
def test_fixed_mul(fx, x, y):
    (got,) = fx.open(fx.mul([(fx.share(x), fx.share(y))]))
    # Compare against the product of the *quantized* inputs: encoding
    # rounds each operand to 2^-f resolution, and that representation
    # error (up to |x| * 2^-(f+1)) can exceed the truncation tolerance.
    expected = fx.decode(fx.encode(x)) * fx.decode(fx.encode(y))
    assert math.isclose(got, expected, rel_tol=1e-3, abs_tol=1e-3)


@relaxed
@given(x=REALS, k=st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_mul_public(fx, x, k):
    (got,) = fx.open(fx.mul_public([fx.share(x)], k))
    assert math.isclose(got, x * k, rel_tol=1e-3, abs_tol=1e-2)


# -- normalisation / reciprocal / division -----------------------------------


@relaxed
@given(b=POSITIVES)
def test_norm_scales_into_top_interval(fx, b):
    (c,), _ = fx.norm([fx.share(b)])
    (c_open,) = fx.engine.open_many([c])
    assert (1 << (fx.k - 1)) <= c_open < (1 << fx.k)


def _plain_norm(k, b):
    v = 0 if b == 0 else 1 << (k - b.bit_length())
    return b * v, v


@settings(
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_batched_norm_is_the_plaintext_normalisation(fx, auth_fx, data):
    """For D denominators anywhere in [0, 2^K) — 0, 1, 2^K - 1 and every
    power of two among them — c and v are exactly b·v and 2^(K-1-msb(b)),
    on both engines, and a batch of D opens to what D batches of one do."""
    ops = data.draw(st.sampled_from([fx, auth_fx]))
    engine, k = ops.engine, ops.k
    special = [0, 1, (1 << k) - 1] + [1 << i for i in range(k)]
    count = data.draw(st.sampled_from([1, 2, 25]))
    bs = data.draw(
        st.lists(
            st.sampled_from(special) | st.integers(0, (1 << k) - 1),
            min_size=count,
            max_size=count,
        )
    )
    shared = [engine.share_public(b) for b in bs]
    cs, vs = ops.norm(shared)
    batch = list(zip(engine.open_many(cs), engine.open_many(vs)))
    assert batch == [_plain_norm(k, b) for b in bs]
    singles = []
    for b in shared:
        (c,), (v,) = ops.norm([b])
        singles.append(tuple(engine.open_many([c, v])))
    assert singles == batch


@pytest.mark.parametrize("b", [1, 2**40 - 1], ids=["one", "all-ones"])
def test_norm_openings_are_uniform_lane_by_lane(b):
    """Everything Norm opens is uniform in every lane, whatever b: over 200
    dealer seeds each lane of each binary word, and each of the low K bits
    of each field element (c = b - r + 2^(K+κ), Beaver's d and e), is set
    100 ± 35 times (five standard deviations) for b = 1 and b = 2^K - 1."""
    counts: list[list[int]] | None = None
    for seed in range(200):
        engine = MPCEngine(3, seed=seed)
        ops = FixedPointOps(engine)
        opened: list[tuple[int, int]] = []

        def spy(rows, widths=None, real=engine._open, log=opened, k=ops.k):
            # Every opening goes through the engine's one opening routine.
            result = real(rows, widths)
            if widths is None:
                log.extend((k, v & ((1 << k) - 1)) for v in result)
            else:
                log.extend(zip(widths, result))
            return result

        engine._open = spy
        ops.norm([engine.share_public(b)])
        lanes = [[value >> i & 1 for i in range(width)] for width, value in opened]
        if counts is None:
            counts = lanes
        else:
            assert [len(word) for word in lanes] == [len(word) for word in counts]
            counts = [
                [total + bit for total, bit in zip(acc, word)]
                for acc, word in zip(counts, lanes)
            ]
    assert counts and sum(len(word) for word in counts) > 1000
    for word in counts:
        for total in word:
            assert 65 <= total <= 135


@pytest.mark.parametrize("call", [0, 1], ids=["decompose", "to-arithmetic"])
def test_tampered_packed_share_detected(auth_fx, monkeypatch, call):
    """Flipping one lane of one party's packed edaBit share — in the word
    that decomposes b, or in the one that brings v back to Z_q — fails the
    next MAC check."""
    dealer = auth_fx.engine.dealer
    deal = dealer.edabits
    calls = []

    def tampered(count, lanes, mask_bits=0):
        masks, word = deal(count, lanes, mask_bits)
        if len(calls) == call:
            shares = list(word.shares)
            shares[1] ^= 1 << (lanes + 3)  # the second denominator's block
            word = BinaryWord(word.engine, word.width, tuple(shares), word.macs)
        calls.append(count)
        return masks, word

    monkeypatch.setattr(dealer, "edabits", tampered)
    with pytest.raises(MacCheckError):
        auth_fx.norm([auth_fx.share(3.0), auth_fx.share(40.0)])


@relaxed
@given(b=st.floats(min_value=0.1, max_value=500, allow_nan=False))
def test_app_rcr_error_bound(fx, b):
    (w,) = fx.app_rcr([fx.share(b)])
    assert math.isclose(fx.open([w])[0], 1 / b, rel_tol=0.09, abs_tol=1e-3)


@relaxed
@given(a=REALS, b=st.floats(min_value=0.5, max_value=800, allow_nan=False))
def test_division(fx, a, b):
    got = fx.open([fx.div(fx.share(a), fx.share(b))])[0]
    assert math.isclose(got, a / b, rel_tol=2e-3, abs_tol=2e-3)


def test_division_small_denominator(fx):
    got = fx.open([fx.div(fx.share(1.0), fx.share(0.125))])[0]
    assert math.isclose(got, 8.0, rel_tol=1e-3)


def test_division_by_zero_yields_zero(fx):
    assert fx.open([fx.div(fx.share(5.0), fx.share(0.0))])[0] == 0.0


def _division_cs(fx, group_sizes):
    """Beaver multiplications of one ``div`` call: c = b·v, w = d·v, b·w
    and θ squarings per denominator; a·w and θ + 1 multiply-truncates per
    numerator.  Norm's bit work is on XOR-shared words, no Cs."""
    return sum(3 + fx.theta + t * (fx.theta + 2) for t in group_sizes)


@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_division_of_a_list_over_one_denominator(fx, auth_fx, data):
    """div(groups, bs) is div(a_i, b_j) for every numerator of every group,
    at one Norm's cost.

    Raw operands: each b anywhere below div's bound 2^(2F-1) (its top
    value, 1 ulp and 0 included), |a_i / b| <= 2^12.  Every result is the
    true quotient up to the rounding of its own θ + 2 probabilistic
    truncations (a relative 2^-12 on top covers Goldschmidt's convergence
    with margin), whether it came from a node's groups, one group or alone.
    """
    ops = data.draw(st.sampled_from([fx, auth_fx]))
    engine = ops.engine
    top = (1 << (2 * ops.f - 1)) - 1
    denominators = data.draw(
        st.lists(st.sampled_from([top, 1, 0]) | st.integers(0, top), min_size=1, max_size=3)
    )
    groups = [
        data.draw(
            st.lists(
                st.integers(
                    -min(1 << (ops.k - 2), max(b, 1) << 12),
                    min(1 << (ops.k - 2), max(b, 1) << 12),
                ),
                min_size=1,
                max_size=4,
            )
        )
        for b in denominators
    ]
    shared_bs = [engine.share_public(b) for b in denominators]
    shared = [[engine.share_public(a) for a in group] for group in groups]

    with opcount.counting() as node_ops:
        together = ops.div(shared, shared_bs)
    assert node_ops["cs"] == _division_cs(ops, [len(group) for group in groups])
    rounding = ops.theta + 3  # ulps: one per truncation, compounding < 1.1x
    for b, group, shared_group, group_result in zip(
        denominators, groups, shared, together
    ):
        listed = ops.div(shared_group, engine.share_public(b))
        singles = [ops.div(a, engine.share_public(b)) for a in shared_group]
        for a, *results in zip(group, group_result, listed, singles):
            opened = [engine.field.to_signed(r) for r in engine.open_many(results)]
            if b == 0:
                assert opened == [0, 0, 0]
                continue
            true = a * (1 << ops.f) / b
            for got in opened:
                assert abs(got - true) <= rounding + abs(true) * 2.0**-12


def test_division_keeps_the_single_numerator_call(fx):
    """One numerator in, one SharedValue out (what every existing caller
    and the benchmark's ``mpc.div_ms`` probe pass)."""
    with opcount.counting() as ops:
        quotient = fx.div(fx.share(7.0), fx.share(3.0))
    assert math.isclose(fx.open([quotient])[0], 7 / 3, abs_tol=1e-4)
    assert ops["cs"] == _division_cs(fx, [1]) == 13
    (only,) = fx.div([fx.share(7.0)], fx.share(3.0))
    assert math.isclose(fx.open([only])[0], 7 / 3, abs_tol=1e-4)


def test_denominator_wider_than_a_declared_count_divides(fx, auth_fx):
    """Every denominator is decomposed at the full K: raw 2^23 (128
    samples), past the 22-bit width a 60-sample fit used to declare,
    divides correctly (a declared-width Norm read none of its top bits
    and returned a wrong quotient without an error)."""
    for ops in (fx, auth_fx):
        quotient = ops.div(ops.share(1000.0), ops.engine.share_public(1 << 23))
        assert math.isclose(ops.open([quotient])[0], 1000 / 128, abs_tol=1e-4)


def test_division_holds_up_to_the_largest_admitted_count(fx):
    """div's bound, b < 2^(2F-1) raw, is n < 2^(F-1) samples: at the
    largest such n, w ≈ 2^(2F)/b stays above 1 after truncation and
    every call opens the right fraction (TreeTrainer refuses a fit with
    more samples, see test_trainer_extras)."""
    n = (1 << (fx.f - 1)) - 1
    for _ in range(5):
        got = fx.open([fx.div(fx.share(0.4 * n), fx.share(float(n)))])[0]
        assert math.isclose(got, 0.4, abs_tol=1e-3)


def test_argmax_slack_keeps_the_earliest_of_near_ties(fx):
    """Values within ``slack`` ulps of the running maximum do not replace
    it; a value more than ``slack`` above does."""
    engine = fx.engine
    values = [engine.share_public(v) for v in (1000, 1003, 998, 1004)]
    ((index, best, onehot),) = fx.argmax([values], slack=4)
    assert engine.open_many([index, best, *onehot]) == [0, 1000, 1, 0, 0, 0]
    ((index, best, _),) = fx.argmax([values + [engine.share_public(1005)]], slack=4)
    assert engine.open_many([index, best]) == [4, 1005]
    ((index, _, _),) = fx.argmax([values])  # no slack: the strict maximum
    assert engine.open_many([index]) == [3]


# -- clamp / exp / softmax ------------------------------------------------------


def test_clamp(fx):
    high, low, inside = fx.open(
        fx.clamp([fx.share(x) for x in (10.0, -10.0, 1.5)], -2.0, 2.0)
    )
    assert (high, low) == (2.0, -2.0)
    assert math.isclose(inside, 1.5, abs_tol=1e-4)


@relaxed
@given(x=st.floats(min_value=-5.5, max_value=5.5, allow_nan=False))
def test_exp(fx, x):
    got = fx.open(fx.exp([fx.share(x)]))[0]
    assert math.isclose(got, math.exp(x), rel_tol=0.02, abs_tol=0.02)


def test_exp_clamps_extremes(fx):
    big, small = fx.open(fx.exp([fx.share(50.0), fx.share(-50.0)]))
    assert math.isclose(big, math.exp(6.0), rel_tol=0.05)
    assert math.isclose(small, math.exp(-6.0), abs_tol=0.01)


@relaxed
@given(
    scores=st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=2, max_size=4
    )
)
def test_softmax(fx, scores):
    rows = [scores, scores[::-1]]
    got = fx.softmax([[fx.share(s) for s in row] for row in rows])
    for row, shares in zip(rows, got):
        opened = fx.open(shares)
        exps = [math.exp(s) for s in row]
        want = [e / sum(exps) for e in exps]
        for g, w in zip(opened, want):
            assert math.isclose(g, w, abs_tol=0.02)
        assert math.isclose(sum(opened), 1.0, abs_tol=0.05)


@relaxed
@given(x=st.floats(min_value=0.01, max_value=100.0, allow_nan=False))
def test_ln(fx, x):
    got = fx.open(fx.ln([fx.share(x)]))[0]
    assert math.isclose(got, math.log(x), abs_tol=0.01)


def test_log2_of_a_batch(fx):
    xs = [0.25, 1.0, 3.0, 1000.0]
    got = fx.open(fx.log2([fx.share(x) for x in xs]))
    for g, x in zip(got, xs):
        assert math.isclose(g, math.log2(x), abs_tol=0.01)


def test_uniform_fraction_of_a_batch(fx):
    values = fx.open(fx.uniform_fraction(5))
    assert len(values) == 5 and all(0 <= v < 1 for v in values)
    assert len(set(values)) > 1
    assert fx.uniform_fraction(0) == []


def test_fixed_argmax_and_comparisons(fx):
    values = [fx.share(v) for v in (0.5, -1.25, 2.75, 2.5)]
    ((idx, mx, onehot),) = fx.argmax([values])
    assert fx.engine.open_many([idx]) == [2]
    assert math.isclose(fx.open([mx])[0], 2.75, abs_tol=1e-4)
    assert fx.engine.open_many([fx.lt(values[0], values[2])]) == [1]
    assert fx.engine.open_many(fx.gt(values[:2], values[1:3])) == [1, 0]
    assert fx.engine.open_many(fx.ltz(values[:2])) == [0, 1]
    assert fx.engine.open_many(fx.eqz([values[0] - values[0], values[1]])) == [1, 0]


def test_authenticated_fixed_point(auth_fx):
    got = auth_fx.open([auth_fx.div(auth_fx.share(3.0), auth_fx.share(2.0))])[0]
    assert math.isclose(got, 1.5, rel_tol=1e-3)
