import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import opcount
from repro.mpc import FixedPointOps, MPCEngine
from repro.mpc.field import PrimeField

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
    got = fx.open(fx.mul(fx.share(x), fx.share(y)))
    # Compare against the product of the *quantized* inputs: encoding
    # rounds each operand to 2^-f resolution, and that representation
    # error (up to |x| * 2^-(f+1)) can exceed the truncation tolerance.
    expected = fx.decode(fx.encode(x)) * fx.decode(fx.encode(y))
    assert math.isclose(got, expected, rel_tol=1e-3, abs_tol=1e-3)


@relaxed
@given(x=REALS, k=st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_mul_public(fx, x, k):
    got = fx.open(fx.mul_public(fx.share(x), k))
    assert math.isclose(got, x * k, rel_tol=1e-3, abs_tol=1e-2)


# -- normalisation / reciprocal / division -----------------------------------


@relaxed
@given(b=POSITIVES)
def test_norm_scales_into_top_interval(fx, b):
    c, v = fx.norm(fx.share(b))
    c_open = fx.engine.open(c)
    assert (1 << (fx.k - 1)) <= c_open < (1 << fx.k)


@relaxed
@given(b=st.floats(min_value=0.1, max_value=500, allow_nan=False))
def test_app_rcr_error_bound(fx, b):
    w = fx.open(fx.app_rcr(fx.share(b)))
    assert math.isclose(w, 1 / b, rel_tol=0.09, abs_tol=1e-3)


@relaxed
@given(a=REALS, b=st.floats(min_value=0.5, max_value=800, allow_nan=False))
def test_division(fx, a, b):
    got = fx.open(fx.div(fx.share(a), fx.share(b)))
    assert math.isclose(got, a / b, rel_tol=2e-3, abs_tol=2e-3)


def test_division_small_denominator(fx):
    got = fx.open(fx.div(fx.share(1.0), fx.share(0.125)))
    assert math.isclose(got, 8.0, rel_tol=1e-3)


def test_division_by_zero_yields_zero(fx):
    assert fx.open(fx.div(fx.share(5.0), fx.share(0.0))) == 0.0


def _division_cs(fx, width, t):
    """Beaver multiplications of one ``div`` of t numerators: BitDec and
    prefix-OR over ``width`` bits, c = b·v, w = d·v, b·w and θ squarings
    once; a·w and θ + 1 multiply-truncates per numerator."""
    return (2 * width - 1) + 3 + fx.theta + t * (fx.theta + 2)


@settings(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_division_of_a_list_over_one_denominator(fx, auth_fx, data):
    """div([a_1..a_t], b) is div(a_i, b) for every i, at one Norm's cost.

    Raw operands: b anywhere in the declared width (its top value, 1 ulp
    and 0 included), |a_i / b| <= 2^12.  Every result is the true quotient
    up to the rounding of its own θ + 2 probabilistic truncations (a
    relative 2^-12 on top covers Goldschmidt's convergence with margin),
    whether it came from a list or alone, with the width declared or not.
    """
    ops = data.draw(st.sampled_from([fx, auth_fx]))
    engine = ops.engine
    b_bits = data.draw(st.integers(min_value=1, max_value=2 * ops.f - 1))
    top = (1 << b_bits) - 1
    b = data.draw(st.sampled_from([top, 1, 0]) | st.integers(0, top))
    bound = min(1 << (ops.k - 2), max(b, 1) << 12)
    numerators = data.draw(
        st.lists(st.integers(-bound, bound), min_size=1, max_size=4)
    )
    shared_b = engine.share_public(b)
    shared = [engine.share_public(a) for a in numerators]

    with opcount.counting() as ops_declared:
        declared = ops.div(shared, shared_b, b_bits)
    with opcount.counting() as ops_undeclared:
        undeclared = ops.div(shared, shared_b)
    assert ops_declared["cs"] == _division_cs(ops, b_bits, len(numerators))
    assert ops_undeclared["cs"] == _division_cs(ops, ops.k, len(numerators))
    singles = [ops.div(a, shared_b, b_bits) for a in shared]

    rounding = ops.theta + 3  # ulps: one per truncation, compounding < 1.1x
    for a, *results in zip(numerators, declared, undeclared, singles):
        opened = [engine.open_signed(r) for r in results]
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
    assert math.isclose(fx.open(quotient), 7 / 3, abs_tol=1e-4)
    assert ops["cs"] == _division_cs(fx, fx.k, 1) == 92
    (only,) = fx.div([fx.share(7.0)], fx.share(3.0))
    assert math.isclose(fx.open(only), 7 / 3, abs_tol=1e-4)


def test_declared_width_must_fit_the_format(fx):
    for bad in (0, -3, fx.k + 1):
        with pytest.raises(ValueError):
            fx.div(fx.share(1.0), fx.share(2.0), b_bits=bad)


def test_argmax_slack_keeps_the_earliest_of_near_ties(fx):
    """Values within ``slack`` ulps of the running maximum do not replace
    it; a value more than ``slack`` above does."""
    engine = fx.engine
    values = [engine.share_public(v) for v in (1000, 1003, 998, 1004)]
    index, best, onehot = fx.argmax(values, slack=4)
    assert engine.open(index) == 0 and engine.open(best) == 1000
    assert [engine.open(bit) for bit in onehot] == [1, 0, 0, 0]
    index, best, _ = fx.argmax(values + [engine.share_public(1005)], slack=4)
    assert engine.open(index) == 4 and engine.open(best) == 1005
    index, _, _ = fx.argmax(values)  # no slack: the strict maximum
    assert engine.open(index) == 3


# -- clamp / exp / softmax ------------------------------------------------------


def test_clamp(fx):
    assert fx.open(fx.clamp(fx.share(10.0), -2.0, 2.0)) == 2.0
    assert fx.open(fx.clamp(fx.share(-10.0), -2.0, 2.0)) == -2.0
    assert math.isclose(fx.open(fx.clamp(fx.share(1.5), -2.0, 2.0)), 1.5, abs_tol=1e-4)


@relaxed
@given(x=st.floats(min_value=-5.5, max_value=5.5, allow_nan=False))
def test_exp(fx, x):
    got = fx.open(fx.exp(fx.share(x)))
    assert math.isclose(got, math.exp(x), rel_tol=0.02, abs_tol=0.02)


def test_exp_clamps_extremes(fx):
    big = fx.open(fx.exp(fx.share(50.0)))
    assert math.isclose(big, math.exp(6.0), rel_tol=0.05)
    small = fx.open(fx.exp(fx.share(-50.0)))
    assert math.isclose(small, math.exp(-6.0), abs_tol=0.01)


@relaxed
@given(
    scores=st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=2, max_size=4
    )
)
def test_softmax(fx, scores):
    got = [fx.open(p) for p in fx.softmax([fx.share(s) for s in scores])]
    exps = [math.exp(s) for s in scores]
    want = [e / sum(exps) for e in exps]
    for g, w in zip(got, want):
        assert math.isclose(g, w, abs_tol=0.02)
    assert math.isclose(sum(got), 1.0, abs_tol=0.05)


def test_fixed_argmax_and_comparisons(fx):
    values = [fx.share(v) for v in (0.5, -1.25, 2.75, 2.5)]
    idx, mx, onehot = fx.argmax(values)
    assert fx.engine.open(idx) == 2
    assert math.isclose(fx.open(mx), 2.75, abs_tol=1e-4)
    assert fx.engine.open(fx.lt(values[0], values[2])) == 1
    assert fx.engine.open(fx.gt(values[0], values[1])) == 1
    assert fx.engine.open(fx.ltz(values[1])) == 1
    assert fx.engine.open(fx.eqz(values[0] - values[0])) == 1


def test_authenticated_fixed_point(auth_fx):
    got = auth_fx.open(auth_fx.div(auth_fx.share(3.0), auth_fx.share(2.0)))
    assert math.isclose(got, 1.5, rel_tol=1e-3)
