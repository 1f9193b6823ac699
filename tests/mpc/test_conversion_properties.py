"""Properties of the conversions.  Algorithm 2 is linear: converting a
homomorphic combination equals combining the conversions.  The reverse
conversion encrypts the shared value itself, over its whole declared width."""

import math
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import opcount
from repro.crypto import PaillierEncoder, generate_threshold_keypair
from repro.mpc import FixedPointOps, MPCEngine
from repro.mpc.conversion import (
    ConversionCounters,
    MaskBoundError,
    ciphers_to_shares,
    share_to_cipher,
)

relaxed = settings(
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

VALUES = st.floats(min_value=-500, max_value=500, allow_nan=False)


@pytest.fixture()
def encoder(threshold3):
    return PaillierEncoder(threshold3.public_key)


@relaxed
@given(x=VALUES, y=VALUES)
def test_convert_of_sum_equals_sum_of_converts(threshold3, encoder, fx, x, y):
    cx, cy = encoder.encrypt(x), encoder.encrypt(y)
    combined = ciphers_to_shares([cx + cy], threshold3, fx)[0]
    sx, sy = ciphers_to_shares([cx, cy], threshold3, fx)
    separate = sx + sy
    assert math.isclose(*fx.open([combined, separate]), abs_tol=2e-4)


@relaxed
@given(x=VALUES, k=st.integers(min_value=-20, max_value=20))
def test_convert_commutes_with_scalar_multiplication(threshold3, encoder, fx, x, k):
    ct = encoder.encrypt(x)
    scaled_then_converted = ciphers_to_shares([ct * k], threshold3, fx)[0]
    converted_then_scaled = ciphers_to_shares([ct], threshold3, fx)[0] * k
    assert math.isclose(
        *fx.open([scaled_then_converted, converted_then_scaled]), abs_tol=2e-4
    )


@relaxed
@given(x=VALUES)
def test_double_roundtrip_is_stable(threshold3, fx, x):
    sv = fx.share(x)
    ct = share_to_cipher([sv], threshold3, fx)
    sv2 = ciphers_to_shares(ct, threshold3, fx)[0]
    ct2 = share_to_cipher([sv2], threshold3, fx)
    sv3 = ciphers_to_shares(ct2, threshold3, fx)[0]
    assert math.isclose(*fx.open([sv3, sv]), abs_tol=2e-4)


@relaxed
@given(xs=st.lists(VALUES, min_size=2, max_size=5))
def test_batch_matches_individual(threshold3, encoder, fx, xs):
    cts = [encoder.encrypt(v) for v in xs]
    batch = ciphers_to_shares(cts, threshold3, fx)
    for opened, v in zip(fx.open(batch), xs):
        assert math.isclose(opened, v, abs_tol=2e-4)


# -- the wrap-free reverse conversion ------------------------------------------

@lru_cache(maxsize=None)
def _threshold(m: int, keysize: int):
    return generate_threshold_keypair(m, keysize)


BETA = 40  # FixedPointOps' default k: the bound share_to_cipher masks for
EDGES = [0, 1, -1, 2**BETA - 1, -(2**BETA - 1)]


@settings(deadline=None, max_examples=25)
@given(
    m=st.integers(min_value=2, max_value=5),
    keysize=st.sampled_from([256, 512]),
    x=st.sampled_from(EDGES)
    | st.integers(min_value=-(2**BETA - 1), max_value=2**BETA - 1),
    authenticated=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_share_to_cipher_encrypts_the_value_itself(m, keysize, x, authenticated, seed):
    """Signed joint decryption of share_to_cipher(x) is x — no multiple of
    q rides along — over the whole declared width, for 2..5 parties, plain
    and MAC'd shares; the packed way back to shares returns the same x."""
    threshold = _threshold(m, keysize)
    fx = FixedPointOps(MPCEngine(m, authenticated=authenticated, seed=seed))
    assert fx.k == BETA
    shared = fx.engine.input_many([x])
    counters = ConversionCounters()
    with opcount.counting() as ops:
        (ct,) = share_to_cipher(shared, threshold, fx, counters)
    assert threshold.joint_decrypt(ct.ciphertext) == x
    assert ct.exponent == -fx.f
    # m mask encryptions, m - 1 additions, one subtraction from the opening.
    assert ops["ce"] == 2 * m and ops["cd"] == 0
    assert counters.snapshot() == {
        "to_shares": 0, "to_cipher": 1, "threshold_decryptions": 0,
    }
    back = ciphers_to_shares([ct, ct], threshold, fx, counters, bound_bits=fx.k)
    assert [fx.engine.field.to_signed(v) for v in fx.engine.open_many(back)] == [x, x]
    assert (back[0].macs is not None) == authenticated


@settings(deadline=None, max_examples=10)
@given(
    m=st.integers(min_value=2, max_value=5),
    keysize=st.sampled_from([256, 512]),
    bit=st.integers(min_value=0, max_value=1),
    authenticated=st.booleans(),
)
def test_share_to_cipher_of_a_bit_at_exponent_zero(m, keysize, bit, authenticated):
    """The selection vector [λ]: a raw shared bit encrypts to that bit."""
    threshold = _threshold(m, keysize)
    fx = FixedPointOps(MPCEngine(m, authenticated=authenticated, seed=bit))
    shared = fx.engine.input_many([bit])
    (ct,) = share_to_cipher(shared, threshold, fx, exponent=0)
    assert ct.exponent == 0
    assert threshold.joint_decrypt(ct.ciphertext) == bit
    (back,) = ciphers_to_shares([ct], threshold, fx, bound_bits=fx.k)
    assert [fx.engine.field.to_signed(v) for v in fx.engine.open_many([back])] == [
        bit << fx.f
    ]


@pytest.mark.parametrize("authenticated", [False, True])
@pytest.mark.parametrize("x", [2**100, -(2**100), 2**(BETA + 44)])
def test_share_outside_the_bound_raises_at_the_opening(threshold3, x, authenticated):
    """The masks are sized for |x| < 2^k; a wider value would show through
    them, so the conversion refuses the opening instead of using it."""
    fx = FixedPointOps(MPCEngine(3, authenticated=authenticated, seed=3))
    counters = ConversionCounters()
    with pytest.raises(MaskBoundError):
        share_to_cipher(fx.engine.input_many([x]), threshold3, fx, counters)
    assert counters.to_cipher == 0
