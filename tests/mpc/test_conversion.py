import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import PaillierEncoder
from repro.mpc import FixedPointOps, MPCEngine
from repro.mpc.conversion import (
    ConversionCounters,
    cipher_to_share,
    ciphers_to_shares,
    share_to_cipher,
)

relaxed = settings(
    deadline=None,
    max_examples=10,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture()
def encoder(threshold3):
    return PaillierEncoder(threshold3.public_key)


@relaxed
@given(v=st.integers(min_value=-(2**20), max_value=2**20))
def test_integer_roundtrip(threshold3, encoder, fx, v):
    sv = cipher_to_share(encoder.encrypt(v), threshold3, fx)
    assert fx.open(sv) == v


@relaxed
@given(v=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_float_roundtrip(threshold3, encoder, fx, v):
    sv = cipher_to_share(encoder.encrypt(v), threshold3, fx)
    assert math.isclose(fx.open(sv), v, abs_tol=2e-4)


def test_double_scale_ciphertext_truncated(threshold3, encoder, fx):
    # exponent -2F after a float*float homomorphic multiplication
    product = encoder.encrypt(1.5) * 2.5
    assert product.exponent == -2 * encoder.frac_bits
    sv = cipher_to_share(product, threshold3, fx)
    assert math.isclose(fx.open(sv), 3.75, abs_tol=1e-3)


def test_batch_conversion(threshold3, encoder, fx):
    values = [encoder.encrypt(v) for v in (1, -2, 3)]
    shares = ciphers_to_shares(values, threshold3, fx)
    assert [fx.open(s) for s in shares] == [1, -2, 3]


def _decrypt(value, threshold) -> float:
    """Plain signed joint decryption: a converted ciphertext needs no more."""
    return threshold.joint_decrypt(value.ciphertext) * 2.0**value.exponent


def test_counters(threshold3, encoder, fx):
    counters = ConversionCounters()
    cipher_to_share(encoder.encrypt(5), threshold3, fx, counters)
    share_to_cipher(fx.share(1.0), threshold3, fx, counters)
    assert counters.snapshot() == {
        "to_shares": 1,
        "to_cipher": 1,
        "threshold_decryptions": 1,
    }


@relaxed
@given(v=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_share_to_cipher_roundtrip(threshold3, fx, v):
    ct = share_to_cipher(fx.share(v), threshold3, fx)
    assert math.isclose(_decrypt(ct, threshold3), v, abs_tol=1e-4)


def test_converted_cipher_back_to_share(threshold3, fx):
    ct = share_to_cipher(fx.share(-3.5), threshold3, fx)
    sv = cipher_to_share(ct, threshold3, fx)
    assert math.isclose(fx.open(sv), -3.5, abs_tol=1e-4)


def test_homomorphic_sum_of_converted_ciphers(threshold3, fx):
    cts = [share_to_cipher(fx.share(v), threshold3, fx) for v in (1.5, 2.5, -1.0)]
    total = cts[0] + cts[1] + cts[2]
    assert math.isclose(_decrypt(total, threshold3), 3.0, abs_tol=1e-3)


def test_converted_cipher_with_deeper_scale(threshold3, fx):
    """A converted ciphertext scaled to exponent -2F converts back through
    the ordinary secure truncation."""
    ct = share_to_cipher(fx.share(2.5), threshold3, fx)
    deeper = ct * 3.0  # exponent -2F
    assert math.isclose(_decrypt(deeper, threshold3), 7.5, abs_tol=1e-3)
    sv = cipher_to_share(deeper, threshold3, fx)
    assert math.isclose(fx.open(sv), 7.5, abs_tol=1e-3)


def test_authenticated_conversion(threshold3, encoder, auth_fx):
    sv = cipher_to_share(encoder.encrypt(-9), threshold3, auth_fx)
    assert sv.macs is not None
    assert auth_fx.open(sv) == -9


def test_conversion_then_mpc_computation(threshold3, encoder, fx):
    """End-to-end: encrypted statistics -> shares -> secure comparison."""
    a = cipher_to_share(encoder.encrypt(10), threshold3, fx)
    b = cipher_to_share(encoder.encrypt(4), threshold3, fx)
    ratio = fx.div(a, b)
    assert math.isclose(fx.open(ratio), 2.5, rel_tol=1e-3)
    assert fx.engine.open(fx.gt(a, b)) == 1
