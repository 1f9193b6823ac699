import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import opcount
from repro.crypto.paillier import (
    centred,
    dot_product,
    generate_keypair,
    power_product,
)

# Bound chosen so sums/products in the property tests stay inside the
# signed plaintext range of a 256-bit key.
VALUES = st.integers(min_value=-(2**60), max_value=2**60)


def test_encrypt_decrypt_roundtrip(keypair):
    pk, sk = keypair
    for x in (0, 1, -1, 12345, -98765, 2**40):
        assert sk.decrypt(pk.encrypt(x)) == x


def test_ciphertexts_are_probabilistic(keypair):
    pk, _ = keypair
    assert pk.encrypt(7).raw != pk.encrypt(7).raw


def test_unobfuscated_raw_encrypt_is_deterministic(keypair):
    pk, _ = keypair
    assert pk.raw_encrypt(7) == pk.raw_encrypt(7)


def test_obfuscate_changes_raw_not_value(keypair):
    pk, sk = keypair
    c = pk.encrypt(99, obfuscate=False)
    d = c.obfuscate()
    assert c.raw != d.raw
    assert sk.decrypt(d) == 99


@settings(deadline=None, max_examples=25)
@given(x=VALUES, y=VALUES)
def test_homomorphic_addition(keypair, x, y):
    pk, sk = keypair
    assert sk.decrypt(pk.encrypt(x) + pk.encrypt(y)) == x + y


@settings(deadline=None, max_examples=25)
@given(x=VALUES, k=st.integers(min_value=-(2**20), max_value=2**20))
def test_homomorphic_scalar_multiplication(keypair, x, k):
    pk, sk = keypair
    assert sk.decrypt(pk.encrypt(x) * k) == x * k


@settings(deadline=None, max_examples=25)
@given(x=VALUES, k=VALUES)
def test_plaintext_addition_and_subtraction(keypair, x, k):
    pk, sk = keypair
    c = pk.encrypt(x)
    assert sk.decrypt(c + k) == x + k
    assert sk.decrypt(c - k) == x - k
    assert sk.decrypt(k - c) == k - x


def test_negation(keypair):
    pk, sk = keypair
    for x in (0, 17, -17, 2**60, -(2**60)):
        c = pk.encrypt(x)
        assert sk.decrypt(-c) == -x
        assert sk.decrypt(-(-c)) == x
        assert sk.decrypt(c * -1) == -x


def test_multiply_by_zero_and_one(keypair):
    pk, sk = keypair
    c = pk.encrypt(55)
    assert sk.decrypt(c * 0) == 0
    assert sk.decrypt(c * 1) == 55
    assert sk.decrypt(c * -1) == -55


@settings(deadline=None, max_examples=10)
@given(
    xs=st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=8),
    data=st.data(),
)
def test_dot_product_matches_plaintext(keypair, xs, data):
    pk, sk = keypair
    coeffs = data.draw(
        st.lists(
            st.integers(min_value=-50, max_value=50),
            min_size=len(xs),
            max_size=len(xs),
        )
    )
    cts = [pk.encrypt(x) for x in xs]
    expected = sum(a * x for a, x in zip(coeffs, xs))
    assert sk.decrypt(dot_product(coeffs, cts)) == expected


def test_negative_scalars_are_an_inverse_and_a_short_power(keypair):
    """A coefficient in the upper half of Z_n is a negative number: the
    kernel raises to its magnitude and inverts once.  Same plaintext as
    the |n|-bit power, same Ce, a different (equally valid) ciphertext."""
    pk, sk = keypair
    cts = [pk.encrypt(x) for x in (9, -4, 100, 3)]
    raws = [c.raw for c in cts]
    coeffs = [-1, 2, -(2**20) - 5, 0]
    product = power_product(coeffs, raws, pk)
    long_form = 1
    for a, raw in zip(coeffs, raws):
        long_form = long_form * pow(raw, a % pk.n, pk.n_squared) % pk.n_squared
    assert product != long_form
    assert sk.raw_decrypt(product) == sk.raw_decrypt(long_form)
    assert pk.to_signed(sk.raw_decrypt(product)) == -9 - 8 - 100 * (2**20 + 5)
    # The same kernel behind every spelling, n - x read as -x.
    assert power_product([pk.n - 1], raws[:1], pk) == pk.invert(raws[0])
    assert (cts[0] * -7).raw == dot_product([-7], cts[:1]).raw
    assert (cts[0] * -7).raw == pk.invert(pow(raws[0], 7, pk.n_squared))
    assert [centred(x, 15) for x in (0, 7, 8, 14, -1, 22)] == [0, 7, -7, -1, -1, 7]
    with opcount.counting() as ops:
        dot_product(coeffs, cts)
        _ = cts[1] * -3
    assert ops["ce"] == len(cts) + 1


def test_dot_product_rejects_mismatched_lengths(keypair):
    pk, _ = keypair
    with pytest.raises(ValueError):
        dot_product([1, 2], [pk.encrypt(1)])
    with pytest.raises(ValueError):
        dot_product([], [])


def test_cross_key_operations_rejected(keypair):
    pk, _ = keypair
    pk2, sk2 = generate_keypair(256)
    with pytest.raises(ValueError):
        _ = pk.encrypt(1) + pk2.encrypt(1)
    with pytest.raises(ValueError):
        sk2.decrypt(pk.encrypt(1))


def test_decrypt_overflow_detected(keypair):
    pk, sk = keypair
    # n/2 is far outside the signed range [-n/3, n/3].
    c = pk.encrypt(pk.n // 2)
    with pytest.raises(OverflowError):
        sk.decrypt(c)


def test_deterministic_keygen_from_supplied_primes():
    from repro.crypto.primes import random_prime

    p, q = random_prime(64), random_prime(64)
    while q == p:
        q = random_prime(64)
    pk1, _ = generate_keypair(p=p, q=q)
    pk2, _ = generate_keypair(p=p, q=q)
    assert pk1.n == pk2.n
