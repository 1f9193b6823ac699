import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.paillier import dot_product, generate_keypair

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
