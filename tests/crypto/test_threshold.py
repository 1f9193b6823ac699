import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.threshold import (
    PartialDecryption,
    ShareCombinationError,
    ThresholdPaillier,
    combine_partial_decryptions,
    combine_partial_vectors,
    generate_threshold_keypair,
)
from repro.network.wire import PartialDecryptionVector

VALUES = st.integers(min_value=-(2**60), max_value=2**60)


@settings(deadline=None, max_examples=25)
@given(x=VALUES)
def test_joint_decrypt_roundtrip(threshold3, x):
    assert threshold3.joint_decrypt(threshold3.encrypt(x)) == x


def test_all_shares_required(threshold3):
    ct = threshold3.encrypt(5)
    partials = [s.partial_decrypt(ct) for s in threshold3.shares[:2]]
    with pytest.raises(ValueError):
        combine_partial_decryptions(threshold3.public_key, partials, 3)


def test_duplicate_share_rejected(threshold3):
    ct = threshold3.encrypt(5)
    p0 = threshold3.shares[0].partial_decrypt(ct)
    partials = [p0, p0, threshold3.shares[1].partial_decrypt(ct)]
    with pytest.raises(ValueError):
        combine_partial_decryptions(threshold3.public_key, partials, 3)


def test_partial_shares_do_not_decrypt_alone(threshold3):
    """No single client's share reveals the plaintext (sanity, not a proof)."""
    ct = threshold3.encrypt(42)
    pk = threshold3.public_key
    for share in threshold3.shares:
        partial = share.partial_decrypt(ct)
        candidate = ((partial.value - 1) // pk.n) % pk.n
        assert candidate != 42


def test_homomorphic_ops_then_threshold_decrypt(threshold3):
    tp = threshold3
    a, b = tp.encrypt(1000), tp.encrypt(-58)
    assert tp.joint_decrypt(a + b) == 942
    assert tp.joint_decrypt(a * 7) == 7000


@pytest.mark.parametrize("m", [2, 4, 5])
def test_various_party_counts(m):
    tp = generate_threshold_keypair(m, 256)
    assert len(tp.shares) == m
    assert tp.joint_decrypt(tp.encrypt(-777)) == -777


def test_rejects_single_party():
    with pytest.raises(ValueError):
        generate_threshold_keypair(1, 256)


def test_threshold_equals_plain_decryption(threshold3):
    """The dealer's withheld plain key decrypts identically (internal check)."""
    ct = threshold3.encrypt(31337)
    assert threshold3._private_key.decrypt(ct) == 31337


def test_bundle_missing_a_share_carries_no_private_key(threshold3):
    """Only a dealer has a private key, and a dealer deals every share: a
    bundle with a party's slot empty (a multi-process federation's) and a
    private key is refused at construction."""
    shares = [threshold3.shares[0], None, threshold3.shares[2]]
    with pytest.raises(ValueError, match="cannot carry a private key"):
        ThresholdPaillier(
            threshold3.public_key, shares, threshold3._private_key
        )
    keyless = ThresholdPaillier(threshold3.public_key, shares)
    with pytest.raises(RuntimeError, match="owners' processes"):
        keyless.joint_decrypt(threshold3.encrypt(5))


def test_cross_key_partial_decrypt_rejected(threshold3):
    other = generate_threshold_keypair(3, 256)
    ct = other.encrypt(9)
    with pytest.raises(ValueError):
        threshold3.shares[0].partial_decrypt(ct)


def test_vector_combination_checks_parties_once_per_batch(threshold3):
    """The party indices are a property of the batch, not of its elements:
    an empty batch from the wrong parties is still refused."""
    pk = threshold3.public_key
    assert combine_partial_vectors(pk, [PartialDecryptionVector(i, ()) for i in range(3)], 3) == []
    with pytest.raises(ValueError, match="needs all 3 shares"):
        combine_partial_vectors(pk, [PartialDecryptionVector(i, ()) for i in (0, 1, 1)], 3)


def test_vector_combination_with_theta_matches_per_element(threshold3):
    """Shares d_i * t combine to 1 + x*t*n: the distributed-keygen shape
    (theta = t != 1) on a dealer key."""
    pk, theta = threshold3.public_key, 0xC0FFEE
    plaintexts = [-5, 0, 123456]
    cts = [threshold3.encrypt(x) for x in plaintexts]
    vectors = [
        PartialDecryptionVector(
            share.party_index,
            tuple(pow(ct.raw, share.d_share * theta, pk.n_squared) for ct in cts),
        )
        for share in threshold3.shares
    ]
    assert combine_partial_vectors(pk, vectors, 3, theta=theta) == plaintexts
    for k, expected in enumerate(plaintexts):
        partials = [PartialDecryption(v.party_index, v.values[k]) for v in vectors]
        assert combine_partial_decryptions(pk, partials, 3, theta=theta) == expected


def test_flipped_share_bit_is_refused_not_decrypted(threshold3):
    """One flipped bit of one c^{d_i}: the product is no longer 1 (mod n),
    which used to floor-divide into a ~|n|-bit integer."""
    pk = threshold3.public_key
    cts = [threshold3.encrypt(x) for x in (7, -3)]
    vectors = threshold3.share_vectors(cts)
    assert combine_partial_vectors(pk, vectors, 3) == [7, -3]
    bad = vectors[1]
    vectors[1] = PartialDecryptionVector(1, (bad.values[0], bad.values[1] ^ 4))
    with pytest.raises(ShareCombinationError):
        combine_partial_vectors(pk, vectors, 3)
    partials = [PartialDecryption(v.party_index, v.values[1]) for v in vectors]
    with pytest.raises(ShareCombinationError):
        combine_partial_decryptions(pk, partials, 3)


def test_share_of_another_ciphertext_is_refused(threshold3):
    pk = threshold3.public_key
    cts = [threshold3.encrypt(7), threshold3.encrypt(8)]
    vectors = threshold3.share_vectors(cts)
    vectors[2] = PartialDecryptionVector(2, vectors[2].values[::-1])
    with pytest.raises(ShareCombinationError):
        combine_partial_vectors(pk, vectors, 3)
    partials = [share.partial_decrypt(cts[0]) for share in threshold3.shares[:2]]
    partials.append(threshold3.shares[2].partial_decrypt(cts[1]))
    with pytest.raises(ShareCombinationError):
        combine_partial_decryptions(pk, partials, 3)
