import pytest

from repro.crypto import zkp
from repro.crypto.paillier import dot_product


def _fresh_unit(pk):
    import math
    import secrets

    while True:
        r = secrets.randbelow(pk.n - 1) + 1
        if math.gcd(r, pk.n) == 1:
            return r


@pytest.fixture()
def pk(keypair):
    return keypair[0]


# -- POPK -------------------------------------------------------------------


def test_popk_roundtrip(pk):
    r = _fresh_unit(pk)
    ct = pk.encrypt_with_r(42, r)
    proof = zkp.prove_plaintext_knowledge(pk, 42, r, ct)
    zkp.verify_plaintext_knowledge(pk, ct, proof)  # no exception


def test_popk_negative_plaintext(pk):
    r = _fresh_unit(pk)
    ct = pk.encrypt_with_r(-17, r)
    proof = zkp.prove_plaintext_knowledge(pk, -17, r, ct)
    zkp.verify_plaintext_knowledge(pk, ct, proof)


def test_popk_wrong_ciphertext_rejected(pk):
    r = _fresh_unit(pk)
    ct = pk.encrypt_with_r(42, r)
    proof = zkp.prove_plaintext_knowledge(pk, 42, r, ct)
    with pytest.raises(zkp.ProofError):
        zkp.verify_plaintext_knowledge(pk, pk.encrypt(43), proof)


def test_popk_tampered_response_rejected(pk):
    r = _fresh_unit(pk)
    ct = pk.encrypt_with_r(42, r)
    proof = zkp.prove_plaintext_knowledge(pk, 42, r, ct)
    bad = zkp.PlaintextKnowledgeProof(proof.commitment, proof.z + 1, proof.w)
    with pytest.raises(zkp.ProofError):
        zkp.verify_plaintext_knowledge(pk, ct, bad)


def test_popk_wrong_randomness_rejected(pk):
    r = _fresh_unit(pk)
    ct = pk.encrypt_with_r(42, r)
    proof = zkp.prove_plaintext_knowledge(pk, 42, _fresh_unit(pk), ct)
    with pytest.raises(zkp.ProofError):
        zkp.verify_plaintext_knowledge(pk, ct, proof)


# -- POPCM ------------------------------------------------------------------


def _mult_instance(pk, a, b):
    """Build (c_a, c_b, c_out, witnesses) with c_out = c_b^a * s^n."""
    r_a = _fresh_unit(pk)
    c_a = pk.encrypt_with_r(a, r_a)
    c_b = pk.encrypt(b)
    s = _fresh_unit(pk)
    c_out = (c_b * a) + pk.encrypt_with_r(0, s)
    return c_a, c_b, c_out, r_a, s


def test_popcm_roundtrip(pk, keypair):
    _, sk = keypair
    a, b = 7, 11
    c_a, c_b, c_out, r_a, s = _mult_instance(pk, a, b)
    assert sk.decrypt(c_out) == a * b
    proof = zkp.prove_multiplication(pk, a, r_a, c_a, c_b, s, c_out)
    zkp.verify_multiplication(pk, c_a, c_b, c_out, proof)


def test_popcm_large_coefficient(pk):
    a, b = 2**40 + 3, -(2**30)
    c_a, c_b, c_out, r_a, s = _mult_instance(pk, a, b)
    proof = zkp.prove_multiplication(pk, a, r_a, c_a, c_b, s, c_out)
    zkp.verify_multiplication(pk, c_a, c_b, c_out, proof)


def test_popcm_negative_coefficients(pk, keypair):
    """The proven power is the one ``*`` computes: a negative coefficient
    is an inverse and a short power (-1 included, which ``*`` has always
    inverted), and the proof's carry is then -1."""
    _, sk = keypair
    for a in (-1, -(2**16) - 9):
        c_a, c_b, c_out, r_a, s = _mult_instance(pk, a, 11)
        assert sk.decrypt(c_out) == 11 * a
        proof = zkp.prove_multiplication(pk, a, r_a, c_a, c_b, s, c_out)
        zkp.verify_multiplication(pk, c_a, c_b, c_out, proof)


def test_popcm_wrong_product_rejected(pk):
    a, b = 7, 11
    c_a, c_b, c_out, r_a, s = _mult_instance(pk, a, b)
    fake_out = c_out + 1  # claims a*b + 1
    proof = zkp.prove_multiplication(pk, a, r_a, c_a, c_b, s, fake_out)
    with pytest.raises(zkp.ProofError):
        zkp.verify_multiplication(pk, c_a, c_b, fake_out, proof)


def test_popcm_wrong_coefficient_rejected(pk):
    a, b = 7, 11
    c_a, c_b, c_out, r_a, s = _mult_instance(pk, a, b)
    proof = zkp.prove_multiplication(pk, a + 1, r_a, c_a, c_b, s, c_out)
    with pytest.raises(zkp.ProofError):
        zkp.verify_multiplication(pk, c_a, c_b, c_out, proof)


# -- POHDP ------------------------------------------------------------------


def _dot_instance(pk, coeffs, values):
    rs = [_fresh_unit(pk) for _ in coeffs]
    committed = [pk.encrypt_with_r(a, r) for a, r in zip(coeffs, rs)]
    vector = [pk.encrypt(v) for v in values]
    s = _fresh_unit(pk)
    c_out = dot_product(coeffs, vector) + pk.encrypt_with_r(0, s)
    return committed, vector, c_out, rs, s


def test_pohdp_roundtrip(pk, keypair):
    _, sk = keypair
    coeffs, values = [1, 0, 1, 1], [5, 6, 7, 8]
    committed, vector, c_out, rs, s = _dot_instance(pk, coeffs, values)
    assert sk.decrypt(c_out) == 20
    proof = zkp.prove_dot_product(pk, coeffs, rs, committed, vector, s, c_out)
    zkp.verify_dot_product(pk, committed, vector, c_out, proof)


def test_pohdp_with_negative_coefficients(pk):
    coeffs, values = [-1, 2, 0], [9, -4, 100]
    committed, vector, c_out, rs, s = _dot_instance(pk, coeffs, values)
    proof = zkp.prove_dot_product(pk, coeffs, rs, committed, vector, s, c_out)
    zkp.verify_dot_product(pk, committed, vector, c_out, proof)


def test_pohdp_wrong_result_rejected(pk):
    coeffs, values = [1, 1], [2, 3]
    committed, vector, c_out, rs, s = _dot_instance(pk, coeffs, values)
    fake = c_out + 1
    proof = zkp.prove_dot_product(pk, coeffs, rs, committed, vector, s, fake)
    with pytest.raises(zkp.ProofError):
        zkp.verify_dot_product(pk, committed, vector, fake, proof)


def test_pohdp_swapped_coefficients_rejected(pk):
    coeffs, values = [1, 0], [2, 3]
    committed, vector, c_out, rs, s = _dot_instance(pk, coeffs, values)
    proof = zkp.prove_dot_product(pk, [0, 1], rs, committed, vector, s, c_out)
    with pytest.raises(zkp.ProofError):
        zkp.verify_dot_product(pk, committed, vector, c_out, proof)


def test_pohdp_length_mismatch_rejected(pk):
    with pytest.raises(ValueError):
        zkp.prove_dot_product(pk, [1], [], [], [], 1, pk.encrypt(0))
