"""Wire format: round trips, measured-size == formula, malformed input."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import EncryptedNumber
from repro.crypto.paillier import Ciphertext
from repro.crypto.threshold import PartialDecryption, combine_partial_decryptions
from repro.network.wire import (
    MAX_DEPTH,
    PartialDecryptionVector,
    Request,
    ShareVector,
    WireCodec,
    WireFormatError,
)

Q = 2**127 - 1  # the MPC field modulus (repro.mpc.field)


@pytest.fixture(scope="module")
def codec(threshold3):
    return WireCodec(threshold3.public_key, share_modulus=Q)


def _roundtrip(codec, payload):
    data = codec.serialize(payload)
    assert len(data) == codec.estimate(payload)
    return codec.deserialize(data)


def test_ciphertext_roundtrip(codec, threshold3):
    ct = threshold3.encrypt(1234)
    back = _roundtrip(codec, ct)
    assert isinstance(back, Ciphertext)
    assert back.raw == ct.raw
    assert back.public_key == threshold3.public_key
    assert threshold3.joint_decrypt(back) == 1234


def test_ciphertext_width_matches_protocol_formula(codec, threshold3):
    # The spec formula the seed kept in PivotContext.ciphertext_bytes.
    n = threshold3.public_key.n
    assert codec.ciphertext_width == 2 * ((n.bit_length() + 7) // 8)


def test_encrypted_number_roundtrip(codec, threshold3):
    value = codec.encoder.encrypt(-3.25)
    back = _roundtrip(codec, value)
    assert isinstance(back, EncryptedNumber)
    assert back.exponent == value.exponent
    assert back.ciphertext.raw == value.ciphertext.raw
    raw = threshold3.joint_decrypt(back.ciphertext)
    assert raw * 2.0**back.exponent == pytest.approx(-3.25)


def test_partial_decryptions_roundtrip_and_combine(codec, threshold3):
    """Real partial decryptions survive the wire and still combine."""
    ct = threshold3.encrypt(-77)
    partials = [share.partial_decrypt(ct) for share in threshold3.shares]
    back = [_roundtrip(codec, p) for p in partials]
    assert all(isinstance(p, PartialDecryption) for p in back)
    assert combine_partial_decryptions(threshold3.public_key, back, 3) == -77


def test_partial_vector_roundtrip(codec, threshold3):
    cts = [threshold3.encrypt(v) for v in (1, 2, 3)]
    vec = PartialDecryptionVector(
        2, tuple(threshold3.shares[2].partial_decrypt(c).value for c in cts)
    )
    back = _roundtrip(codec, vec)
    assert back == vec


@settings(deadline=None, max_examples=25)
@given(values=st.lists(st.integers(min_value=0, max_value=Q - 1), max_size=8))
def test_share_vector_roundtrip(codec, values):
    vec = ShareVector(tuple(values))
    assert _roundtrip(codec, vec) == vec


@settings(deadline=None, max_examples=20)
@given(
    plaintexts=st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=5),
    exponent=st.integers(min_value=-64, max_value=0),
)
def test_ciphertext_vector_roundtrip(codec, threshold3, plaintexts, exponent):
    """Vectors of EncryptedNumbers — the dominant payload shape."""
    payload = [
        EncryptedNumber(codec.encoder, threshold3.encrypt(x), exponent)
        for x in plaintexts
    ]
    data = codec.serialize(payload)
    assert len(data) == codec.estimate(payload)
    back = codec.deserialize(data)
    assert len(back) == len(payload)
    for b, p in zip(back, payload):
        assert b.ciphertext.raw == p.ciphertext.raw
        assert b.exponent == p.exponent


def test_nested_vector_roundtrip(codec, threshold3):
    """Mask-vector broadcasts ship [alpha_l, alpha_r] as a list of lists."""
    inner = [codec.encoder.encrypt(1.0), codec.encoder.encrypt(0.0)]
    payload = [inner, [threshold3.encrypt(4)], b"blob"]
    data = codec.serialize(payload)
    assert len(data) == codec.estimate(payload)
    back = codec.deserialize(data)
    assert back[0][1].ciphertext.raw == inner[1].ciphertext.raw
    assert back[1][0].raw == payload[1][0].raw
    assert back[2] == b"blob"


def test_estimate_is_shape_only(codec, threshold3):
    """Fixed-width encoding: size is independent of the numeric values."""
    small = threshold3.public_key.encrypt(0, obfuscate=False)
    large = threshold3.encrypt(2**100)
    assert len(codec.serialize(small)) == len(codec.serialize(large))
    zeros = PartialDecryptionVector(0, (0, 0))
    reals = PartialDecryptionVector(
        0, tuple(threshold3.shares[0].partial_decrypt(large).value for _ in range(2))
    )
    assert len(codec.serialize(zeros)) == len(codec.serialize(reals))


def test_unsupported_payload_rejected(codec):
    with pytest.raises(WireFormatError):
        codec.serialize(object())
    with pytest.raises(WireFormatError):
        codec.estimate({"dicts": "are not wire types"})


def test_foreign_key_rejected(codec, keypair):
    other_pk, _ = keypair
    if other_pk == codec.public_key:  # pragma: no cover - different keygen calls
        pytest.skip("fixtures produced identical keys")
    with pytest.raises(WireFormatError):
        codec.serialize(other_pk.encrypt(1))
    foreign = EncryptedNumber(codec.encoder, other_pk.encrypt(1), 0)
    with pytest.raises(WireFormatError):
        codec.serialize(foreign)


def test_shares_require_modulus(threshold3):
    codec = WireCodec(threshold3.public_key)  # no share modulus
    with pytest.raises(WireFormatError):
        codec.serialize(ShareVector((1, 2)))


def test_malformed_streams_rejected(codec, threshold3):
    data = codec.serialize(threshold3.encrypt(9))
    with pytest.raises(WireFormatError):
        codec.deserialize(data[:-1])  # truncated
    with pytest.raises(WireFormatError):
        codec.deserialize(data + b"\x00")  # trailing garbage
    with pytest.raises(WireFormatError):
        codec.deserialize(b"\xff" + data[1:])  # unknown tag
    # Hostile bytes raise WireFormatError and nothing else: 10 kB of nested
    # vector headers (was RecursionError), a request whose op is not UTF-8
    # (was UnicodeDecodeError).
    bare = WireCodec(None)
    with pytest.raises(WireFormatError, match="nests deeper"):
        bare.deserialize(b"\x06\x00\x00\x00\x01" * 2000 + b"\x0a" + bytes(8))
    with pytest.raises(WireFormatError, match="not utf-8"):
        bare.deserialize(b"\x09\x02\xff\xfe" + b"\x0a" + bytes(8))
    # Truncation sweep: every strict prefix of a valid encoding of each
    # wire type is rejected, and with the typed error.
    ct = threshold3.encrypt(5)
    partial = threshold3.shares[0].partial_decrypt(ct)
    one_of_each = [
        ct,
        codec.encoder.encrypt(-3.25),
        partial,
        PartialDecryptionVector(1, (partial.value, partial.value)),
        ShareVector((1, Q - 1)),
        [ct, [7, b"ab"]],
        b"blob",
        -(2**70),
        Request("split-stats", [1, 2.5]),
        2.5,
    ]
    for payload in one_of_each:
        data = codec.serialize(payload)
        for cut in range(len(data)):
            with pytest.raises(WireFormatError):
                codec.deserialize(data[:cut])


def test_nesting_is_bounded_on_both_sides(codec):
    payload = 7
    for _ in range(MAX_DEPTH):
        payload = [payload]
    assert codec.deserialize(codec.serialize(payload)) == payload
    with pytest.raises(WireFormatError, match="nests deeper"):
        codec.serialize([payload])
    # The deepest message the protocols send has five levels (a node-split
    # request: op, body, label vectors, one vector, its elements).
    node_split = Request("node-split", [3, [[1, 2], [3, 4]]])
    assert codec.deserialize(codec.serialize(node_split)) == node_split

