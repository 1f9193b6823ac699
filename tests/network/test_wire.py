"""Wire format: round trips, measured-size == formula, malformed input."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import EncryptedNumber, PaillierEncoder
from repro.crypto.paillier import Ciphertext, PaillierPublicKey
from repro.crypto.threshold import combine_partial_vectors
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
    # The protocol-spec width of one ciphertext.
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
    """Real partial decryptions survive the wire, as the share vectors a
    decryption flow sends, and still combine."""
    ct = threshold3.encrypt(-77)
    vectors = [
        PartialDecryptionVector(share.party_index, (share.partial_decrypt(ct).value,))
        for share in threshold3.shares
    ]
    back = [_roundtrip(codec, v) for v in vectors]
    assert back == vectors
    assert combine_partial_vectors(threshold3.public_key, back, 3) == [-77]


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


def test_codec_is_freed_without_the_cycle_collector(threshold3):
    """No bound row holds its codec, so a codec and the key material it
    references (the public key's mask table) go with the last reference,
    not at the next full collection."""
    codec = WireCodec(threshold3.public_key, share_modulus=Q)
    alive = weakref.ref(codec)
    gc.disable()
    try:
        del codec
        assert alive() is None
    finally:
        gc.enable()


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


def test_values_the_layout_cannot_carry_are_refused(codec):
    too_wide = 1 << (8 * codec.share_width)
    for payload in (
        ShareVector((-1,)),
        ShareVector((too_wide,)),
        PartialDecryptionVector(-1, ()),
        Request("x" * 256),
        True,
        [1, False],
    ):
        with pytest.raises(WireFormatError):
            codec.serialize(payload)


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



# -- the format is a contract between processes: pinned bytes -----------------

#: A fixed key (any odd modulus serves the codec) and the encoding of one
#: payload of each wire type; a peer built from another commit reads these.
GOLDEN_N = (2**31 - 1) * (2**61 - 1)
GOLDEN_HEX = {
    "Ciphertext": "0100000000000000000123456789abcdef0123456789abcdef",
    "EncryptedNumber": "02ffffffd800000000000000000000000000000000000000000000004d",
    "PartialDecryptionVector": "0400020000000200000000000000000000000000000000000000000000"
    "000500fffffffbfffffff40000003fffffffffffffff00000000",
    "ShareVector": "050000000300000000000000000000000000000000000000000000000000"
    "000000000000017ffffffffffffffffffffffffffffffe",
    "list": "06000000020100000000000000000123456789abcdef0123456789abcdef0600"
    "0000020800000000010707000000026162",
    "tuple": "06000000020800000000010308010000000104",
    "bytes": "0700000004626c6f62",
    "int": "080100000009400000000000000000",
    "Request": "090b73706c69742d73746174730600000002080000000001010a4004000000000000",
    "float": "0abfc0000000000000",
}


def test_golden_encodings_are_unchanged():
    pk = PaillierPublicKey(GOLDEN_N)
    codec = WireCodec(pk, share_modulus=Q)
    ct = Ciphertext(pk, 0x0123456789ABCDEF0123456789ABCDEF)
    payloads = {
        "Ciphertext": ct,
        "EncryptedNumber": EncryptedNumber(PaillierEncoder(pk), Ciphertext(pk, 77), -40),
        "PartialDecryptionVector": PartialDecryptionVector(2, (5, GOLDEN_N**2 - 1)),
        "ShareVector": ShareVector((0, 1, Q - 1)),
        "list": [ct, [7, b"ab"]],
        "tuple": (3, -4),
        "bytes": b"blob",
        "int": -(2**70),
        "Request": Request("split-stats", [1, 2.5]),
        "float": -0.125,
    }
    for name, payload in payloads.items():
        data = codec.serialize(payload)
        assert data.hex() == GOLDEN_HEX[name], name
        assert codec.serialize(codec.deserialize(data)) == data


def test_retired_partial_decryption_tag_is_unknown():
    """Tag 0x03 (one partial decryption) has no row: an old peer's frame is
    refused with the typed error, not read as something else."""
    pk = PaillierPublicKey(GOLDEN_N)
    bound = WireCodec(pk)
    old_frame = b"\x03" + (1).to_bytes(2, "big") + bytes(bound.ciphertext_width)
    for codec in (bound, WireCodec(None)):
        with pytest.raises(WireFormatError, match="unknown wire tag 0x03"):
            codec.deserialize(old_frame)


# -- rejections the table adds -------------------------------------------------


def test_non_canonical_ints_rejected():
    """One value, one encoding: a zero-width or zero-padded magnitude (and
    a negative zero) would make byte counts a function of the sender."""
    bare = WireCodec(None)
    for hex_bytes in ("080000000000", "080000000003000005", "08010000000100"):
        with pytest.raises(WireFormatError):
            bare.deserialize(bytes.fromhex(hex_bytes))
    assert bare.deserialize(bytes.fromhex("08000000000100")) == 0
    assert bare.serialize(0).hex() == "08000000000100"


def test_counts_are_checked_before_any_item_is_read(codec):
    """A header claiming 2^32 - 1 items with 10 bytes left raises at the
    header, whatever the items are."""
    for tag in (b"\x06", b"\x05", b"\x04\x00\x01"):
        with pytest.raises(WireFormatError, match="cannot fit in the 10 bytes left"):
            codec.deserialize(tag + b"\xff\xff\xff\xff" + b"\x0a" * 10)
    with pytest.raises(WireFormatError, match="truncated"):
        codec.deserialize(b"\x07\xff\xff\xff\xff" + bytes(10))
