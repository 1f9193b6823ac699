"""The wire codec and the socket framing against generated and hostile bytes.

Generated payload trees of every wire type, nested up to ``MAX_DEPTH``,
round-trip at their estimated size; arbitrary bytes and mutated valid
encodings either raise the typed error (``WireFormatError`` /
``FrameError``) or decode to something that re-encodes to the very same
bytes — one value, one encoding.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.encoding import EncryptedNumber
from repro.crypto.paillier import Ciphertext, PaillierPublicKey
from repro.network.transport import Envelope, FrameError, decode_frame, encode_frame
from repro.network.wire import (
    MAX_DEPTH,
    PartialDecryptionVector,
    Request,
    ShareVector,
    WireCodec,
    WireFormatError,
)

N = (2**31 - 1) * (2**61 - 1)  # any odd modulus serves the codec
Q = 2**127 - 1
PK = PaillierPublicKey(N)
CODEC = WireCodec(PK, share_modulus=Q)
BARE = WireCodec(None)

raws = st.integers(0, N * N - 1)
leaves = st.one_of(
    st.builds(lambda raw: Ciphertext(PK, raw), raws),
    st.builds(
        lambda exponent, raw: EncryptedNumber(CODEC.encoder, Ciphertext(PK, raw), exponent),
        st.integers(-(2**31), 2**31 - 1),
        raws,
    ),
    st.builds(
        PartialDecryptionVector, st.integers(0, 2**16 - 1), st.lists(raws, max_size=3).map(tuple)
    ),
    st.builds(ShareVector, st.lists(st.integers(0, Q - 1), max_size=3).map(tuple)),
    st.binary(max_size=12),
    st.integers(-(2**80), 2**80),
    st.floats(),
)
ops = st.text(max_size=8)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.builds(Request, ops, children),
    ),
    max_leaves=6,
)


def _depth(payload):
    """Nesting levels below ``payload`` (an upper bound, as the codec counts)."""
    if isinstance(payload, Request):
        return 1 + _depth(payload.body)
    if isinstance(payload, (list, tuple)):
        return 1 + max(map(_depth, payload), default=0)
    return 0


@st.composite
def payloads(draw):
    """A generated tree, wrapped in vectors and requests toward MAX_DEPTH."""
    payload = draw(trees)
    for _ in range(draw(st.integers(0, max(0, MAX_DEPTH - _depth(payload))))):
        payload = draw(st.sampled_from([[payload], (payload,), Request("wrap", payload)]))
    return payload


def _plain(payload):
    """What a payload carries, comparable with ``==`` (NaNs by their bits)."""
    if isinstance(payload, Ciphertext):
        return ("ct", payload.raw)
    if isinstance(payload, EncryptedNumber):
        return ("en", payload.exponent, payload.ciphertext.raw)
    if isinstance(payload, Request):
        return ("request", payload.op, _plain(payload.body))
    if isinstance(payload, (list, tuple)):
        return [_plain(item) for item in payload]
    if isinstance(payload, float):
        return ("float", struct.pack(">d", payload))
    return payload


def _decodes_canonically(codec, data):
    """Either the typed error, or a payload that re-encodes to ``data``."""
    try:
        payload = codec.deserialize(data)
    except WireFormatError:
        return
    assert codec.serialize(payload) == data
    assert codec.estimate(payload) == len(data)


@settings(deadline=None, max_examples=150)
@given(payload=payloads())
def test_generated_payloads_round_trip_at_their_estimate(payload):
    data = CODEC.serialize(payload)
    assert len(data) == CODEC.estimate(payload)
    back = CODEC.deserialize(data)
    assert _plain(back) == _plain(payload)
    assert CODEC.serialize(back) == data


#: Well-framed bare ints with any sign byte, width and magnitude bytes.
framed_ints = st.builds(
    lambda sign, magnitude: b"\x08" + bytes([sign]) + struct.pack(">I", len(magnitude))
    + magnitude,
    st.integers(0, 2),
    st.binary(max_size=3),
)


@settings(deadline=None, max_examples=300)
@given(data=st.one_of(st.binary(max_size=48), framed_ints))
def test_arbitrary_bytes_raise_only_wire_format_error(data):
    for codec in (CODEC, BARE):
        _decodes_canonically(codec, data)


@settings(deadline=None, max_examples=200)
@given(payload=payloads(), edit=st.data())
def test_mutated_encodings_raise_only_wire_format_error(payload, edit):
    data = bytearray(CODEC.serialize(payload))
    at = edit.draw(st.integers(0, len(data) - 1))
    mutation = edit.draw(st.sampled_from(["flip", "drop", "insert", "cut"]))
    if mutation == "flip":
        data[at] ^= edit.draw(st.integers(1, 255))
    elif mutation == "drop":
        del data[at]
    elif mutation == "insert":
        data.insert(at, edit.draw(st.integers(0, 255)))
    else:
        del data[at:]
    for codec in (CODEC, BARE):
        _decodes_canonically(codec, bytes(data))


def _frame_decodes_canonically(body):
    try:
        envelope = decode_frame(body)
    except FrameError:
        return
    assert encode_frame(envelope) == struct.pack("!I", len(body)) + body


@settings(deadline=None, max_examples=300)
@given(body=st.binary(max_size=40))
def test_arbitrary_frames_raise_only_frame_error(body):
    _frame_decodes_canonically(body)


@settings(deadline=None, max_examples=200)
@given(
    envelope=st.builds(
        Envelope,
        st.integers(0, 2**32 - 1),
        st.integers(0, 2**32 - 1),
        st.text(max_size=8),
        st.binary(max_size=16),
    ),
    edit=st.data(),
)
def test_mutated_frames_raise_only_frame_error(envelope, edit):
    body = bytearray(encode_frame(envelope)[4:])
    at = edit.draw(st.integers(0, len(body) - 1))
    body[at] ^= edit.draw(st.integers(1, 255))
    _frame_decodes_canonically(bytes(body))
    _frame_decodes_canonically(bytes(body[:at]))
