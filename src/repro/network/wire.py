"""Wire format for the protocol's network payloads (length-prefixed big ints).

Every message the Pivot protocols move — encrypted label/mask/statistic
vectors ([γ], [α], Eq. 7/9 outputs), Algorithm 2's mask ciphertexts,
threshold partial decryptions, secret shares — is one of a small set of
big-integer payloads.  :class:`WireCodec` turns those objects into bytes
and back, so the :class:`~repro.network.bus.MessageBus` can record the
*measured* size of a real serialized message instead of a hand-maintained
``n_bytes`` formula (which is how the (m−1) double-count and the missing
partial-decryption bytes crept into the seed's accounting).

Layout (all integers big-endian):

====  =======================  ==========================================
tag   payload                  body
====  =======================  ==========================================
0x01  ``Ciphertext``           raw, fixed ``ciphertext_width`` bytes
0x02  ``EncryptedNumber``      exponent (int32) + raw (``ciphertext_width``)
0x03  ``PartialDecryption``    party (uint16) + value (``ciphertext_width``)
0x04  ``PartialDecryptionVector``  party (uint16) + count (uint32) + values
0x05  ``ShareVector``          count (uint32) + field elements (``share_width``)
0x06  ``list`` / ``tuple``     count (uint32) + serialized items (recursive)
0x07  ``bytes``                length (uint32) + raw blob
0x08  ``int``                  sign (uint8) + length (uint32) + magnitude
0x09  ``Request``              op length (uint8) + op (utf-8) + body (recursive)
0x0A  ``float``                IEEE-754 double, 8 bytes
====  =======================  ==========================================

Big ints are encoded **fixed-width**: ciphertexts and partial decryptions
(both elements of Z_{n²}) take exactly ``2 * ceil(n_bits / 8)`` bytes — the
same value as the protocol-spec formula ``PivotContext.ciphertext_bytes`` —
and secret shares take ``ceil(q_bits / 8)`` bytes.  Fixed width makes the
serialized size a pure function of the payload *shape*, so
:meth:`WireCodec.estimate` can predict ``len(serialize(payload))`` with
arithmetic alone; the bus records both and ``cost_snapshot()`` reconciles
them (measured == estimated is asserted by the wire property tests and by
the end-to-end reconciliation test on real training runs).

The bare-``int`` (0x08), :class:`Request` (0x09) and ``float`` (0x0A)
types are *key-independent*: they serialize without a bound public key.
Distributed key generation runs over the bus **before** any Paillier key
exists, so a codec may be constructed with ``public_key=None`` and bound
later (:meth:`WireCodec.bind`) once the keygen flow has produced pk —
until then only the key-independent types serialize and everything else
raises :class:`WireFormatError`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any

from repro.crypto.encoding import EncryptedNumber, PaillierEncoder
from repro.crypto.paillier import Ciphertext, PaillierPublicKey
from repro.crypto.threshold import PartialDecryption

__all__ = [
    "Request",
    "ShareVector",
    "PartialDecryptionVector",
    "WireCodec",
    "WireFormatError",
]

_TAG_CIPHERTEXT = 0x01
_TAG_ENCRYPTED_NUMBER = 0x02
_TAG_PARTIAL = 0x03
_TAG_PARTIAL_VECTOR = 0x04
_TAG_SHARES = 0x05
_TAG_VECTOR = 0x06
_TAG_BYTES = 0x07
_TAG_INT = 0x08
_TAG_REQUEST = 0x09
_TAG_FLOAT = 0x0A

#: Framing sizes (bytes): type tag, element count, fixed-point exponent
#: (signed), party index, raw-blob length, int sign, request-op length,
#: IEEE-754 double.
TAG_BYTES = 1
COUNT_BYTES = 4
EXPONENT_BYTES = 4
PARTY_BYTES = 2
LENGTH_BYTES = 4
SIGN_BYTES = 1
OP_LEN_BYTES = 1
FLOAT_BYTES = 8

#: Deepest nesting of vectors and requests a payload may have, on either
#: side of the wire.  The protocols' deepest message nests five levels (a
#: ``node-split`` request's per-party γ lists); the bound keeps a few
#: kilobytes of nested vector headers from exhausting the parser's stack.
MAX_DEPTH = 16


class WireFormatError(ValueError):
    """A payload cannot be serialized, or a byte stream cannot be parsed."""


@dataclass(frozen=True)
class Request:
    """A reactive-flow request: the super client asks a party to act.

    ``op`` names the handler a :class:`~repro.federation.party.PartyRuntime`
    dispatches to (e.g. ``"split-stats"``, ``"convert-masks"``); ``body``
    is any serializable payload carrying the operands.  Requests are
    key-independent so the keygen bootstrap flow can use them before a
    public key exists.
    """

    op: str
    body: Any = ()


@dataclass(frozen=True)
class ShareVector:
    """A vector of additive secret shares (field elements mod q)."""

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PartialDecryptionVector:
    """One party's decryption shares for a batch of ciphertexts.

    A deployment sends the whole vector as one message (the protocols
    always threshold-decrypt batches of statistics); ``values`` are
    elements of Z_{n²} like the ciphertexts themselves.
    """

    party_index: int
    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)


class WireCodec:
    """Serializer/deserializer bound to one deployment's key material.

    The codec needs the public key to fix the ciphertext width (and to
    rebuild :class:`Ciphertext` objects on the receiving side) and the MPC
    field modulus to fix the share width.  ``estimate`` computes the exact
    serialized size of a payload from its shape alone — the corrected
    per-value byte formulas, kept next to the serializer so they cannot
    drift from it.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey | None,
        share_modulus: int | None = None,
        encoder: PaillierEncoder | None = None,
    ):
        self.public_key = None
        self.ciphertext_width: int | None = None
        self.encoder = None
        self.share_modulus = share_modulus
        self.share_width = (
            (share_modulus.bit_length() + 7) // 8 if share_modulus else None
        )
        if public_key is not None:
            self.bind(public_key, encoder)
        elif encoder is not None:
            raise WireFormatError("encoder without a public key")

    def bind(
        self,
        public_key: PaillierPublicKey,
        encoder: PaillierEncoder | None = None,
    ) -> None:
        """Attach key material once keygen has produced it.

        A codec built with ``public_key=None`` (the distributed-keygen
        bootstrap) only handles key-independent payloads until bound.
        """
        self.public_key = public_key
        #: Fixed ciphertext width: 2 * ceil(n_bits / 8) bytes holds any
        #: element of Z_{n²} and matches the protocol-spec formula.
        self.ciphertext_width = 2 * ((public_key.n.bit_length() + 7) // 8)
        self.encoder = encoder or PaillierEncoder(public_key)

    # -- sizes (the corrected byte formulas) -------------------------------

    def estimate(self, payload: object) -> int:
        """Exact serialized size, computed without serializing."""
        if isinstance(payload, Ciphertext):
            return TAG_BYTES + self._cipher_width()
        if isinstance(payload, EncryptedNumber):
            return TAG_BYTES + EXPONENT_BYTES + self._cipher_width()
        if isinstance(payload, PartialDecryption):
            return TAG_BYTES + PARTY_BYTES + self._cipher_width()
        if isinstance(payload, PartialDecryptionVector):
            return (
                TAG_BYTES
                + PARTY_BYTES
                + COUNT_BYTES
                + len(payload.values) * self._cipher_width()
            )
        if isinstance(payload, ShareVector):
            return TAG_BYTES + COUNT_BYTES + len(payload.values) * self._share_width()
        if isinstance(payload, Request):
            op = payload.op.encode("utf-8")
            return (
                TAG_BYTES + OP_LEN_BYTES + len(op) + self.estimate(payload.body)
            )
        if isinstance(payload, bool):
            raise WireFormatError("bool payloads are ambiguous on the wire")
        if isinstance(payload, int):
            return TAG_BYTES + SIGN_BYTES + LENGTH_BYTES + _int_width(payload)
        if isinstance(payload, float):
            return TAG_BYTES + FLOAT_BYTES
        if isinstance(payload, (list, tuple)):
            return TAG_BYTES + COUNT_BYTES + sum(self.estimate(p) for p in payload)
        if isinstance(payload, bytes):
            return TAG_BYTES + LENGTH_BYTES + len(payload)
        raise WireFormatError(f"unsupported payload type {type(payload).__name__}")

    # -- serialization -----------------------------------------------------

    def serialize(self, payload: object) -> bytes:
        out = bytearray()
        self._write(out, payload, 0)
        return bytes(out)

    def _write(self, out: bytearray, payload: object, depth: int) -> None:
        if depth > MAX_DEPTH:
            raise WireFormatError(f"payload nests deeper than {MAX_DEPTH}")
        if isinstance(payload, Ciphertext):
            w = self._cipher_width()
            if payload.public_key != self.public_key:
                raise WireFormatError("ciphertext under a different public key")
            out.append(_TAG_CIPHERTEXT)
            out += self._big(payload.raw, w)
        elif isinstance(payload, EncryptedNumber):
            w = self._cipher_width()
            if payload.ciphertext.public_key != self.public_key:
                raise WireFormatError("ciphertext under a different public key")
            out.append(_TAG_ENCRYPTED_NUMBER)
            out += payload.exponent.to_bytes(EXPONENT_BYTES, "big", signed=True)
            out += self._big(payload.ciphertext.raw, w)
        elif isinstance(payload, PartialDecryption):
            out.append(_TAG_PARTIAL)
            out += payload.party_index.to_bytes(PARTY_BYTES, "big")
            out += self._big(payload.value, self._cipher_width())
        elif isinstance(payload, PartialDecryptionVector):
            w = self._cipher_width()
            out.append(_TAG_PARTIAL_VECTOR)
            out += payload.party_index.to_bytes(PARTY_BYTES, "big")
            out += len(payload.values).to_bytes(COUNT_BYTES, "big")
            for value in payload.values:
                out += self._big(value, w)
        elif isinstance(payload, Request):
            op = payload.op.encode("utf-8")
            if len(op) > 255:
                raise WireFormatError(f"request op too long: {payload.op!r}")
            out.append(_TAG_REQUEST)
            out.append(len(op))
            out += op
            self._write(out, payload.body, depth + 1)
        elif isinstance(payload, bool):
            raise WireFormatError("bool payloads are ambiguous on the wire")
        elif isinstance(payload, int):
            width = _int_width(payload)
            out.append(_TAG_INT)
            out.append(1 if payload < 0 else 0)
            out += width.to_bytes(LENGTH_BYTES, "big")
            out += abs(payload).to_bytes(width, "big")
        elif isinstance(payload, float):
            out.append(_TAG_FLOAT)
            out += struct.pack(">d", payload)
        elif isinstance(payload, ShareVector):
            sw = self._share_width()
            out.append(_TAG_SHARES)
            out += len(payload.values).to_bytes(COUNT_BYTES, "big")
            for value in payload.values:
                out += self._big(value, sw)
        elif isinstance(payload, (list, tuple)):
            out.append(_TAG_VECTOR)
            out += len(payload).to_bytes(COUNT_BYTES, "big")
            for item in payload:
                self._write(out, item, depth + 1)
        elif isinstance(payload, bytes):
            out.append(_TAG_BYTES)
            out += len(payload).to_bytes(LENGTH_BYTES, "big")
            out += payload
        else:
            raise WireFormatError(
                f"unsupported payload type {type(payload).__name__}"
            )

    # -- deserialization ---------------------------------------------------

    def deserialize(self, data: bytes) -> Any:
        payload, offset = self._read(memoryview(data), 0, 0)
        if offset != len(data):
            raise WireFormatError(
                f"{len(data) - offset} trailing bytes after payload"
            )
        return payload

    def _read(
        self, view: memoryview, offset: int, depth: int
    ) -> tuple[Any, int]:
        if depth > MAX_DEPTH:
            raise WireFormatError(f"payload nests deeper than {MAX_DEPTH}")
        tag = self._take_int(view, offset, TAG_BYTES)
        offset += TAG_BYTES
        if tag == _TAG_CIPHERTEXT:
            w = self._cipher_width()
            raw = self._take_int(view, offset, w)
            return Ciphertext(self.public_key, raw), offset + w
        if tag == _TAG_ENCRYPTED_NUMBER:
            w = self._cipher_width()
            exponent = int.from_bytes(
                view[offset : offset + EXPONENT_BYTES], "big", signed=True
            )
            offset += EXPONENT_BYTES
            raw = self._take_int(view, offset, w)
            ct = Ciphertext(self.public_key, raw)
            return EncryptedNumber(self.encoder, ct, exponent), offset + w
        if tag == _TAG_PARTIAL:
            w = self._cipher_width()
            party = self._take_int(view, offset, PARTY_BYTES)
            offset += PARTY_BYTES
            value = self._take_int(view, offset, w)
            return PartialDecryption(party, value), offset + w
        if tag == _TAG_PARTIAL_VECTOR:
            w = self._cipher_width()
            party = self._take_int(view, offset, PARTY_BYTES)
            offset += PARTY_BYTES
            count = self._take_int(view, offset, COUNT_BYTES)
            offset += COUNT_BYTES
            values = []
            for _ in range(count):
                values.append(self._take_int(view, offset, w))
                offset += w
            return PartialDecryptionVector(party, tuple(values)), offset
        if tag == _TAG_INT:
            sign = self._take_int(view, offset, SIGN_BYTES)
            offset += SIGN_BYTES
            width = self._take_int(view, offset, LENGTH_BYTES)
            offset += LENGTH_BYTES
            magnitude = self._take_int(view, offset, width)
            if sign not in (0, 1) or (sign and magnitude == 0):
                raise WireFormatError("malformed signed integer")
            return (-magnitude if sign else magnitude), offset + width
        if tag == _TAG_REQUEST:
            op_len = self._take_int(view, offset, OP_LEN_BYTES)
            offset += OP_LEN_BYTES
            if offset + op_len > len(view):
                raise WireFormatError("truncated request op")
            try:
                op = bytes(view[offset : offset + op_len]).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise WireFormatError(f"request op is not utf-8: {exc}") from exc
            offset += op_len
            body, offset = self._read(view, offset, depth + 1)
            return Request(op, body), offset
        if tag == _TAG_FLOAT:
            if offset + FLOAT_BYTES > len(view):
                raise WireFormatError("truncated float payload")
            (value,) = struct.unpack(
                ">d", bytes(view[offset : offset + FLOAT_BYTES])
            )
            return value, offset + FLOAT_BYTES
        if tag == _TAG_SHARES:
            sw = self._share_width()
            count = self._take_int(view, offset, COUNT_BYTES)
            offset += COUNT_BYTES
            values = []
            for _ in range(count):
                values.append(self._take_int(view, offset, sw))
                offset += sw
            return ShareVector(tuple(values)), offset
        if tag == _TAG_VECTOR:
            count = self._take_int(view, offset, COUNT_BYTES)
            offset += COUNT_BYTES
            items = []
            for _ in range(count):
                item, offset = self._read(view, offset, depth + 1)
                items.append(item)
            return items, offset
        if tag == _TAG_BYTES:
            length = self._take_int(view, offset, LENGTH_BYTES)
            offset += LENGTH_BYTES
            if offset + length > len(view):
                raise WireFormatError("truncated raw blob")
            return bytes(view[offset : offset + length]), offset + length
        raise WireFormatError(f"unknown wire tag 0x{tag:02x}")

    # -- helpers -----------------------------------------------------------

    def _cipher_width(self) -> int:
        if self.ciphertext_width is None:
            raise WireFormatError(
                "codec is not bound to a public key yet (distributed keygen "
                "in progress); only key-independent payloads are available"
            )
        return self.ciphertext_width

    def _share_width(self) -> int:
        if self.share_width is None:
            raise WireFormatError(
                "codec was built without a share modulus; cannot encode shares"
            )
        return self.share_width

    @staticmethod
    def _big(value: int, width: int) -> bytes:
        if value < 0:
            raise WireFormatError(f"negative big int {value} on the wire")
        try:
            return value.to_bytes(width, "big")
        except OverflowError as exc:
            raise WireFormatError(
                f"value of {value.bit_length()} bits exceeds the fixed "
                f"width of {width} bytes"
            ) from exc

    @staticmethod
    def _take_int(view: memoryview, offset: int, width: int) -> int:
        if offset + width > len(view):
            raise WireFormatError("truncated payload")
        return int.from_bytes(view[offset : offset + width], "big")


def _int_width(value: int) -> int:
    """Minimal byte width of a bare int's magnitude (>= 1)."""
    return max(1, (abs(value).bit_length() + 7) // 8)
