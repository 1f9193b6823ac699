"""Wire format for the protocol's network payloads.

Every message the Pivot protocols move — encrypted label/mask/statistic
vectors ([γ], [α], Eq. 7/9 outputs), Algorithm 2's mask ciphertexts,
threshold decryption shares, secret shares, reactive-flow requests — is one
of a small set of payload types.  :class:`WireCodec` turns them into bytes
and back, so the :class:`~repro.network.bus.MessageBus` records the
*measured* size of a real serialized message.

The format is :data:`LAYOUT`, one :class:`Row` per wire type; ``estimate``,
``serialize`` and ``deserialize`` interpret that table and nothing else, so
``estimate(p) == len(serialize(p))`` holds by construction and a new wire
type is a new row.  Ciphertexts and decryption shares (elements of Z_{n²})
take exactly ``2 * ceil(n_bits / 8)`` bytes — the protocol-spec formula,
:attr:`WireCodec.ciphertext_width` — and secret shares ``ceil(q_bits / 8)``.

The decoder reads bytes from a possibly corrupted peer: every count or
length is checked against the bytes left before anything is read, nesting
is bounded by :data:`MAX_DEPTH` on both sides, a bare int must use its
minimal width, and anything else raises :class:`WireFormatError`.  A byte
string the decoder accepts therefore re-encodes to itself.

Rows whose fields need no key material (ints, floats, bytes, requests and
vectors of them) work on a codec built with ``public_key=None``:
distributed key generation runs over the bus before any Paillier key
exists, and binds the codec (:meth:`WireCodec.bind`) once it has one.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass
from itertools import repeat
from typing import Any, NamedTuple, Union

from repro.crypto.encoding import EncryptedNumber, PaillierEncoder
from repro.crypto.paillier import Ciphertext, PaillierPublicKey

__all__ = [
    "LAYOUT",
    "MAX_DEPTH",
    "Request",
    "ShareVector",
    "PartialDecryptionVector",
    "WireCodec",
    "WireFormatError",
]

#: Framing widths (bytes): type tag, element count, fixed-point exponent
#: (signed), party index, raw-blob or int-magnitude length.
TAG_BYTES = 1
COUNT_BYTES = 4
EXPONENT_BYTES = 4
PARTY_BYTES = 2
LENGTH_BYTES = 4

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


# -- field kinds: each binds to a codec's widths -------------------------------


class Bound(NamedTuple):
    """A field or row at one codec's widths.  Each function takes the codec
    first (held by no closure, so a codec is never part of a reference
    cycle) and ``put``/``get`` the nesting depth last; ``least`` is the
    fewest bytes an encoding takes, ``fixed`` that every one takes that."""

    size: Callable[[WireCodec, Any], int]
    put: Callable[[WireCodec, bytearray, Any, int], None]
    get: Callable[[WireCodec, memoryview, int, int], tuple[Any, int]]
    least: int = 0
    fixed: bool = False


def _end(view: memoryview, offset: int, width: int) -> int:
    """Where ``width`` bytes from ``offset`` end; refuses to pass the data."""
    if offset + width > len(view):
        raise WireFormatError("truncated payload")
    return offset + width


#: Why a codec lacks a width a :class:`Fixed` field names.
_UNAVAILABLE = {
    "ciphertext_width": "codec is not bound to a public key yet (distributed "
    "keygen in progress); only key-independent payloads are available",
    "share_width": "codec was built without a share modulus; cannot encode shares",
}


@dataclass(frozen=True)
class Fixed:
    """An int in ``width`` bytes: a byte count, or the name of the codec
    attribute holding one (``"ciphertext_width"``, ``"share_width"``)."""

    width: int | str
    signed: bool = False

    def bind(self, codec: WireCodec) -> Bound:
        width = self.width if isinstance(self.width, int) else getattr(codec, self.width)
        if width is None:
            raise WireFormatError(_UNAVAILABLE[str(self.width)])
        signed = self.signed

        def put(codec: WireCodec, out: bytearray, value: int, depth: int) -> None:
            try:
                out += value.to_bytes(width, "big", signed=signed)
            except OverflowError:
                if value < 0 and not signed:
                    raise WireFormatError("negative int in an unsigned field") from None
                raise WireFormatError(
                    f"an int of {value.bit_length()} bits exceeds the fixed "
                    f"width of {width} bytes"
                ) from None

        def get(codec: WireCodec, view: memoryview, offset: int, depth: int) -> tuple[int, int]:
            end = offset + width
            if end > len(view):
                raise WireFormatError("truncated payload")
            return int.from_bytes(view[offset:end], "big", signed=signed), end

        return Bound(lambda codec, value: width, put, get, width, True)


def _int_width(value: int) -> int:
    """Minimal byte width of a bare int's magnitude (>= 1)."""
    return max(1, (value.bit_length() + 7) // 8)


@dataclass(frozen=True)
class Magnitude:
    """A non-negative int of any size: its width (``LENGTH_BYTES``), then the
    fewest bytes that hold it — at least one, no leading zero byte."""

    def bind(self, codec: WireCodec) -> Bound:
        def put(codec: WireCodec, out: bytearray, value: int, depth: int) -> None:
            width = _int_width(value)
            out += width.to_bytes(LENGTH_BYTES, "big")
            out += value.to_bytes(width, "big")

        def get(codec: WireCodec, view: memoryview, offset: int, depth: int) -> tuple[int, int]:
            start = _end(view, offset, LENGTH_BYTES)
            width = int.from_bytes(view[offset:start], "big")
            end = _end(view, start, width)
            if width == 0 or (width > 1 and view[start] == 0):
                raise WireFormatError(
                    f"non-canonical int: a {width}-byte magnitude is not minimal"
                )
            return int.from_bytes(view[start:end], "big"), end

        return Bound(
            lambda codec, value: LENGTH_BYTES + _int_width(value), put, get, LENGTH_BYTES + 1
        )


@dataclass(frozen=True)
class Blob:
    """Bytes after a ``prefix``-byte length; ``utf8`` carries a str."""

    prefix: int
    utf8: bool = False

    def bind(self, codec: WireCodec) -> Bound:
        prefix, utf8 = self.prefix, self.utf8

        def encode(value: Any) -> bytes:
            return value.encode("utf-8") if utf8 else value

        def put(codec: WireCodec, out: bytearray, value: Any, depth: int) -> None:
            data = encode(value)
            if len(data) >= 1 << (8 * prefix):
                raise WireFormatError(f"{len(data)} bytes overflow a {prefix}-byte length")
            out += len(data).to_bytes(prefix, "big")
            out += data

        def get(codec: WireCodec, view: memoryview, offset: int, depth: int) -> tuple[Any, int]:
            start = _end(view, offset, prefix)
            end = _end(view, start, int.from_bytes(view[offset:start], "big"))
            data = bytes(view[start:end])
            try:
                return (data.decode("utf-8") if utf8 else data), end
            except UnicodeDecodeError as exc:
                raise WireFormatError(f"string is not utf-8: {exc}") from exc

        return Bound(lambda codec, value: prefix + len(encode(value)), put, get, prefix)


_DOUBLE = struct.Struct(">d")


@dataclass(frozen=True)
class Double:
    """An IEEE-754 double."""

    def bind(self, codec: WireCodec) -> Bound:
        def put(codec: WireCodec, out: bytearray, value: float, depth: int) -> None:
            out += _DOUBLE.pack(value)

        def get(codec: WireCodec, view: memoryview, offset: int, depth: int) -> tuple[float, int]:
            end = _end(view, offset, _DOUBLE.size)
            return _DOUBLE.unpack_from(view, offset)[0], end

        return Bound(lambda codec, value: _DOUBLE.size, put, get, _DOUBLE.size, True)


@dataclass(frozen=True)
class Nested:
    """Any payload, tagged, one nesting level down."""

    def bind(self, codec: WireCodec) -> Bound:
        return Bound(WireCodec._size, WireCodec._write, WireCodec._read, TAG_BYTES)


@dataclass(frozen=True)
class Repeat:
    """A count (``COUNT_BYTES``), then that many ``item`` fields."""

    item: Field

    def bind(self, codec: WireCodec) -> Bound:
        item = self.item.bind(codec)
        size_item, put_item, get_item, least = item.size, item.put, item.get, item.least

        def size(codec: WireCodec, values: Any) -> int:
            if item.fixed:
                return COUNT_BYTES + len(values) * least
            return COUNT_BYTES + sum(map(size_item, repeat(codec), values))

        def put(codec: WireCodec, out: bytearray, values: Any, depth: int) -> None:
            out += len(values).to_bytes(COUNT_BYTES, "big")
            for value in values:
                put_item(codec, out, value, depth)

        def get(
            codec: WireCodec, view: memoryview, offset: int, depth: int
        ) -> tuple[list[Any], int]:
            start = _end(view, offset, COUNT_BYTES)
            count, left = int.from_bytes(view[offset:start], "big"), len(view) - start
            if count * least > left:
                raise WireFormatError(f"{count} items cannot fit in the {left} bytes left")
            values = []
            for _ in range(count):
                value, start = get_item(codec, view, start, depth)
                values.append(value)
            return values, start

        return Bound(size, put, get, COUNT_BYTES)


Field = Union[Fixed, Magnitude, Blob, Double, Nested, Repeat]


# -- the table -----------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One wire type: tag byte, the classes it carries, its one or two
    fields, and how a payload splits into field values (``split``) and is
    rebuilt from them (``rebuild``); both take the codec for its keys."""

    tag: int
    types: tuple[type, ...]
    fields: tuple[Field] | tuple[Field, Field]
    split: Callable[..., tuple[Any, ...]]
    rebuild: Callable[..., Any]

    def bind(self, codec: WireCodec) -> Bound:
        """The row at the codec's widths (raising on use if the codec lacks
        one).  Unrolled per field count: it is every vector element's path."""
        try:
            fields = [f.bind(codec) for f in self.fields]
        except WireFormatError as missing:
            reason = str(missing)

            def unavailable(*_: Any) -> Any:
                raise WireFormatError(reason)

            return Bound(unavailable, unavailable, unavailable)
        tag, split, rebuild = self.tag, self.split, self.rebuild
        size0, put0, get0, least0, fixed0 = fields[0]
        if len(fields) == 1:

            def size(codec: WireCodec, payload: Any) -> int:
                return TAG_BYTES + size0(codec, split(codec, payload)[0])

            def put(codec: WireCodec, out: bytearray, payload: Any, depth: int) -> None:
                (value,) = split(codec, payload)
                out.append(tag)
                put0(codec, out, value, depth + 1)

            def get(codec: WireCodec, view: memoryview, offset: int, depth: int) -> tuple[Any, int]:
                value, offset = get0(codec, view, offset, depth + 1)
                return rebuild(codec, value), offset

            least, fixed = TAG_BYTES + least0, fixed0
        else:
            size1, put1, get1, least1, fixed1 = fields[1]

            def size(codec: WireCodec, payload: Any) -> int:
                first, second = split(codec, payload)
                return TAG_BYTES + size0(codec, first) + size1(codec, second)

            def put(codec: WireCodec, out: bytearray, payload: Any, depth: int) -> None:
                first, second = split(codec, payload)
                out.append(tag)
                put0(codec, out, first, depth + 1)
                put1(codec, out, second, depth + 1)

            def get(codec: WireCodec, view: memoryview, offset: int, depth: int) -> tuple[Any, int]:
                first, offset = get0(codec, view, offset, depth + 1)
                second, offset = get1(codec, view, offset, depth + 1)
                return rebuild(codec, first, second), offset

            least, fixed = TAG_BYTES + least0 + least1, fixed0 and fixed1
        if fixed:
            return Bound(lambda codec, payload: least, put, get, least, True)
        return Bound(size, put, get, least)


def _raw(codec: WireCodec, ciphertext: Ciphertext) -> int:
    """A ciphertext's raw value, refused unless it is under the codec's key."""
    key = ciphertext.public_key
    if key is not codec.public_key and key != codec.public_key:
        raise WireFormatError("ciphertext under a different public key")
    return ciphertext.raw


def _signed(codec: WireCodec, sign: int, magnitude: int) -> int:
    if sign > 1 or (sign and not magnitude):
        raise WireFormatError("malformed signed integer")
    return -magnitude if sign else magnitude


_CIPHER = Fixed("ciphertext_width")

#: The wire format, one row per type.  Tag 0x03 (a single partial
#: decryption) is retired: decryption shares travel as vectors (0x04).
LAYOUT: tuple[Row, ...] = (
    Row(0x01, (Ciphertext,), (_CIPHER,),
        lambda c, ct: (_raw(c, ct),),
        lambda c, raw: Ciphertext(c.public_key, raw)),
    Row(0x02, (EncryptedNumber,), (Fixed(EXPONENT_BYTES, signed=True), _CIPHER),
        lambda c, x: (x.exponent, _raw(c, x.ciphertext)),
        lambda c, exp, raw: EncryptedNumber(c.encoder, Ciphertext(c.public_key, raw), exp)),
    Row(0x04, (PartialDecryptionVector,), (Fixed(PARTY_BYTES), Repeat(_CIPHER)),
        lambda c, v: (v.party_index, v.values),
        lambda c, party, values: PartialDecryptionVector(party, tuple(values))),
    Row(0x05, (ShareVector,), (Repeat(Fixed("share_width")),),
        lambda c, v: (v.values,),
        lambda c, values: ShareVector(tuple(values))),
    Row(0x06, (list, tuple), (Repeat(Nested()),), lambda c, v: (v,), lambda c, v: v),
    Row(0x07, (bytes,), (Blob(LENGTH_BYTES),), lambda c, b: (b,), lambda c, b: b),
    Row(0x08, (int,), (Fixed(1), Magnitude()), lambda c, x: (int(x < 0), abs(x)), _signed),
    Row(0x09, (Request,), (Blob(1, utf8=True), Nested()),
        lambda c, r: (r.op, r.body),
        lambda c, op, body: Request(op, body)),
    Row(0x0A, (float,), (Double(),), lambda c, x: (x,), lambda c, x: x),
)


class WireCodec:
    """Serializer/deserializer bound to one deployment's key material.

    The public key fixes the ciphertext width (and rebuilds
    :class:`Ciphertext` objects on the receiving side); the MPC field
    modulus fixes the share width.  Every operation interprets
    :data:`LAYOUT` at those widths.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey | None,
        share_modulus: int | None = None,
        encoder: PaillierEncoder | None = None,
    ):
        self.public_key: PaillierPublicKey | None = None
        self.ciphertext_width: int | None = None
        self.encoder: PaillierEncoder | None = None
        self.share_modulus = share_modulus
        self.share_width = (
            (share_modulus.bit_length() + 7) // 8 if share_modulus else None
        )
        if public_key is not None:
            self.bind(public_key, encoder)
        elif encoder is not None:
            raise WireFormatError("encoder without a public key")
        else:
            self._bind_layout()

    def bind(
        self,
        public_key: PaillierPublicKey,
        encoder: PaillierEncoder | None = None,
    ) -> None:
        """Attach key material once keygen has produced it.

        A codec built with ``public_key=None`` (every federation's, until
        its keygen finishes) only handles key-independent payloads until
        bound.
        """
        self.public_key = public_key
        #: Fixed ciphertext width: 2 * ceil(n_bits / 8) bytes holds any
        #: element of Z_{n²} and matches the protocol-spec formula.
        self.ciphertext_width = 2 * ((public_key.n.bit_length() + 7) // 8)
        self.encoder = encoder or PaillierEncoder(public_key)
        self._bind_layout()

    def _bind_layout(self) -> None:
        self._by_type: dict[type, Bound] = {}
        self._by_tag: list[Bound | None] = [None] * 256
        for row in LAYOUT:
            self._by_tag[row.tag] = bound = row.bind(self)
            self._by_type.update(dict.fromkeys(row.types, bound))

    def estimate(self, payload: object) -> int:
        """Exact serialized size, computed without serializing."""
        return self._size(payload)

    def serialize(self, payload: object) -> bytes:
        out = bytearray()
        self._write(out, payload, 0)
        return bytes(out)

    def deserialize(self, data: bytes) -> Any:
        view = memoryview(data)
        payload, offset = self._read(view, 0, 0)
        if offset != len(view):
            raise WireFormatError(f"{len(view) - offset} trailing bytes after payload")
        return payload

    # -- table dispatch ----------------------------------------------------

    def _subclass_row(self, payload: object) -> Bound:
        """The row of a payload whose exact type has none (a subclass)."""
        if isinstance(payload, bool):
            raise WireFormatError("bool payloads are ambiguous on the wire")
        for cls in type(payload).__mro__:
            if cls in self._by_type:
                return self._by_type[cls]
        raise WireFormatError(f"unsupported payload type {type(payload).__name__}")

    def _size(self, payload: object) -> int:
        row = self._by_type.get(type(payload)) or self._subclass_row(payload)
        return row.size(self, payload)

    def _write(self, out: bytearray, payload: object, depth: int) -> None:
        if depth > MAX_DEPTH:
            raise WireFormatError(f"payload nests deeper than {MAX_DEPTH}")
        row = self._by_type.get(type(payload)) or self._subclass_row(payload)
        row.put(self, out, payload, depth)

    def _read(self, view: memoryview, offset: int, depth: int) -> tuple[Any, int]:
        if depth > MAX_DEPTH:
            raise WireFormatError(f"payload nests deeper than {MAX_DEPTH}")
        if offset >= len(view):
            raise WireFormatError("truncated payload")
        row = self._by_tag[view[offset]]
        if row is None:
            raise WireFormatError(f"unknown wire tag 0x{view[offset]:02x}")
        return row.get(self, view, offset + TAG_BYTES, depth)
