"""Canonical binary encoding shared by every protocol object.

Layout rules: fields in declaration order, integers big-endian fixed
width, byte strings 4-byte length-prefixed, lists 4-byte count-prefixed.
Every top-level object starts with a 1-byte type tag so encodings of
different types can never collide and unions (e.g. block tx lists) are
decodable.
"""

from __future__ import annotations

import struct
from typing import Callable


class DecodeError(ValueError):
    """Raised when bytes do not parse as a well-formed protocol object."""


_U8 = struct.Struct(">B").pack
_U32 = struct.Struct(">I").pack
_U64 = struct.Struct(">Q").pack
_I32 = struct.Struct(">i").pack


class Writer:
    __slots__ = ("_chunks",)

    def __init__(self) -> None:
        self._chunks: list[bytes] = []

    def raw(self, data: bytes) -> None:
        self._chunks.append(bytes(data))

    def u8(self, value: int) -> None:
        self._chunks.append(_U8(value))

    def u32(self, value: int) -> None:
        self._chunks.append(_U32(value))

    def u64(self, value: int) -> None:
        self._chunks.append(_U64(value))

    def i32(self, value: int) -> None:
        self._chunks.append(_I32(value))

    def bytes_(self, data: bytes) -> None:
        chunks = self._chunks
        chunks.append(_U32(len(data)))
        chunks.append(bytes(data))

    def bytes_list(self, items: tuple[bytes, ...]) -> None:
        """A count-prefixed list of length-prefixed byte strings."""
        self._chunks.append(_U32(len(items)) + b"".join(
            [_U32(len(data)) + data for data in items]))

    def string(self, text: str) -> None:
        self.bytes_(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)


def length_prefixed(data: bytes) -> bytes:
    """`data` as `Writer.bytes_` writes it: a 4-byte length, then the bytes."""
    return _U32(len(data)) + data


class Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def raw(self, n: int) -> bytes:
        if n < 0 or self._pos + n > len(self._data):
            raise DecodeError("truncated input")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return struct.unpack(">B", self.raw(1))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.raw(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self.raw(8))[0]

    def i32(self) -> int:
        return struct.unpack(">i", self.raw(4))[0]

    def bytes_(self) -> bytes:
        return self.raw(self.u32())

    def string(self) -> str:
        try:
            return self.bytes_().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError(f"invalid utf-8: {exc}") from exc

    def expect_eof(self) -> None:
        if self._pos != len(self._data):
            raise DecodeError("trailing bytes after object")


# Type-tag registry. Modules register their wire types at import time;
# the tag byte leads every canonical encoding.

_ENCODERS: dict[type, tuple[int, Callable]] = {}
_DECODERS: dict[int, Callable] = {}


def register_codec(cls: type, tag: int,
                   encode_body: Callable[[object, Writer], None],
                   decode_body: Callable[[Reader], object]) -> None:
    if tag in _DECODERS:
        raise ValueError(f"tag {tag:#x} already registered")
    _ENCODERS[cls] = (tag, encode_body)
    _DECODERS[tag] = decode_body


def encode_into(obj: object, w: Writer) -> None:
    """Write the tagged canonical encoding of `obj` into `w`."""
    try:
        tag, body = _ENCODERS[type(obj)]
    except KeyError:
        raise TypeError(f"no canonical codec for {type(obj).__name__}") from None
    w.u8(tag)
    body(obj, w)


def canonical_encode(obj: object) -> bytes:
    w = Writer()
    encode_into(obj, w)
    return w.getvalue()


def decode_from(r: Reader) -> object:
    tag = r.u8()
    try:
        body = _DECODERS[tag]
    except KeyError:
        raise DecodeError(f"unknown type tag {tag:#x}") from None
    return body(r)


def canonical_decode(data: bytes) -> object:
    r = Reader(data)
    obj = decode_from(r)
    r.expect_eof()
    return obj
