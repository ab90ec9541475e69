"""Canonical binary encoding shared by every protocol object.

Layout rules: fields in declaration order, integers big-endian fixed
width, byte strings 4-byte length-prefixed, lists 4-byte count-prefixed.
Every top-level object starts with a 1-byte type tag so encodings of
different types can never collide and unions (e.g. block tx lists) are
decodable.

Each wire type is stated once, as a `Layout` of ordered (field, codec)
rows, which its module compiles at import into straight-line functions,
as `dataclasses` writes `__init__`: each run of fixed-width integers is
packed by one `struct.Struct`, and nothing walks the rows per call.
A layout also compiles, per row, the encoder of the rows from it on:
the tail that a signed message leaves out of the wire.
"""

from __future__ import annotations

import struct
from typing import Callable, NamedTuple


class DecodeError(ValueError):
    """Raised when bytes do not parse as a well-formed protocol object."""


_U32 = struct.Struct(">I").pack


def length_prefixed(data: bytes) -> bytes:
    """`data` as the `bytes_` codec writes it: a 4-byte length, then the bytes."""
    return _U32(len(data)) + data


class Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def tell(self) -> int:
        return self._pos

    def since(self, start: int) -> bytes:
        """The bytes read from offset `start` on."""
        return self._data[start:self._pos]

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


# --- field tables -----------------------------------------------------------

# the globals of generated code: packers, hand codecs, nested decoders
_NS: dict[str, object] = {"_lp": length_prefixed}


def _global(obj: object) -> str:
    """A name bound to `obj` in the namespace of generated code."""
    name = f"_g{len(_NS)}"
    _NS[name] = obj
    return name


def _join(parts: list[tuple[str | None, str]]) -> str:
    """One expression of the bytes `parts` describe (see `Codec`), each
    run of fixed-width integers packed by one `struct.Struct`."""
    exprs: list[str] = []
    fmt, args = "", []
    for char, expr in [*parts, (None, "")]:
        if char is not None:
            fmt += char
            args.append(expr)
            continue
        if fmt:
            pack = f"_pack_{fmt}"
            _NS.setdefault(pack, struct.Struct(">" + fmt).pack)
            exprs.append(f"{pack}({', '.join(args)})")
            fmt, args = "", []
        if expr:
            exprs.append(expr)
    if len(exprs) <= 2:
        return " + ".join(exprs) or 'b""'
    return f'b"".join(({", ".join(exprs)}))'


class Codec(NamedTuple):
    """One row's wire format, as Python source for the layout compiler.

    `parts(v)` encodes the value of the expression `v` as a list of
    (format, expression) pairs: a `struct` format character and the
    integer it packs, or None and an expression of bytes. `read` is an
    expression that reads the value back from the Reader `r`.
    """

    parts: Callable[[str], list[tuple[str | None, str]]]
    read: str


u8 = Codec(lambda v: [("B", v)], "r.u8()")
u64 = Codec(lambda v: [("Q", v)], "r.u64()")
i32 = Codec(lambda v: [("i", v)], "r.i32()")
bytes_ = Codec(lambda v: [("I", f"len({v})"), (None, v)], "r.bytes_()")
string = Codec(lambda v: [(None, f"_lp({v}.encode())")], "r.string()")


def raw(n: int) -> Codec:
    """Exactly `n` bytes, without a length."""
    return Codec(lambda v: [(None, v)], f"r.raw({n})")


def list_of(item: Codec | Layout) -> Codec:
    """A 4-byte count, then each item."""
    return Codec(lambda v: [("I", f"len({v})"), (
        None, f'b"".join([{_join(item.parts("x"))} for x in {v}])')],
        f"tuple([{item.read} for _ in range(r.u32())])")


def hand(encode: Callable[..., bytes],
         decode: Callable[[Reader], object]) -> Codec:
    """A codec written by hand, for a format that branches on a value.

    `encode` takes the row's field values and returns their bytes;
    `decode` reads them back, as a tuple for a row of several fields.
    """
    enc, dec = _global(encode), _global(decode)
    return Codec(lambda v: [(None, f"{enc}({v})")], f"{dec}(r)")


def _parts(rows: tuple, value: str) -> list[tuple[str | None, str]]:
    """The parts of `rows`, each field's value being `value.format(name)`."""
    return [p for names, codec in rows
            for p in codec.parts(", ".join(value.format(f) for f in names))]


# the tagged layouts, by the type they encode and by tag
LAYOUTS: dict[type, Layout] = {}
_BY_TAG: dict[int, Layout] = {}


class Layout:
    """A wire type: its ordered (field, codec) rows, compiled once.

    A row names one field, or a tuple of fields that a hand codec writes
    together. `make` builds the decoded object from the fields in row
    order; it defaults to `cls` and may check values or derive fields.
    With a `tag` the layout is a top-level type, encoded after its tag
    byte by `canonical_encode`; without one it is a record nested in
    other layouts (a layout is a codec), its fields written in place.
    `encode(obj)` and `decode(reader)` are the compiled functions, and
    `tails[field](obj)` encodes the rows from `field` on: what a signer
    appends to the message it signed, and what a check cuts off `wire`
    to slice that message back (`txmodel.Chained`).
    """

    def __init__(self, cls: type, tag: int | None, rows,
                 make: Callable | None = None) -> None:
        self.rows = tuple(((f,) if isinstance(f, str) else tuple(f), codec)
                          for f, codec in rows)
        self.tag_byte = b"" if tag is None else bytes((tag,))
        name = cls.__name__
        head = [] if tag is None else [("B", str(tag))]
        reads = "".join(f"    {', '.join(names)} = {codec.read}\n"
                        for names, codec in self.rows)
        fields = ", ".join(f for names, _ in self.rows for f in names)
        src = [f"def encode_{name}(o):\n"
               f"    return {_join(head + self.parts('o'))}\n",
               f"def decode_{name}(r):\n{reads}"
               f"    return {_global(make or cls)}({fields})\n"]
        src += [f"def {name}_from_{names[0]}(o):\n"
                f"    return {_join(_parts(self.rows[i:], 'o.{}'))}\n"
                for i, (names, _) in enumerate(self.rows)]
        ns: dict[str, Callable] = {}
        exec("".join(src), _NS, ns)
        self.encode, self.decode = ns[f"encode_{name}"], ns[f"decode_{name}"]
        self.tails = {names[0]: ns[f"{name}_from_{names[0]}"]
                      for names, _ in self.rows}
        self.read = f"{_global(self.decode)}(r)"
        if tag is not None:
            if tag in _BY_TAG:
                raise ValueError(f"tag {tag:#x} already registered")
            LAYOUTS[cls] = _BY_TAG[tag] = self

    def parts(self, v: str) -> list[tuple[str | None, str]]:
        return _parts(self.rows, v + ".{}")

    def fields_before(self, field: str | None = None) -> Callable[..., bytes]:
        """Compile the encoder of the rows before `field` (of every row
        when None), which takes their fields as positional arguments: the
        message a signature in `field` covers."""
        rows = self.rows
        if field is not None:
            rows = rows[:[names[0] for names, _ in rows].index(field)]
        args = ", ".join(f for names, _ in rows for f in names)
        ns: dict[str, Callable] = {}
        exec(f"def fields({args}):\n    return {_join(_parts(rows, '{}'))}\n",
             _NS, ns)
        return ns["fields"]


def canonical_encode(obj: object) -> bytes:
    try:
        layout = LAYOUTS[type(obj)]
    except KeyError:
        raise TypeError(f"no canonical codec for {type(obj).__name__}") from None
    return layout.encode(obj)


def decode_from(r: Reader) -> object:
    tag = r.u8()
    try:
        layout = _BY_TAG[tag]
    except KeyError:
        raise DecodeError(f"unknown type tag {tag:#x}") from None
    return layout.decode(r)


def canonical_decode(data: bytes) -> object:
    r = Reader(data)
    obj = decode_from(r)
    r.expect_eof()
    return obj
