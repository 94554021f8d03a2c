"""CDR (Common Data Representation) marshalling.

A real, big-endian CDR encoder/decoder with the alignment rules of the OMG
specification (each primitive aligned on its natural boundary relative to
the start of the stream).  Supports the primitive types used by the
reproduction's IDL interfaces plus strings, octet/typed sequences and
structs.  Property-based tests round-trip arbitrary values through it.

The byte path
-------------

The encoder builds *parts*, not one buffer: primitives, strings and
padding coalesce (by copy — they are a few bytes) into the current header
part, while the body of an octet sequence or a numeric array is appended by
reference (:func:`repro.simnet.buffers.immutable`).  ``getvalue`` returns
the parts as a :class:`~repro.simnet.buffers.Gather` whose ``bytes()`` is
the classic contiguous encoding; GIOP splices its own header in front and
the whole message goes down the stack as one gather write.  Never
``+``/``join`` a body onto a header here — append it.

The decoder walks the *parts* of the received message (a gathered read
hands it the sender's own buffers; a flat buffer is one part) with a stream
offset for alignment.  A value inside one part is read through a view; only
a span that crosses parts is joined.  What the application keeps is real
``bytes``: an octet sequence that is exactly one ``bytes`` part is returned
as it is — the client's object, over a SAN — else materialised, once.
"""

from __future__ import annotations

import struct
import sys
from typing import Any, Dict, List, Sequence, Tuple

from repro.simnet.buffers import Gather, immutable


class CdrError(RuntimeError):
    """Marshalling errors (truncated buffers, type mismatches, ...)."""


class CdrOutputStream:
    """Encoder: coalesces small values, appends bulk bodies by reference."""

    def __init__(self) -> None:
        self._buf = bytearray()  # the header part being coalesced
        self._parts: List[bytes] = []  # the parts completed before it
        self._done = 0  # bytes in ``_parts`` (stream offset of ``_buf``)

    def _align(self, boundary: int) -> None:
        pad = (-(self._done + len(self._buf))) % boundary
        self._buf += b"\x00" * pad

    def _pack(self, fmt: str, boundary: int, value) -> None:
        self._align(boundary)
        self._buf += struct.pack(fmt, value)

    # primitives --------------------------------------------------------------
    def put_octet(self, value: int) -> None:
        self._pack("!B", 1, value)

    def put_boolean(self, value: bool) -> None:
        self._pack("!B", 1, 1 if value else 0)

    def put_short(self, value: int) -> None:
        self._pack("!h", 2, value)

    def put_long(self, value: int) -> None:
        self._pack("!i", 4, value)

    def put_ulong(self, value: int) -> None:
        self._pack("!I", 4, value)

    def put_longlong(self, value: int) -> None:
        self._pack("!q", 8, value)

    def put_float(self, value: float) -> None:
        self._pack("!f", 4, value)

    def put_double(self, value: float) -> None:
        self._pack("!d", 8, value)

    def put_string(self, value: str) -> None:
        raw = value.encode("utf-8") + b"\x00"
        self.put_ulong(len(raw))
        self._buf += raw

    def put_octet_sequence(self, value: bytes) -> None:
        value = immutable(value)
        self.put_ulong(len(value))
        self._put_part(value)

    def put_raw(self, value: bytes) -> None:
        """Append a bulk body by reference (snapshotted when mutable)."""
        self._put_part(immutable(value))

    def _put_part(self, value: bytes) -> None:
        if not len(value):
            return
        if self._buf:
            self._parts.append(bytes(self._buf))
            self._done += len(self._buf)
            self._buf = bytearray()
        self._parts.append(value)
        self._done += len(value)

    def getvalue(self) -> Gather:
        """The encoding so far; ``bytes()`` of it is the contiguous image."""
        return Gather((*self._parts, bytes(self._buf)))

    def __len__(self) -> int:
        return self._done + len(self._buf)


class CdrInputStream:
    """Decoder: reads CDR-encoded values sequentially, over the parts of a
    :class:`~repro.simnet.buffers.Gather` or one flat buffer."""

    def __init__(self, data):
        if isinstance(data, Gather):
            first, *self._rest = data.parts or (b"",)
        else:
            first, self._rest = data, ()
        self._view = memoryview(first)  # the part under the cursor
        self._base = 0  # stream offsets of its two ends
        self._limit = len(self._view)
        self._pos = 0  # stream offset: what alignment is relative to
        self._size = len(data)

    def _align(self, boundary: int) -> None:
        self._pos += (-self._pos) % boundary

    def _unpack(self, fmt: str, boundary: int, size: int):
        pos = self._pos + (-self._pos) % boundary
        if pos + size <= self._limit:
            self._pos = pos + size
            return struct.unpack_from(fmt, self._view, pos - self._base)[0]
        self._pos = pos
        return struct.unpack(fmt, self.get_view(size))[0]

    # primitives --------------------------------------------------------------
    def get_octet(self) -> int:
        return self._unpack("!B", 1, 1)

    def get_boolean(self) -> bool:
        return bool(self._unpack("!B", 1, 1))

    def get_short(self) -> int:
        return self._unpack("!h", 2, 2)

    def get_long(self) -> int:
        return self._unpack("!i", 4, 4)

    def get_ulong(self) -> int:
        return self._unpack("!I", 4, 4)

    def get_longlong(self) -> int:
        return self._unpack("!q", 8, 8)

    def get_float(self) -> float:
        return self._unpack("!f", 4, 4)

    def get_double(self) -> float:
        return self._unpack("!d", 8, 8)

    def get_string(self) -> str:
        length = self.get_ulong()
        raw = self.get_view(length)
        if not length or raw[-1] != 0:
            raise CdrError("CDR string is not NUL-terminated")
        return str(raw[:-1], "utf-8")

    def get_octet_sequence(self) -> bytes:
        """The sequence as real ``bytes`` the application may keep: the part
        itself when it is exactly one ``bytes`` part, else one copy."""
        length = self.get_ulong()
        raw = self.get_view(length)
        whole = raw.obj
        return whole if type(whole) is bytes and len(whole) == length else bytes(raw)

    def get_view(self, length: int) -> memoryview:
        """The next ``length`` bytes as one read-only buffer: a view of the
        part they sit in, or — they cross parts — of their join."""
        pos = self._pos
        end = pos + length
        if end <= self._limit:
            self._pos = end
            return self._view[pos - self._base : end - self._base]
        if end > self._size:
            raise CdrError(
                f"truncated CDR stream: need {length} bytes at offset {pos}, "
                f"have {self._size - pos}"
            )
        self._pos = end
        while pos >= self._limit and self._rest:
            self._next_part()
        pieces = [self._view[pos - self._base : end - self._base]]
        while end > self._limit:
            self._next_part()
            pieces.append(self._view[: end - self._base])
        return pieces[0] if len(pieces) == 1 else memoryview(b"".join(pieces))

    def _next_part(self) -> None:
        self._view = memoryview(self._rest.pop(0))
        self._base = self._limit
        self._limit += len(self._view)

    @property
    def remaining(self) -> int:
        return self._size - self._pos


# ---------------------------------------------------------------------------
# TypeCodes: minimal reflective typing used by the IDL layer
# ---------------------------------------------------------------------------


class TypeCode:
    """A marshallable type: knows how to encode/decode one value."""

    name = "abstract"

    def encode(self, out: CdrOutputStream, value) -> None:
        raise NotImplementedError

    def decode(self, inp: CdrInputStream):
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TypeCode {self.name}>"


class _Primitive(TypeCode):
    def __init__(self, name: str, putter: str, getter: str):
        self.name = name
        self._putter = putter
        self._getter = getter

    def encode(self, out: CdrOutputStream, value) -> None:
        getattr(out, self._putter)(value)

    def decode(self, inp: CdrInputStream):
        return getattr(inp, self._getter)()


class _Void(TypeCode):
    name = "void"

    def encode(self, out: CdrOutputStream, value) -> None:
        if value is not None:
            raise CdrError("void type cannot carry a value")

    def decode(self, inp: CdrInputStream):
        return None


class _OctetSeq(TypeCode):
    name = "sequence<octet>"

    def encode(self, out: CdrOutputStream, value) -> None:
        np = sys.modules.get("numpy")  # an ndarray ``value`` means numpy is loaded
        if np is not None and isinstance(value, np.ndarray):
            value = value.tobytes()
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise CdrError(f"sequence<octet> requires bytes, got {type(value).__name__}")
        out.put_octet_sequence(value)

    def decode(self, inp: CdrInputStream):
        return inp.get_octet_sequence()


class _TypedSeq(TypeCode):
    """Sequence of a fixed-size numeric type, carried as a numpy array."""

    def __init__(self, name: str, np_dtype: str, itemsize: int, align: int):
        self.name = name
        self.np_dtype = np_dtype
        self.itemsize = itemsize
        self.align = align

    def encode(self, out: CdrOutputStream, value) -> None:
        import numpy as np

        arr = np.asarray(value, dtype=self.np_dtype)
        out.put_ulong(arr.size)
        out._align(self.align)
        out.put_raw(arr.astype(f">{self.np_dtype[1:]}").tobytes())

    def decode(self, inp: CdrInputStream):
        import numpy as np

        count = inp.get_ulong()
        inp._align(self.align)
        raw = inp.get_view(count * self.itemsize)
        return np.frombuffer(raw, dtype=f">{self.np_dtype[1:]}").astype(self.np_dtype)


class SequenceTC(TypeCode):
    """Sequence of an arbitrary element TypeCode (list on the Python side)."""

    def __init__(self, element: TypeCode):
        self.element = element
        self.name = f"sequence<{element.name}>"

    def encode(self, out: CdrOutputStream, value: Sequence) -> None:
        out.put_ulong(len(value))
        for item in value:
            self.element.encode(out, item)

    def decode(self, inp: CdrInputStream) -> List:
        count = inp.get_ulong()
        return [self.element.decode(inp) for _ in range(count)]


class StructTC(TypeCode):
    """A named struct: ordered (field, TypeCode) pairs, dict on the Python side."""

    def __init__(self, name: str, fields: Sequence[Tuple[str, TypeCode]]):
        self.name = name
        self.fields = list(fields)

    def encode(self, out: CdrOutputStream, value: Dict[str, Any]) -> None:
        for field_name, tc in self.fields:
            if field_name not in value:
                raise CdrError(f"struct {self.name} missing field {field_name!r}")
            tc.encode(out, value[field_name])

    def decode(self, inp: CdrInputStream) -> Dict[str, Any]:
        return {field_name: tc.decode(inp) for field_name, tc in self.fields}


TC_VOID = _Void()
TC_OCTET = _Primitive("octet", "put_octet", "get_octet")
TC_BOOLEAN = _Primitive("boolean", "put_boolean", "get_boolean")
TC_SHORT = _Primitive("short", "put_short", "get_short")
TC_LONG = _Primitive("long", "put_long", "get_long")
TC_ULONG = _Primitive("unsigned long", "put_ulong", "get_ulong")
TC_LONGLONG = _Primitive("long long", "put_longlong", "get_longlong")
TC_FLOAT = _Primitive("float", "put_float", "get_float")
TC_DOUBLE = _Primitive("double", "put_double", "get_double")
TC_STRING = _Primitive("string", "put_string", "get_string")
TC_OCTET_SEQ = _OctetSeq()
TC_DOUBLE_SEQ = _TypedSeq("sequence<double>", "<f8", 8, 8)
TC_LONG_SEQ = _TypedSeq("sequence<long>", "<i4", 4, 4)
