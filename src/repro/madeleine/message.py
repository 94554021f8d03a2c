"""Incremental packing / unpacking messages (the Madeleine API style).

Madeleine's key interface idea — which the paper's Circuit abstract interface
inherits — is *incremental packing with explicit semantics*: the sender packs
several buffers into one logical message, annotating each with how eagerly it
must be available on the receive side:

``EXPRESS``
    the receiver needs this piece immediately to decide how to continue
    unpacking (headers, sizes, routing information).  Express data may be
    aggregated with other express data and is delivered first.

``CHEAPER``
    the receiver will ask for this piece later; the library is free to use
    the cheapest strategy (zero-copy / rendezvous for large payloads).

The pack/unpack calls must match pairwise on both sides — enforced here, and
checked by property-based tests.

The byte path
-------------

Packing keeps a *reference* to each buffer (:func:`repro.simnet.buffers.immutable`:
writable buffers are snapshotted once, at ``pack``), and ``end_packing``
puts the segment list itself on the wire as a :class:`SegmentGather` — the
frame's length is the wire length, 5-byte segment headers included, but no
contiguous image is built.  The receiver's :class:`MadIncoming` takes the
segments as they are, so ``unpack`` returns the very object the sender
packed.  :func:`encode_segments` / :func:`decode_segments` remain the single
definition of the wire image: ``bytes(gather) == encode_segments(segments)``,
and a frame that had to be flattened (it crossed a process boundary) is
decoded from that image.
"""

from __future__ import annotations

import enum
import struct
from typing import List, Optional, Sequence, Tuple

from repro.simnet.buffers import ByteRing, Gather, immutable


class MadeleineError(RuntimeError):
    """Protocol misuse (mismatched pack/unpack, channel errors, ...)."""


class PackMode(enum.Enum):
    """Packing semantics for one buffer of a message."""

    EXPRESS = "express"
    CHEAPER = "cheaper"

    @property
    def wire_code(self) -> int:
        return 0 if self is PackMode.EXPRESS else 1

    @classmethod
    def from_wire(cls, code: int) -> "PackMode":
        if code == 0:
            return cls.EXPRESS
        if code == 1:
            return cls.CHEAPER
        raise MadeleineError(f"unknown pack mode code {code}")


#: wire header in front of every packed segment: (mode, length)
_SEGMENT_HEADER = struct.Struct("!BI")


class MadMessage:
    """A message under construction on the send side (incremental packing)."""

    def __init__(self, dst_rank: int, dst_name: str = ""):
        self.dst_rank = dst_rank
        self.dst_name = dst_name
        self._segments: List[Tuple[PackMode, bytes]] = []
        self._finished = False
        #: running totals over the packed segments (headers excluded)
        self.payload_bytes = 0
        self.express_bytes = 0

    def pack(self, data: bytes, mode: PackMode = PackMode.CHEAPER) -> "MadMessage":
        """Append one buffer to the message (by reference when immutable)."""
        if self._finished:
            raise MadeleineError("pack() after end_packing()")
        if not isinstance(mode, PackMode):
            raise MadeleineError(f"mode must be a PackMode, got {mode!r}")
        data = immutable(data)
        self._segments.append((mode, data))
        self.payload_bytes += len(data)
        if mode is PackMode.EXPRESS:
            self.express_bytes += len(data)
        return self

    def pack_express(self, data: bytes) -> "MadMessage":
        return self.pack(data, PackMode.EXPRESS)

    def pack_cheaper(self, data: bytes) -> "MadMessage":
        return self.pack(data, PackMode.CHEAPER)

    @property
    def segment_count(self) -> int:
        return len(self._segments)

    def finish(self) -> "SegmentGather":
        """Freeze the message into its wire image (called by ``end_packing``)."""
        if self._finished:
            raise MadeleineError("end_packing() called twice")
        self._finished = True
        return SegmentGather(self._segments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MadMessage to={self.dst_name or self.dst_rank} segs={self.segment_count} {self.payload_bytes}B>"


class MadIncoming:
    """A received message being unpacked incrementally on the receive side."""

    def __init__(self, src_rank: int, raw, src_name: str = ""):
        self.src_rank = src_rank
        self.src_name = src_name
        #: the sender's segments as they are when the wire image arrived by
        #: reference; decoded from the flat image otherwise
        self._segments = (
            raw.segments if isinstance(raw, SegmentGather) else decode_segments(raw)
        )
        self.payload_bytes = len(raw) - segment_overhead(len(self._segments))
        self._cursor = 0
        self._finished = False

    def unpack(self, mode: Optional[PackMode] = None) -> bytes:
        """Extract the next buffer; ``mode`` (if given) must match the sender's."""
        if self._finished:
            raise MadeleineError("unpack() after end_unpacking()")
        if self._cursor >= len(self._segments):
            raise MadeleineError("unpack() past the end of the message")
        seg_mode, data = self._segments[self._cursor]
        if mode is not None and mode is not seg_mode:
            raise MadeleineError(
                f"unpack mode mismatch at segment {self._cursor}: "
                f"sender packed {seg_mode.value}, receiver expects {mode.value}"
            )
        self._cursor += 1
        return data

    def unpack_express(self) -> bytes:
        return self.unpack(PackMode.EXPRESS)

    def unpack_cheaper(self) -> bytes:
        return self.unpack(PackMode.CHEAPER)

    @property
    def remaining_segments(self) -> int:
        return len(self._segments) - self._cursor

    def peek_mode(self) -> PackMode:
        if self._cursor >= len(self._segments):
            raise MadeleineError("no segment left to peek at")
        return self._segments[self._cursor][0]

    def end_unpacking(self, require_drained: bool = False) -> None:
        """Finish unpacking; with ``require_drained`` every segment must have
        been consumed (useful to catch protocol mismatches in tests)."""
        if require_drained and self._cursor != len(self._segments):
            raise MadeleineError(
                f"end_unpacking() with {self.remaining_segments} segment(s) not consumed"
            )
        self._finished = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MadIncoming from={self.src_name or self.src_rank} segs={len(self._segments)}>"


def _wire_parts(segments: Sequence[Tuple[PackMode, bytes]]) -> List[bytes]:
    """The wire image of ``segments`` as a list of buffers, in order."""
    parts: List[bytes] = []
    for mode, data in segments:
        parts.append(_SEGMENT_HEADER.pack(mode.wire_code, len(data)))
        if isinstance(data, Gather):
            parts.extend(data.parts)
        elif len(data):
            parts.append(data)
    return parts


class SegmentGather(Gather):
    """The wire image of a packed message, carried by reference.

    ``parts`` alternate a 5-byte segment header and the segment's own
    buffer(s); ``segments`` is the ``(mode, data)`` sequence they frame,
    which the receive side takes as it is.  The data must already be
    immutable (``MadMessage.pack`` sees to that).
    """

    __slots__ = ("segments",)

    def __init__(self, segments: Sequence[Tuple[PackMode, bytes]]) -> None:
        self.segments = tuple(segments)
        self.parts = tuple(_wire_parts(segments))
        self.nbytes = sum(map(len, self.parts))


def encode_segments(segments: Sequence[Tuple[PackMode, bytes]]) -> bytes:
    """Serialise (mode, data) segments into one contiguous wire buffer."""
    return b"".join(_wire_parts(segments))


def decode_segments(raw) -> List[Tuple[PackMode, bytes]]:
    """Inverse of :func:`encode_segments` (validates framing).

    ``raw`` is the flat image or a gather of it (a frame body read off a
    byte stream in pieces): each segment comes out as ``bytes``, the very
    part when it is one, joined — that segment alone — when it is several.
    """
    ring = ByteRing(raw)
    segments: List[Tuple[PackMode, bytes]] = []
    while ring:
        header = ring.take(_SEGMENT_HEADER.size)
        if len(header) < _SEGMENT_HEADER.size:
            raise MadeleineError("truncated segment header")
        code, length = _SEGMENT_HEADER.unpack(header)
        if length > len(ring):
            raise MadeleineError("truncated segment payload")
        segments.append((PackMode.from_wire(code), ring.take(length)))
    return segments


def segment_overhead(segment_count: int) -> int:
    """Bytes of framing added by :func:`encode_segments` for ``segment_count`` segments."""
    return segment_count * _SEGMENT_HEADER.size
