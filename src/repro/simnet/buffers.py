"""Zero-copy byte buffers shared by every byte-stream layer.

The seed implementation of every receive buffer in the stack (TCP, the
driver-level :class:`~repro.abstraction.drivers.StreamBuffer`, the codec
drivers, the adaptive frame parser) was a ``bytearray`` consumed with
``bytes(buf[:take]); del buf[:take]`` — each read copies the taken prefix
*and* memmoves the entire remainder, so draining one TCP burst in framed
pieces moves O(burst^2 / piece) bytes, and a relayed multi-hop transfer
re-pays that at every layer of every hop.

:class:`ByteRing` replaces the pattern with a ring of immutable chunks and
a head offset:

* ``append`` keeps a *reference* to the appended ``bytes`` (no copy —
  writable buffers are defensively snapshotted, see below);
* ``take`` slices each byte out at most once; when a read consumes exactly
  the head chunk, the original object is returned without any copy at all;
* ``peek`` / ``skip`` let frame parsers unpack headers without consuming or
  assembling payloads.

Rules for driver authors
------------------------

* Only hand ``append`` buffers you will not mutate afterwards.  ``bytes``
  and read-only byte views backed by ``bytes`` are stored by reference;
  anything writable (bytearray, writable memoryview) is snapshotted to
  ``bytes``, so passing those is correct but forfeits the zero-copy win —
  produce ``bytes`` or immutable views on the hot path.
* ``take``/``peek`` return ``bytes`` — consumers own them outright.
* A chunk is pinned until fully consumed: taking 1 byte of a 64 KB chunk
  keeps the 64 KB alive.  That matches the simulator's traffic (chunks are
  consumed promptly and completely); do not use ByteRing to hold a tiny
  tail of a huge buffer indefinitely.

The send-side counterpart is :class:`Gather`, an immutable scatter/gather
buffer: a header and the payload it frames travel as two parts of one
write instead of being concatenated.  Rules for layer authors:

* never ``+``/``join`` a payload onto a header — build ``Gather((header,
  payload))`` and hand that down as *one* write / one segment / one frame;
* every entry point that keeps a caller's buffer passes it through
  :func:`immutable` (the stack's single "alias if immutable, else
  snapshot" rule) and through nothing else;
* only a consumer that needs contiguous bytes flattens, with ``bytes(g)``,
  at its own boundary: codecs (compression, ciphers), striping and
  datagram chunking, the retransmission buffer of adaptive sessions, the
  cross-process wire codec — and a stream read that spans several chunks
  (:meth:`ByteRing.take`), the one place a byte stream is reassembled into
  a message buffer.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional


def immutable(data):
    """``data`` itself when nobody can mutate it, else a ``bytes`` snapshot.

    The one aliasing rule of the byte path.  ``bytes``, a :class:`Gather`
    and a read-only byte view backed by ``bytes`` ride by reference — a
    layer that pins one (a frame in flight, a queued send, a packed
    segment) pins the original object and copies nothing.  Anything
    writable (``bytearray``, a writable view, a read-only view of a mutable
    exporter) is snapshotted, so mutating it after the call cannot change
    what the peer reads.
    """
    kind = type(data)
    if kind is bytes:
        return data
    if kind is memoryview:
        if (
            data.readonly
            and data.contiguous
            and data.ndim == 1
            and data.itemsize == 1
            and type(data.obj) is bytes
        ):
            return data
    elif isinstance(data, Gather):
        return data
    return bytes(data)


class Gather:
    """An immutable scatter/gather buffer: parts that travel as one write.

    ``parts`` is a flat tuple of non-empty immutable byte buffers (what
    :func:`immutable` lets through; a nested ``Gather`` is spliced in),
    ``len()`` is their cached total and ``bytes()`` the contiguous image —
    the only way to obtain one.  Everything between marshalling and
    delivery passes the object along or splices it under its own header;
    nothing copies the payload parts.
    """

    __slots__ = ("parts", "nbytes")

    def __init__(self, parts: Iterable) -> None:
        flat = []
        nbytes = 0
        for part in parts:
            if type(part) is not bytes:
                if isinstance(part, Gather):
                    flat.extend(part.parts)
                    nbytes += part.nbytes
                    continue
                part = immutable(part)
            if part:
                flat.append(part)
                nbytes += len(part)
        self.parts = tuple(flat)
        self.nbytes = nbytes

    def __len__(self) -> int:
        return self.nbytes

    def __bytes__(self) -> bytes:
        return b"".join(self.parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.nbytes}B in {len(self.parts)} parts>"


class ByteRing:
    """A FIFO of bytes stored as a ring of immutable chunks."""

    __slots__ = ("_chunks", "_head", "_size")

    def __init__(self, data: bytes = b""):
        self._chunks: deque = deque()
        self._head = 0  # read offset into the first chunk
        self._size = 0
        if data:
            self.append(data)

    # -- producing ---------------------------------------------------------
    def append(self, data) -> None:
        """Enqueue ``data``; immutable buffers are kept by reference.

        ``bytes`` are stored as-is.  Read-only byte views backed by
        ``bytes`` (what the fluid fast path delivers) are equally immutable,
        so they are also stored by reference — pinning the view pins the
        backing bytes, and no fresh copy is materialised per delivered
        burst.  A :class:`Gather` contributes its parts as chunks, so a
        read that matches one gets the sender's object back.  Anything
        writable (bytearray, writable views) is defensively snapshotted
        (:func:`immutable`).  ``take``/``peek`` still hand out plain
        ``bytes``; the conversion happens at that consumer boundary.
        """
        if type(data) is not bytes:
            data = immutable(data)
            if isinstance(data, Gather):
                self._chunks.extend(data.parts)
                self._size += data.nbytes
                return
        if not data:
            return
        self._chunks.append(data)
        self._size += len(data)

    # -- sizing ------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    # -- consuming ---------------------------------------------------------
    def take(self, nbytes: Optional[int] = None) -> bytes:
        """Consume and return up to ``nbytes`` (everything when None)."""
        size = self._size
        if nbytes is None or nbytes >= size:
            nbytes = size
        if nbytes <= 0:
            return b""
        chunks = self._chunks
        head = self._head
        first = chunks[0]
        avail = len(first) - head
        if nbytes < avail:
            end = head + nbytes
            self._head = end
            self._size = size - nbytes
            out = first[head:end]
            return out if type(out) is bytes else bytes(out)
        if nbytes == avail:
            chunks.popleft()
            self._head = 0
            self._size = size - nbytes
            out = first[head:] if head else first
            return out if type(out) is bytes else bytes(out)
        parts = []
        remaining = nbytes
        while remaining:
            first = chunks[0]
            avail = len(first) - head
            if avail <= remaining:
                parts.append(first[head:] if head else first)
                chunks.popleft()
                head = 0
                remaining -= avail
            else:
                parts.append(first[head : head + remaining])
                head += remaining
                remaining = 0
        self._head = head
        self._size = size - nbytes
        return b"".join(parts)

    def take_iov(self, nbytes: Optional[int] = None) -> list:
        """Consume up to ``nbytes`` as a list of chunk references (no join).

        The scatter-gather variant of :meth:`take`: consumers that forward
        or account buffers without flattening them (relays, bulk sinks,
        iovec-style personalities) skip the assembly copy entirely.  Chunks
        are immutable buffers the caller owns outright; only a partially
        consumed head chunk is sliced.
        """
        size = self._size
        if nbytes is None or nbytes >= size:
            nbytes = size
        if nbytes <= 0:
            return []
        chunks = self._chunks
        head = self._head
        parts = []
        remaining = nbytes
        while remaining:
            first = chunks[0]
            avail = len(first) - head
            if avail <= remaining:
                parts.append(first[head:] if head else first)
                chunks.popleft()
                head = 0
                remaining -= avail
            else:
                parts.append(first[head : head + remaining])
                head += remaining
                remaining = 0
        self._head = head
        self._size = size - nbytes
        return parts

    def peek(self, nbytes: int) -> bytes:
        """The next ``nbytes`` (or fewer, at the tail) without consuming."""
        size = self._size
        if nbytes > size:
            nbytes = size
        if nbytes <= 0:
            return b""
        head = self._head
        first = self._chunks[0]
        if len(first) - head >= nbytes:
            out = first[head : head + nbytes]
            return out if type(out) is bytes else bytes(out)
        parts = []
        remaining = nbytes
        for chunk in self._chunks:
            avail = len(chunk) - head
            step = avail if avail <= remaining else remaining
            parts.append(chunk[head : head + step])
            head = 0
            remaining -= step
            if not remaining:
                break
        return b"".join(parts)

    def skip(self, nbytes: int) -> int:
        """Consume up to ``nbytes`` without assembling them; returns the
        number of bytes skipped (header consumption in frame parsers)."""
        size = self._size
        if nbytes > size:
            nbytes = size
        if nbytes <= 0:
            return 0
        chunks = self._chunks
        head = self._head
        remaining = nbytes
        while remaining:
            first = chunks[0]
            avail = len(first) - head
            if avail <= remaining:
                chunks.popleft()
                head = 0
                remaining -= avail
            else:
                head += remaining
                remaining = 0
        self._head = head
        self._size = size - nbytes
        return nbytes

    def clear(self) -> None:
        self._chunks.clear()
        self._head = 0
        self._size = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ByteRing {self._size}B in {len(self._chunks)} chunks>"
