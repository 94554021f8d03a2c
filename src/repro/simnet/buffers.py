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
* ``peek`` lets a record reader (:mod:`repro.abstraction.records`) unpack a
  header without consuming it or assembling the body behind it.

Rules for driver authors
------------------------

* Only hand ``append`` buffers you will not mutate afterwards.  ``bytes``
  and read-only byte views backed by ``bytes`` are stored by reference;
  anything writable (bytearray, writable memoryview) is snapshotted to
  ``bytes``, so passing those is correct but forfeits the zero-copy win —
  produce ``bytes`` or immutable views on the hot path.
* ``take``/``peek`` return ``bytes`` — consumers own them outright.
  ``take_gather``/``take_iov`` return the chunks themselves (a partly
  consumed one as a read-only view): whoever keeps them pins those buffers.
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
  datagram chunking, the retransmission buffer of adaptive sessions — and
  a reader that asked for flat ``bytes`` when its read spans several
  chunks (:meth:`ByteRing.take`).

The receive side is the same rule read backwards.  :class:`StreamBuffer` is
the one implementation of "pending reads over a byte ring" (TCP, MadIO
streams, loopback pipes, method drivers, adaptive sessions), and a caller
that parses over parts or only forwards — the GIOP/CDR decoder, a relay, a
frame parser feeding another ring — reads with ``gather=True`` and gets the
chunks by reference (:meth:`ByteRing.take_gather`) instead of their join.
Every other read still completes with ``bytes``.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Iterable, Optional

from repro.simnet.engine import SimEvent


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
        return b"".join(self.take_iov(nbytes))

    def take_iov(self, nbytes: Optional[int] = None) -> list:
        """Consume up to ``nbytes`` as a list of chunk references (no join).

        The scatter-gather variant of :meth:`take`: consumers that forward
        or account buffers without flattening them (relays, bulk sinks,
        iovec-style personalities) skip the assembly copy entirely.  Chunks
        are immutable buffers the caller owns outright; a partially consumed
        one is sliced as a read-only view of it, never copied.
        """
        size = self._size
        if nbytes is None or nbytes >= size:
            nbytes = size
        if nbytes <= 0:
            return []
        chunks = self._chunks
        head = self._head
        if nbytes == size and not head:  # everything, nothing cut: the ring as it is
            parts = list(chunks)
            self.clear()
            return parts
        parts = []
        remaining = nbytes
        while remaining:
            chunk = chunks[0]
            avail = len(chunk) - head
            if head or avail > remaining:  # partly taken: a view (slicing bytes would copy)
                if type(chunk) is bytes:
                    chunk = memoryview(chunk)
                chunk = chunk[head : head + remaining]
            parts.append(chunk)
            if avail > remaining:
                head += remaining
                break
            chunks.popleft()
            head = 0
            remaining -= avail
        self._head = head
        self._size = size - nbytes
        return parts

    def take_gather(self, nbytes: Optional[int] = None):
        """The copy-free :meth:`take`, for a consumer that can parse over
        parts: the chunk itself when the read matches one ``bytes`` chunk (the
        sender's own object), else a :class:`Gather` of :meth:`take_iov`'s."""
        parts = self.take_iov(nbytes)
        if len(parts) == 1 and type(parts[0]) is bytes:
            return parts[0]
        return Gather(parts) if parts else b""

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

    def clear(self) -> None:
        self._chunks.clear()
        self._head = 0
        self._size = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ByteRing {self._size}B in {len(self._chunks)} chunks>"


class StreamBuffer:
    """The receive half of a byte stream: posted reads over a :class:`ByteRing`.

    ``append``/``extend`` alias the incoming chunks and wake, in order, the
    reads posted with ``recv`` (at least one byte) and ``recv_exact``.  A read
    is one completion — of ``done``, when the caller hands its own operation
    down — delayed by ``charge()`` seconds when given (called as the bytes or
    the failure are handed over: SysIO's dispatch cost), with flat ``bytes``
    or, ``gather=True``, the chunks by reference (:meth:`ByteRing.take_gather`).
    Once closed nothing more will arrive: the reads pending at ``close`` and
    any posted after complete at once with what is buffered — short, for an
    exact read — or fail with ``error`` when nothing is.
    """

    __slots__ = (
        "sim", "_buffer", "_pending", "_data_callback", "_close_callback", "_error", "closed"
    )

    def __init__(self, sim, error: type = ConnectionError):
        self.sim = sim
        self._buffer = ByteRing()
        #: parked reads ``(nbytes, exact, event, charge, gather)``, made on first use
        self._pending: Optional[Deque[tuple]] = None
        self._data_callback: Optional[Callable[[], None]] = None
        self._close_callback: Optional[Callable[[], None]] = None
        self._error = error
        self.closed = False

    # -- producing ---------------------------------------------------------
    def append(self, data) -> None:
        self._buffer.append(data)
        self._wake()

    def extend(self, parts: Iterable) -> None:
        """Batched arrival (a fluid epoch's rounds): every chunk, one wake-up."""
        append = self._buffer.append
        for part in parts:
            append(part)
        self._wake()

    def _wake(self) -> None:
        if self._pending:
            self._satisfy()
        if self._data_callback is not None and self._buffer._size:
            self._data_callback()

    # -- consuming ---------------------------------------------------------
    def available(self) -> int:
        return self._buffer._size

    def peek(self, nbytes: int) -> bytes:
        """The next ``nbytes`` buffered (fewer at the tail), not consumed."""
        return self._buffer.peek(nbytes)

    def read_available(self, limit: Optional[int] = None, gather: bool = False):
        """Non-blocking read of whatever is buffered (up to ``limit``)."""
        return self._buffer.take_gather(limit) if gather else self._buffer.take(limit)

    def read_iov(self, limit: Optional[int] = None) -> list:
        """Non-blocking read of the buffered chunks by reference, as a list."""
        return self._buffer.take_iov(limit)

    def recv(self, nbytes=None, done=None, gather=False, charge=None) -> SimEvent:
        return self._queue(nbytes, False, done, charge, gather)

    def recv_exact(self, nbytes: int, done=None, gather=False, charge=None) -> SimEvent:
        buffer = self._buffer
        size = buffer._size
        if size >= nbytes and not self._pending:
            # satisfiable immediately — trigger without touching the pending
            # queue (the event still completes through the loop)
            if done is None and charge is None and not gather and nbytes > 0:
                # the common read: an already-succeeded event, one engine
                # call; inside the head chunk, ByteRing.take's first two
                # branches run here
                first = buffer._chunks[0]
                head = buffer._head
                avail = len(first) - head
                if nbytes > avail:
                    return self.sim.completed(buffer.take(nbytes), "stream-read")
                buffer._size = size - nbytes
                if nbytes < avail:
                    buffer._head = end = head + nbytes
                    data = first[head:end]
                else:
                    buffer._chunks.popleft()
                    buffer._head = 0
                    data = first[head:] if head else first
                return self.sim.completed(
                    data if type(data) is bytes else bytes(data), "stream-read"
                )
            ev = done if done is not None else SimEvent(self.sim, "stream-read")
            data = buffer.take_gather(nbytes) if gather else buffer.take(nbytes)
            return ev.succeed(data, 0.0 if charge is None else charge())
        return self._queue(nbytes, True, done, charge, gather)

    def set_data_callback(self, fn: Optional[Callable[[], None]]) -> None:
        self._data_callback = fn
        if fn is not None and self._buffer:
            fn()

    def set_close_callback(self, fn: Optional[Callable[[], None]]) -> None:
        """Called once when the stream closes (either end)."""
        self._close_callback = fn
        if fn is not None and self.closed:
            fn()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._satisfy()
        if self._close_callback is not None:
            self._close_callback()

    def _queue(self, nbytes, exact, ev, charge, gather) -> SimEvent:
        if ev is None:
            ev = SimEvent(self.sim, "stream-read")
        if self._pending is None:
            self._pending = deque()
        self._pending.append((nbytes, exact, ev, charge, gather))
        self._satisfy()
        return ev

    def _satisfy(self) -> None:
        """Complete, in order, the posted reads that can be: with the bytes
        they asked for or — closed — with what is left, else their failure."""
        buffer = self._buffer
        pending = self._pending
        closed = self.closed
        while pending and (buffer._size or closed):
            nbytes, exact, ev, charge, gather = pending[0]
            if exact and buffer._size < nbytes and not closed:
                return
            pending.popleft()
            if ev._triggered:
                continue
            delay = 0.0 if charge is None else charge()
            if buffer._size:
                ev.succeed(buffer.take_gather(nbytes) if gather else buffer.take(nbytes), delay)
            else:
                ev.fail(self._error("stream closed"), delay)


class BufferedConnection:
    """The read surface of a connection whose incoming bytes land in
    ``self.buffer``: TCP connections, MadIO streams, loopback pipes, every
    method driver of :mod:`repro.methods`.  Callbacks get the connection."""

    buffer: StreamBuffer

    def recv(self, nbytes=None, done=None, gather=False, charge=None) -> SimEvent:
        return self.buffer.recv(nbytes, done, gather, charge)

    def recv_exact(self, nbytes: int, done=None, gather=False, charge=None) -> SimEvent:
        return self.buffer.recv_exact(nbytes, done, gather, charge)

    def available(self) -> int:
        return self.buffer.available()

    def peek(self, nbytes: int) -> bytes:
        return self.buffer.peek(nbytes)

    def read_available(self, limit: Optional[int] = None, gather: bool = False):
        return self.buffer.read_available(limit, gather)

    def read_iov(self, limit: Optional[int] = None) -> list:
        return self.buffer.read_iov(limit)

    def set_data_callback(self, fn) -> None:
        self.buffer.set_data_callback(None if fn is None else partial(fn, self))

    def set_close_callback(self, fn) -> None:
        self.buffer.set_close_callback(None if fn is None else partial(fn, self))
