"""The record layer under the parsers that ride a byte stream.

The method drivers of :mod:`repro.methods`, the gateway relay's handshake,
the stream-mesh Circuit adapter and the adaptive rails frame what they write
as *records* — a ``struct`` header whose fields give the body's length:

* :func:`read_records` takes every complete record buffered on a stream and
  leaves a partial one in the stream's own
  :class:`~repro.simnet.buffers.StreamBuffer` (no parser keeps a ring of its
  own); :func:`read_hello` is its one-shot form for a handshake;
* :class:`Serializer` orders one direction's size-dependent delays, so a
  small record's cheaper delay never lets it overtake an earlier large one;
* :class:`CodecConnection` is a byte stream over one SysIO socket whose
  every write travels as one record through a codec (AdOC, GSI).

A *stream* is anything with a driver connection's read surface:
``available()``, ``peek(n)``, ``read_available(limit, gather)``,
``set_data_callback`` and ``set_close_callback`` — a SysIO socket, a VLink,
an adaptive session, a method driver's connection.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional

from repro.simnet.buffers import BufferedConnection, Gather, StreamBuffer
from repro.simnet.engine import SimEvent


def no_body(fields) -> int:
    """``body_len`` of a header-only record."""
    return 0


def read_records(stream, header: struct.Struct, body_len: Callable, most: int = -1) -> List[tuple]:
    """Every complete ``(fields, body)`` buffered on ``stream`` (the first
    ``most`` of them, when given), consumed.

    ``body_len(fields)`` is the body's length; ``body`` is the writer's
    ``bytes`` or a :class:`~repro.simnet.buffers.Gather` of the chunks it
    arrived in.  A partial record stays buffered on ``stream``.
    """
    records = []
    size = header.size
    buffered = stream.available()
    while buffered >= size and len(records) != most:
        fields = header.unpack(stream.peek(size))
        end = size + body_len(fields)
        if buffered < end:
            break
        stream.read_available(size)
        records.append((fields, stream.read_available(end - size, gather=True)))
        buffered -= end
    return records


def read_hello(sock, header: struct.Struct, body_len: Callable, then: Callable,
               on_close: Optional[Callable] = None) -> None:
    """``then(sock, fields, body)`` once one record arrived on ``sock``
    (whatever follows stays buffered); ``on_close(sock)`` if the stream
    closes first.  Both callbacks are unhooked before ``then`` runs."""
    done = False

    def _on_data(stream) -> None:
        nonlocal done
        records = [] if done else read_records(stream, header, body_len, 1)
        if records:
            done = True
            stream.set_data_callback(None)
            stream.set_close_callback(None)
            then(stream, *records[0])

    sock.set_close_callback(on_close)
    sock.set_data_callback(_on_data)
    _on_data(sock)


class Serializer:
    """One direction's ordering cursor: each :meth:`after` runs no earlier
    than the previous one (same-instant timers run in the order posted)."""

    __slots__ = ("sim", "_at")

    def __init__(self, sim):
        self.sim = sim
        self._at = 0.0

    def after(self, delay: float, fn: Callable, *args) -> None:
        """``fn(*args)`` in ``delay`` seconds, or with the previous call."""
        now = self.sim.now
        self._at = ready = max(now + delay, self._at)
        self.sim.call_later(ready - now, fn, *args)


class CodecConnection(BufferedConnection):
    """One record per write over ``sock``, through the subclass's codec:
    ``RECORD`` (the header), ``_body_len(fields)``, ``_encode(data) ->
    (header, wire, cpu_seconds)`` and ``_decode(fields, wire) -> (block,
    cpu_seconds)``, where a ``block`` of None drops the record."""

    RECORD: struct.Struct

    def __init__(self, sim, sock):
        self.sim = sim
        self.sock = sock
        self.peer_name = sock.peer_name
        self.buffer = StreamBuffer(sim)
        self.closed = False
        self._tx = Serializer(sim)
        self._rx = Serializer(sim)
        sock.set_data_callback(self._on_data)

    def write(self, data, done: Optional[SimEvent] = None) -> SimEvent:
        if self.closed:
            raise ConnectionError(f"write() on closed {type(self).__name__}")
        header, wire, cpu = self._encode(bytes(data))
        if done is None:
            done = self.sim.event(name=f"{type(self).__name__}-write")
        self._tx.after(cpu, self.sock.write, Gather((header, wire)), done)
        return done

    def close(self) -> None:
        self.closed = True
        self.sock.close()
        self.buffer.close()

    def _on_data(self, sock) -> None:
        for fields, wire in read_records(sock, self.RECORD, self._body_len):
            block, cpu = self._decode(fields, bytes(wire))
            if block is not None:
                self._rx.after(cpu, self.buffer.append, block)
