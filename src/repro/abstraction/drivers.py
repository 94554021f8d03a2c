"""VLink drivers: incarnations of the distributed abstract interface.

"VLink drivers have been implemented on top of: MadIO, SysIO, Parallel
Streams for WAN, AdOC, loopback." (§4.2)

This module provides the three core drivers:

* :class:`SysIOVLinkDriver` — the *straight* adapter: a distributed
  abstraction over a distributed network, delegating to the SysIO arbitrated
  sockets.
* :class:`MadIOVLinkDriver` — the *cross-paradigm* adapter: a client/server
  byte stream built over the message-based MadIO logical channels, which is
  what lets an unmodified CORBA ORB run over Myrinet.
* :class:`LoopbackVLinkDriver` — intra-host links between two middleware
  systems living in the same process.

The WAN-specific method drivers (parallel streams, AdOC compression, VRP)
live in :mod:`repro.methods` and register themselves under their own names.

The driver-connection interface
-------------------------------

A driver's ``connect``/``listen`` hand :class:`~repro.abstraction.vlink.VLink`
a *driver connection*: any object with

* ``write(data, done=None)`` — queue ``data`` (``bytes`` or a
  :class:`~repro.simnet.buffers.Gather`, already immutable) as one write;
* ``recv(nbytes=None, done=None)`` / ``recv_exact(nbytes, done=None)`` — a
  partial / exact read;
* ``available()``, ``read_available(limit=None)``,
  ``set_data_callback(fn)``, ``set_close_callback(fn)`` (both called with the
  connection), ``close()`` and ``peer_name``.

One asynchronous operation is one completion event, fired once: ``done`` is
the caller's own operation (a ``VLinkOperation``, an MPI request's event, a
Circuit send).  A connection completes *it* — with a byte count for a write,
the bytes for a read, or the failure — and returns it; only when no ``done``
is given does it mint an event of its own.  A connection that wraps another
one passes ``done`` further down instead of chaining a second event onto the
first, and a layer that charges time does so as the delay of that one
trigger (``done.succeed(value, delay)``), never as a timer followed by an
event.  :class:`~repro.arbitration.sysio.SysSocket` is a driver connection as
it stands; :class:`BufferedConnection` is the receive half of all the others.
"""

from __future__ import annotations

import itertools
import struct
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.simnet.buffers import ByteRing, immutable
from repro.simnet.cost import Cost
from repro.simnet.engine import SimEvent
from repro.simnet.host import Host
from repro.simnet.network import Delivery, Network
from repro.arbitration.madio import MadIO, MadIOChannel
from repro.arbitration.sysio import SysIO
from repro.abstraction.common import (
    AbstractionError,
    CROSS_PARADIGM_STREAM_OVERHEAD,
    RxPath,
    SoftDelivery,
    VLINK_LAYER_OVERHEAD,
)


class StreamBuffer:
    """Reusable receive-side byte buffer with exact/partial read events.

    Bytes live in a zero-copy :class:`~repro.simnet.buffers.ByteRing`:
    ``append`` aliases the incoming chunk and reads slice each byte out at
    most once (the seed ``bytearray`` implementation memmoved the whole
    remainder on every read).
    """

    def __init__(self, sim):
        self.sim = sim
        self._buffer = ByteRing()
        self._pending: Deque[Tuple[Optional[int], bool, SimEvent]] = deque()
        self._data_callback: Optional[Callable[[], None]] = None
        self._close_callback: Optional[Callable[[], None]] = None
        self.closed = False

    def append(self, data: bytes) -> None:
        self._buffer.append(data)
        self._satisfy()
        if self._data_callback is not None and self._buffer:
            self._data_callback()

    def available(self) -> int:
        return len(self._buffer)

    def read_available(self, limit: Optional[int] = None) -> bytes:
        return self._buffer.take(limit)

    def recv(self, nbytes: Optional[int] = None, done: Optional[SimEvent] = None) -> SimEvent:
        return self._queue(nbytes, False, done)

    def recv_exact(self, nbytes: int, done: Optional[SimEvent] = None) -> SimEvent:
        buffer = self._buffer
        if buffer._size >= nbytes and not self._pending and not self.closed:
            # fast path: satisfiable immediately — trigger without touching
            # the pending queue (the event still completes through the loop)
            ev = done if done is not None else SimEvent(self.sim, "stream-read")
            return ev.succeed(buffer.take(nbytes))
        return self._queue(nbytes, True, done)

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
        pending, self._pending = self._pending, deque()
        for _, _, ev in pending:
            if not ev.triggered:
                if self._buffer:
                    ev.succeed(self.read_available())
                else:
                    ev.fail(ConnectionError("stream closed"))
        if self._close_callback is not None:
            self._close_callback()

    def _queue(self, nbytes: Optional[int], exact: bool, ev: Optional[SimEvent]) -> SimEvent:
        if ev is None:
            ev = SimEvent(self.sim, "stream-read")
        if self.closed and not self._buffer:
            ev.fail(ConnectionError("stream closed"))
            return ev
        self._pending.append((nbytes, exact, ev))
        self._satisfy()
        return ev

    def _satisfy(self) -> None:
        buffer = self._buffer
        pending = self._pending
        while pending and buffer._size:
            nbytes, exact, ev = pending[0]
            if exact and nbytes is not None and buffer._size < nbytes:
                return
            pending.popleft()
            chunk = buffer.take(nbytes)
            if not ev._triggered:
                ev.succeed(chunk)


class BufferedConnection:
    """Receive half of a driver connection whose incoming bytes land in
    ``self.buffer``, a :class:`StreamBuffer` (MadIO streams, loopback pipes
    and every method driver of :mod:`repro.methods`)."""

    buffer: StreamBuffer

    def recv(self, nbytes: Optional[int] = None, done: Optional[SimEvent] = None) -> SimEvent:
        return self.buffer.recv(nbytes, done)

    def recv_exact(self, nbytes: int, done: Optional[SimEvent] = None) -> SimEvent:
        return self.buffer.recv_exact(nbytes, done)

    def available(self) -> int:
        return self.buffer.available()

    def read_available(self, limit: Optional[int] = None) -> bytes:
        return self.buffer.read_available(limit)

    def set_data_callback(self, fn) -> None:
        self.buffer.set_data_callback(None if fn is None else lambda: fn(self))

    def set_close_callback(self, fn) -> None:
        self.buffer.set_close_callback(None if fn is None else lambda: fn(self))


class VLinkDriver:
    """Base class: one incarnation of the VLink abstract interface."""

    #: registry name ("sysio", "madio", "loopback", "parallel_streams", ...)
    name = "abstract"

    def __init__(self, host: Host):
        self.host = host
        self.sim = host.sim

    def listen(self, port: int, on_incoming: Callable) -> None:
        """Start accepting connections on ``port``; ``on_incoming(conn, peer_host)``."""
        raise NotImplementedError

    def connect(self, dst_host: Host, port: int) -> SimEvent:
        """Open a connection; the event succeeds with a driver connection."""
        raise NotImplementedError

    def connect_with_params(
        self, dst_host: Host, port: int, params: Optional[Dict[str, float]] = None
    ) -> SimEvent:
        """Open a connection with per-connection method parameters.

        The selector derives parameters (stream fan-out, loss tolerance)
        from the monitoring subsystem's measured link metrics; drivers that
        support tuning override this.  The base class ignores the
        parameters, so pinning a parameter on a driver that cannot honour
        it degrades to the driver's registered configuration.
        """
        return self.connect(dst_host, port)

    def reaches(self, dst_host: Host) -> bool:
        """Can this driver reach ``dst_host`` at all?"""
        return True


# ---------------------------------------------------------------------------
# SysIO driver (straight: distributed abstraction over distributed network)
# ---------------------------------------------------------------------------


class SysIOVLinkDriver(VLinkDriver):
    """Delegates the five VLink primitives to SysIO arbitrated sockets."""

    name = "sysio"

    def __init__(self, sysio: SysIO, network: Optional[Network] = None):
        super().__init__(sysio.host)
        self.sysio = sysio
        self.network = network

    def listen(self, port: int, on_incoming: Callable) -> None:
        self.sysio.listen(port, lambda sock: on_incoming(sock, sock.conn.peer_host))

    def connect(self, dst_host: Host, port: int) -> SimEvent:
        return self.sysio.connect(dst_host, port, network=self.network)

    def reaches(self, dst_host: Host) -> bool:
        return any(
            net.paradigm == "distributed" for net in self.host.shares_network_with(dst_host)
        )


# ---------------------------------------------------------------------------
# MadIO driver (cross-paradigm: distributed abstraction over a SAN)
# ---------------------------------------------------------------------------

_CTL = struct.Struct("!BHII")  # type, port, conn_a, conn_b
_DATA_HEADER = struct.Struct("!IB")  # destination conn id, flags

_CTL_CONNECT = 1
_CTL_ACCEPT = 2
_CTL_REFUSE = 3
_CTL_CLOSE = 4


class MadVLinkConnection(BufferedConnection):
    """A byte-stream endpoint emulated over MadIO messages."""

    def __init__(self, driver: "MadIOVLinkDriver", conn_id: int, peer_host: Host, peer_rank: int):
        self.driver = driver
        self.sim = driver.sim
        self.conn_id = conn_id
        self.peer_host = peer_host
        self.peer_rank = peer_rank
        self.peer_conn_id: Optional[int] = None
        self.buffer = StreamBuffer(driver.sim)
        self.closed = False
        self.bytes_sent = 0
        self._last_ready = 0.0

    # -- the driver-connection interface used by VLink -------------------------
    @property
    def peer_name(self) -> str:
        return self.peer_host.name

    def write(self, data: bytes, done: Optional[SimEvent] = None) -> SimEvent:
        """One write is one MadIO message whose CHEAPER body is ``data`` by
        reference — flat bytes or a gather alike."""
        if self.closed:
            raise AbstractionError("write() on closed MadIO VLink connection")
        if self.peer_conn_id is None:
            raise AbstractionError("write() before the MadIO VLink connection is established")
        cost = Cost()
        cost.charge(VLINK_LAYER_OVERHEAD, "vlink.layer")
        cost.charge(CROSS_PARADIGM_STREAM_OVERHEAD, "vlink.cross-paradigm")
        header = _DATA_HEADER.pack(self.peer_conn_id, 0)
        self.bytes_sent += len(data)
        return self.driver.data_channel.send(
            self.peer_rank, header, data, extra_cost=cost, done=done
        )

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.peer_conn_id is not None:
            ctl = _CTL.pack(_CTL_CLOSE, 0, self.peer_conn_id, self.conn_id)
            self.driver.ctl_channel.send(self.peer_rank, ctl, b"")
        self.driver._forget(self)
        self.buffer.close()

    # -- receive path (called by the driver) --------------------------------------
    def _on_data(self, body: bytes, rx: RxPath) -> None:
        rx.cost.charge(VLINK_LAYER_OVERHEAD, "vlink.layer")
        rx.cost.charge(CROSS_PARADIGM_STREAM_OVERHEAD, "vlink.cross-paradigm")
        # Appends are serialized per connection: a small message's lower
        # receive-side cost must not let its bytes overtake an earlier large
        # message's — this is a byte stream, not a message interface.
        ready = max(rx.ready_time(), self._last_ready)
        self._last_ready = ready
        self.sim.call_later(max(0.0, ready - self.sim.now), self.buffer.append, body)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MadVLinkConnection #{self.conn_id} -> {self.peer_host.name}>"


class MadIOVLinkDriver(VLinkDriver):
    """Client/server byte streams over MadIO logical channels (cross-paradigm)."""

    name = "madio"

    def __init__(self, madio: MadIO, network: Network):
        super().__init__(madio.host)
        self.madio = madio
        self.network = network
        self.group = madio.group_on(network)
        self.ctl_channel: MadIOChannel = madio.open_logical_channel("vlink:ctl", network)
        self.data_channel: MadIOChannel = madio.open_logical_channel("vlink:data", network)
        self.ctl_channel.set_receive_callback(self._on_ctl)
        self.data_channel.set_receive_callback(self._on_data)
        self._conn_ids = itertools.count(1)
        self._conns: Dict[int, MadVLinkConnection] = {}
        self._listeners: Dict[int, Callable] = {}
        self._pending_connects: Dict[int, SimEvent] = {}

    # -- VLinkDriver interface -----------------------------------------------------
    def listen(self, port: int, on_incoming: Callable) -> None:
        self._listeners[port] = on_incoming

    def connect(self, dst_host: Host, port: int) -> SimEvent:
        if not self.group.contains(dst_host):
            raise AbstractionError(
                f"host {dst_host.name!r} is not reachable over {self.network.name!r}"
            )
        peer_rank = self.group.index_of(dst_host)
        conn = MadVLinkConnection(self, next(self._conn_ids), dst_host, peer_rank)
        self._conns[conn.conn_id] = conn
        done = self.sim.event(name=f"madio-vlink-connect({dst_host.name}:{port})")
        self._pending_connects[conn.conn_id] = done
        ctl = _CTL.pack(_CTL_CONNECT, port, conn.conn_id, 0)
        cost = Cost().charge(VLINK_LAYER_OVERHEAD, "vlink.layer")
        self.ctl_channel.send(peer_rank, ctl, b"", extra_cost=cost)
        return done

    def reaches(self, dst_host: Host) -> bool:
        return self.group.contains(dst_host) and dst_host is not self.host

    # -- MadIO callbacks ----------------------------------------------------------------
    def _on_ctl(self, src_rank: int, header: bytes, body: bytes, delivery: Delivery) -> None:
        delivery.traverse("vlink-madio-ctl")
        kind, port, conn_a, conn_b = _CTL.unpack(header)
        peer_host = self.group[src_rank]
        if kind == _CTL_CONNECT:
            on_incoming = self._listeners.get(port)
            if on_incoming is None:
                refuse = _CTL.pack(_CTL_REFUSE, port, conn_a, 0)
                self.ctl_channel.send(src_rank, refuse, b"")
                return
            conn = MadVLinkConnection(self, next(self._conn_ids), peer_host, src_rank)
            conn.peer_conn_id = conn_a
            self._conns[conn.conn_id] = conn
            accept = _CTL.pack(_CTL_ACCEPT, port, conn_a, conn.conn_id)
            self.ctl_channel.send(src_rank, accept, b"")
            self.sim.call_later(
                max(0.0, delivery.ready_time() - self.sim.now), on_incoming, conn, peer_host
            )
        elif kind == _CTL_ACCEPT:
            conn = self._conns.get(conn_a)
            done = self._pending_connects.pop(conn_a, None)
            if conn is None or done is None:
                return
            conn.peer_conn_id = conn_b
            delivery.complete_into(done, conn)
        elif kind == _CTL_REFUSE:
            done = self._pending_connects.pop(conn_a, None)
            self._conns.pop(conn_a, None)
            if done is not None and not done.triggered:
                done.fail(ConnectionRefusedError(f"no VLink listener on port {port}"))
        elif kind == _CTL_CLOSE:
            conn = self._conns.get(conn_a)
            if conn is not None:
                conn.closed = True
                conn.buffer.close()
                self._conns.pop(conn_a, None)

    def _on_data(self, src_rank: int, header: bytes, body: bytes, delivery: Delivery) -> None:
        delivery.traverse("vlink-madio-data")
        conn_id, _flags = _DATA_HEADER.unpack(header)
        conn = self._conns.get(conn_id)
        if conn is None:
            delivery.frame.network.record_drop(delivery.frame, "vlink-madio-no-conn")
            return
        conn._on_data(body, delivery)

    def _forget(self, conn: MadVLinkConnection) -> None:
        self._conns.pop(conn.conn_id, None)


# ---------------------------------------------------------------------------
# Loopback driver (intra-host)
# ---------------------------------------------------------------------------


class LoopbackPipe(BufferedConnection):
    """One end of an in-process byte pipe with a memcpy-level cost model."""

    def __init__(self, driver: "LoopbackVLinkDriver", label: str):
        self.driver = driver
        self.sim = driver.sim
        self.label = label
        self.peer: Optional["LoopbackPipe"] = None
        self.buffer = StreamBuffer(driver.sim)
        self.closed = False
        self.peer_name = driver.host.name

    def write(self, data: bytes, done: Optional[SimEvent] = None) -> SimEvent:
        if self.closed or self.peer is None:
            raise AbstractionError("write() on closed loopback pipe")
        rx = SoftDelivery(self.sim)
        rx.cost.charge(self.driver.per_message_overhead, "loopback.msg")
        rx.cost.charge_copy(len(data), self.driver.host.cpu.memcpy_bandwidth, "loopback.copy")
        if done is None:
            done = self.sim.event(name="loopback-write")
        self.sim.call_later(rx.cost.seconds, self.peer.buffer.append, immutable(data))
        return done.succeed(len(data), delay=rx.cost.seconds)

    def close(self) -> None:
        self.closed = True
        self.buffer.close()
        if self.peer is not None and not self.peer.closed:
            self.peer.closed = True
            self.peer.buffer.close()


class LoopbackVLinkDriver(VLinkDriver):
    """Intra-host VLink driver (two middleware systems in the same process)."""

    name = "loopback"

    def __init__(self, host: Host, per_message_overhead: float = 0.4e-6):
        super().__init__(host)
        self.per_message_overhead = per_message_overhead
        self._listeners: Dict[int, Callable] = {}

    def listen(self, port: int, on_incoming: Callable) -> None:
        self._listeners[port] = on_incoming

    def connect(self, dst_host: Host, port: int) -> SimEvent:
        done = self.sim.event(name=f"loopback-connect(:{port})")
        if dst_host is not self.host:
            done.fail(AbstractionError("loopback driver only connects within the local host"))
            return done
        on_incoming = self._listeners.get(port)
        if on_incoming is None:
            done.fail(ConnectionRefusedError(f"no loopback listener on port {port}"))
            return done
        client = LoopbackPipe(self, f"lo-client:{port}")
        server = LoopbackPipe(self, f"lo-server:{port}")
        client.peer, server.peer = server, client
        self.sim.call_later(self.per_message_overhead, on_incoming, server, self.host)
        done.succeed(client, delay=self.per_message_overhead)
        return done

    def reaches(self, dst_host: Host) -> bool:
        return dst_host is self.host
