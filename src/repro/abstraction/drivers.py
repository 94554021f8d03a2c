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

The method drivers of :mod:`repro.methods` subclass the SysIO driver and
frame their records through :mod:`repro.abstraction.records`.

The driver-connection interface
-------------------------------

A driver's ``connect``/``listen`` hand :class:`~repro.abstraction.vlink.VLink`
a *driver connection*: any object with

* ``write(data, done=None)`` — queue ``data`` (``bytes`` or a
  :class:`~repro.simnet.buffers.Gather`, already immutable) as one write;
* ``recv(nbytes=None, done=None, gather=False)`` /
  ``recv_exact(nbytes, done=None, gather=False, charge=None)`` — a partial /
  exact read (``charge()``: the caller's own cost of it, see below);
* ``available()``, ``peek(n)``, ``read_available(limit=None, gather=False)``,
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
event — a read's by passing ``charge`` down, which the buffer adds to the
completion's delay when it hands the bytes over; a write's by posting the
write that much later (``call_later(cost, conn.write, data, done)``), which
fails ``done``, not the run, if the connection closed meanwhile.

The receive half of every connection is one
:class:`~repro.simnet.buffers.StreamBuffer` (behind
:class:`~repro.simnet.buffers.BufferedConnection`, which ``TcpConnection``
is too; :class:`~repro.arbitration.sysio.SysSocket` passes it ``charge=``,
the callable returning the dispatch delay of the read's trigger — then the
caller's own charge — at the instant the bytes are handed over).  Hence:

* a read completes with ``bytes`` unless the caller — one that parses over
  parts or only forwards — asked ``gather=True``: it then gets the buffered
  chunks by reference, the writer's own ``bytes`` when the read matches it,
  else a ``Gather`` whose parts pin the sender's buffers until dropped;
* a read pending when the stream closes, or posted after, completes at once
  with what is buffered (short, for an exact read) or fails with a
  ``ConnectionError`` when nothing is: it never waits for bytes that cannot come.
"""

from __future__ import annotations

import itertools
import struct
from typing import Callable, Dict, Optional

from repro.simnet.buffers import BufferedConnection, StreamBuffer, immutable
from repro.simnet.engine import SimEvent
from repro.simnet.host import Host
from repro.simnet.network import Delivery, Network
from repro.arbitration.madio import MadIO, MadIOChannel
from repro.arbitration.sysio import SysIO
from repro.abstraction.common import (
    AbstractionError,
    CROSS_PARADIGM_STREAM_OVERHEAD,
    RxPath,
    VLINK_LAYER_OVERHEAD,
)


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

    def unlisten(self, port: int) -> None:
        """Stop accepting on ``port``: a connect to it is refused from now on."""
        raise NotImplementedError

    def connect(self, dst_host: Host, port: int, network: Optional[Network] = None) -> SimEvent:
        """Open a connection; the event succeeds with a driver connection.
        ``network`` is the one the hop's route names (None: the driver's own
        pick); a driver that runs on a network of its own ignores it."""
        raise NotImplementedError

    def connect_with_params(
        self,
        dst_host: Host,
        port: int,
        params: Optional[Dict[str, float]] = None,
        network: Optional[Network] = None,
    ) -> SimEvent:
        """Open a connection with per-connection method parameters.

        The selector derives parameters (stream fan-out, loss tolerance)
        from the monitoring subsystem's measured link metrics; drivers that
        support tuning override this.  The base class ignores the
        parameters, so pinning a parameter on a driver that cannot honour
        it degrades to the driver's registered configuration.
        """
        return self.connect(dst_host, port, network)

    def reaches(self, dst_host: Host) -> bool:
        """Can this driver reach ``dst_host`` at all?"""
        return True


# ---------------------------------------------------------------------------
# SysIO driver (straight: distributed abstraction over distributed network)
# ---------------------------------------------------------------------------


class SysIOVLinkDriver(VLinkDriver):
    """Delegates the five VLink primitives to SysIO arbitrated sockets.

    The base of the method drivers of :mod:`repro.methods` too: a subclass
    gives its ``PORT_OFFSET`` (its own SysIO port range, so several drivers
    serve one VLink port side by side) and ``_wrap(sock, ready, fail)``, which
    hands ``ready(conn, delay=0.0)`` its connection over ``sock``; ``fail(exc)``
    fails a connect, and is None on an accepted socket (a driver closes one it
    rejects).
    """

    name = "sysio"
    PORT_OFFSET = 0
    _wrap: Optional[Callable] = None  # the straight driver's connection is the socket

    def __init__(self, sysio: SysIO):
        super().__init__(sysio.host)
        self.sysio = sysio

    def listen(self, port: int, on_incoming: Callable) -> None:
        port += self.PORT_OFFSET
        if self._wrap is None:
            self.sysio.listen(port, lambda sock: on_incoming(sock, sock.conn.peer_host))
        else:
            self.sysio.listen(port, lambda sock: self._accepted(sock, on_incoming))

    def unlisten(self, port: int) -> None:
        self.sysio.unlisten(port + self.PORT_OFFSET)

    def _accepted(self, sock, on_incoming: Callable) -> None:
        peer = sock.conn.peer_host

        def ready(conn, delay: float = 0.0) -> None:
            if delay:
                self.sim.call_later(delay, on_incoming, conn, peer)
            else:
                on_incoming(conn, peer)

        self._wrap(sock, ready, None)

    def connect(self, dst_host: Host, port: int, network=None) -> SimEvent:
        attempt = self._open(dst_host, port, network)
        if self._wrap is None:
            return attempt
        done = self.sim.event(name=f"{self.name}-connect({dst_host.name}:{port})")

        def connected(ev) -> None:
            if ev.ok:
                self._wrap(ev.value, done.succeed, done.fail)
            else:
                done.fail(ev.value)

        attempt.add_callback(connected)
        return done

    def _open(self, dst_host: Host, port: int, network: Optional[Network]) -> SimEvent:
        """One SysIO socket to ``port`` in this driver's range, over ``network``."""
        return self.sysio.connect(dst_host, port + self.PORT_OFFSET, network=network)

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
        cost = VLINK_LAYER_OVERHEAD + CROSS_PARADIGM_STREAM_OVERHEAD
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
        rx.cost += VLINK_LAYER_OVERHEAD
        rx.cost += CROSS_PARADIGM_STREAM_OVERHEAD
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

    def unlisten(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connect(self, dst_host: Host, port: int, network=None) -> SimEvent:
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
        self.ctl_channel.send(peer_rank, ctl, b"", extra_cost=VLINK_LAYER_OVERHEAD)
        return done

    def reaches(self, dst_host: Host) -> bool:
        return self.group.contains(dst_host) and dst_host is not self.host

    # -- MadIO callbacks ----------------------------------------------------------------
    def _on_ctl(self, src_rank: int, header: bytes, body: bytes, delivery: Delivery) -> None:
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
        cost = self.driver.per_message_overhead + len(data) / self.driver.host.cpu.memcpy_bandwidth
        if done is None:
            done = self.sim.event(name="loopback-write")
        self.sim.call_later(cost, self.peer.buffer.append, immutable(data))
        return done.succeed(len(data), delay=cost)

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

    def unlisten(self, port: int) -> None:
        self._listeners.pop(port, None)

    def connect(self, dst_host: Host, port: int, network=None) -> SimEvent:
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
