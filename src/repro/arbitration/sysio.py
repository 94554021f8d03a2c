"""SysIO: arbitrated, callback-based access to system sockets.

"Contrary to a widespread belief, using directly the socket API from the OS
does not bring full reentrance, multiplexing and cooperation. [...] To solve
these conflicts, SysIO manages a unique receipt loop that scans the opened
sockets and calls user-registered callback functions when a socket is
ready.  The callback-basedness guarantees that there is no reentrance issue
nor signals to mangle with." (§4.1)

:class:`SysIO` wraps the simulated OS TCP stack (:mod:`repro.simnet.tcp`).
Each open socket is represented by a :class:`SysSocket`; incoming data wakes
the socket's registered callback *through the NetAccess core*, which charges
the arbitration dispatch cost and keeps the fairness accounting that the
concurrency benchmark inspects.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.simnet.network import Network
from repro.simnet.tcp import TcpConnection, TcpListener, TcpStack, SERVICE_KEY as TCP_SERVICE
from repro.arbitration.netaccess import ArbitrationError, NetAccessCore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.engine import SimEvent
    from repro.simnet.host import Host


SYSIO_SUBSYSTEM = "sysio"


class SysSocket:
    """A socket managed by the SysIO receipt loop."""

    def __init__(self, sysio: "SysIO", conn: TcpConnection, label: str = ""):
        self.sysio = sysio
        self.conn = conn
        self.sim = sysio.sim
        self.label = label or f"sys-sock-{conn.conn_id}"
        self._data_callback: Optional[Callable[["SysSocket"], None]] = None
        self._close_callback: Optional[Callable[["SysSocket"], None]] = None
        conn.set_data_callback(self._on_readable)
        conn.set_close_callback(self._on_closed)

    # -- introspection ----------------------------------------------------------
    @property
    def host(self) -> "Host":
        return self.sysio.host

    @property
    def peer_name(self) -> str:
        return self.conn.peer_host.name

    @property
    def network(self) -> Network:
        return self.conn.network

    @property
    def closed(self) -> bool:
        return self.conn.closed

    def available(self) -> int:
        return self.conn.available()

    def peek(self, nbytes: int) -> bytes:
        return self.conn.peek(nbytes)

    # -- sending -------------------------------------------------------------------
    def write(self, data: bytes, done: Optional["SimEvent"] = None) -> "SimEvent":
        """Write bytes on the socket; the event (``done`` when the caller
        hands its own operation down) fires when the peer holds them."""
        self.sysio.bytes_sent += len(data)
        return self.conn.send(data, done)

    # -- receiving ------------------------------------------------------------------
    def set_data_callback(self, fn: Optional[Callable[["SysSocket"], None]]) -> None:
        """Register the "socket ready" callback run by the receipt loop."""
        self._data_callback = fn
        if fn is not None and self.conn.available() > 0:
            self.sysio._dispatch(self, fn)

    def read_available(self, limit: Optional[int] = None, gather: bool = False):
        return self.conn.read_available(limit, gather)

    def recv(self, nbytes=None, done=None, gather=False) -> "SimEvent":
        """Completion of a read still goes through the receipt loop: the
        NetAccess dispatch cost (and, in the no-arbitration ablation, the
        starvation penalty) applies to every socket readiness event — as
        the delay of the read's one trigger, taken when TCP hands the bytes
        (or the failure) over; an exact read's own ``charge()`` follows it."""
        return self.conn.recv(nbytes, done, gather, self.sysio._read_dispatch)

    def recv_exact(self, nbytes: int, done=None, gather=False, charge=None) -> "SimEvent":
        dispatch = self.sysio._read_dispatch
        return self.conn.recv_exact(nbytes, done, gather, dispatch if charge is None else
                                    lambda: dispatch() + charge())

    # -- lifecycle -----------------------------------------------------------------------
    def set_close_callback(self, fn: Optional[Callable[["SysSocket"], None]]) -> None:
        self._close_callback = fn

    def close(self) -> None:
        """Active close.  The close callback runs here, as a MadIO VLink
        connection's does: TCP itself runs it only on the peer's FIN."""
        if self.conn.closed:
            return
        self.conn.close()
        if self._close_callback is not None:
            self._close_callback(self)

    # -- internal: wired to the TCP stack ---------------------------------------------------
    def _on_readable(self, _conn: TcpConnection) -> None:
        if self._data_callback is not None:
            self.sysio._dispatch(self, self._data_callback)

    def _on_closed(self, _conn: TcpConnection) -> None:
        if self._close_callback is not None:
            self.sysio._dispatch(self, self._close_callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SysSocket {self.label} -> {self.peer_name} avail={self.available()}>"


class SysListener:
    """A listening socket whose accept events flow through the receipt loop."""

    def __init__(self, sysio: "SysIO", listener: TcpListener):
        self.sysio = sysio
        self.listener = listener
        self._accept_callback: Optional[Callable[[SysSocket], None]] = None
        listener.set_accept_callback(self._on_accept)

    @property
    def port(self) -> int:
        return self.listener.port

    def set_accept_callback(self, fn: Callable[[SysSocket], None]) -> None:
        self._accept_callback = fn

    def _on_accept(self, conn: TcpConnection) -> None:
        sock = SysSocket(self.sysio, conn, label=f"accepted:{self.port}")
        if self._accept_callback is not None:
            self.sysio._dispatch(sock, self._accept_callback)

    def close(self) -> None:
        """Stop listening and free the port for a later :meth:`SysIO.listen`."""
        self.listener.close()
        if self.sysio._listeners.get(self.port) is self:  # not a new listener's
            del self.sysio._listeners[self.port]


class SysIO:
    """The distributed-paradigm subsystem of NetAccess on one host."""

    def __init__(self, core: NetAccessCore, stack: Optional[TcpStack] = None):
        self.core = core
        self.host = core.host
        self.sim = core.sim
        self.stack = stack or self.host.get_service(TCP_SERVICE) or TcpStack(self.host)
        self._listeners: Dict[int, SysListener] = {}
        self.bytes_sent = 0
        self.dispatches = 0
        core.register_subsystem(SYSIO_SUBSYSTEM)
        self.host.register_service(SYSIO_SUBSYSTEM, self, replace=True)

    # -- socket management ----------------------------------------------------------
    def listen(
        self, port: int, accept_callback: Optional[Callable[[SysSocket], None]] = None
    ) -> SysListener:
        """Open a listening socket; incoming connections invoke the callback."""
        if port in self._listeners:
            raise ArbitrationError(f"port {port} already registered with SysIO on {self.host.name}")
        listener = SysListener(self, self.stack.listen(port))
        if accept_callback is not None:
            listener.set_accept_callback(accept_callback)
        self._listeners[port] = listener
        return listener

    def unlisten(self, port: int) -> None:
        """Close the listening socket on ``port``, if there is one."""
        listener = self._listeners.get(port)
        if listener is not None:
            listener.close()

    def connect(self, peer: "Host", port: int, network: Optional[Network] = None) -> "SimEvent":
        """Connect to ``peer:port``; the event succeeds with a :class:`SysSocket`."""
        done = self.sim.event(name=f"sysio-connect({peer.name}:{port})")
        attempt = self.stack.connect(peer, port, network=network)

        def _on_connected(ev) -> None:
            if ev.ok:
                sock = SysSocket(self, ev.value, label=f"connected:{peer.name}:{port}")
                done.succeed(sock)
            else:
                done.fail(ev.value)

        attempt.add_callback(_on_connected)
        return done

    # -- the receipt loop ---------------------------------------------------------------
    def _dispatch(self, sock: SysSocket, fn: Callable[[SysSocket], None]) -> None:
        """Deliver one readiness callback through the NetAccess core."""
        self.dispatches += 1
        self.core.defer(SYSIO_SUBSYSTEM, fn, sock)

    def _read_dispatch(self) -> float:
        """One posted read became ready: count it, return its dispatch delay."""
        self.dispatches += 1
        return self.core.charge_dispatch(SYSIO_SUBSYSTEM)

    # -- reporting -------------------------------------------------------------------------
    def describe(self) -> Dict[str, float]:
        return {
            "listeners": float(len(self._listeners)),
            "dispatches": float(self.dispatches),
            "bytes_sent": float(self.bytes_sent),
        }
