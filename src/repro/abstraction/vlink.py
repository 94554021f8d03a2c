"""VLink: the distributed-paradigm abstract interface.

"The VLink interface is designed for distributed computing.  It is
client/server-oriented, supports dynamic connections, and streaming.  In
order to easily allow several personalities — both synchronous and
asynchronous personalities —, VLink is based on a flexible asynchronous
API.  This API consists in five primitive operations — read, write,
connect, accept, close.  These functions are asynchronous: when they are
invoked, they initiate (post) the operation and may return before
completion.  Their completion may be tested by polling the VLink
descriptor; a handler may be set which will be called upon operation
completion." (§4.2)

The five primitives map onto :class:`VLinkOperation` objects: posting
returns the operation immediately, ``op.poll()`` tests completion,
``op.set_handler(fn)`` installs a completion handler, and — because a
:class:`VLinkOperation` *is* a simulation event — synchronous personalities
simply ``yield`` it.

Drivers (the incarnations of the interface on actual resources) are
registered with the per-host :class:`VLinkManager`; the paper's list —
MadIO, SysIO, Parallel Streams for WAN, AdOC, loopback — corresponds to
:mod:`repro.abstraction.drivers` plus the method drivers in
:mod:`repro.methods`.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from repro.simnet.buffers import immutable
from repro.simnet.engine import SimEvent
from repro.simnet.host import Host
from repro.abstraction.common import AbstractionError
from repro.abstraction.routing import (
    GATEWAY_RELAY_PORT,
    GATEWAY_RELAY_SERVICE,
    MAX_RELAY_TTL,
    Route,
    RouteChoice,
    encode_pinned_hops,
    pack_relay_hello,
)
from repro.abstraction.selector import Selector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.abstraction.drivers import VLinkDriver


VLINK_SERVICE = "vlink"

class VLinkState(enum.Enum):
    IDLE = "idle"
    CONNECTING = "connecting"
    ESTABLISHED = "established"
    CLOSED = "closed"


class VLinkOperation(SimEvent):
    """An asynchronous VLink operation (post / poll / handler)."""

    __slots__ = ("kind", "vlink")

    def __init__(self, sim, kind: str, vlink: Optional["VLink"] = None):
        super().__init__(sim, name=kind)
        self.kind = kind
        self.vlink = vlink

    def poll(self) -> bool:
        """Non-blocking completion test."""
        return self.triggered

    def set_handler(self, fn: Callable[["VLinkOperation"], None]) -> None:
        """Install a completion handler called with the operation itself."""
        self.add_callback(lambda _ev: fn(self))

    @property
    def result(self):
        """Value of the completed operation (None while pending)."""
        return self.value if self.triggered else None


class VLink:
    """A VLink descriptor: one established (or in-progress) connection."""

    def __init__(
        self,
        manager: "VLinkManager",
        driver_name: str,
        conn,
        route: "Optional[RouteChoice | Route]" = None,
    ):
        self.manager = manager
        self.sim = manager.sim
        self.driver_name = driver_name
        self.conn = conn
        self.route = route
        self.state = VLinkState.ESTABLISHED if conn is not None else VLinkState.IDLE
        self.bytes_read = 0

    # -- primitives -----------------------------------------------------------
    def write(self, data: bytes, done: Optional[SimEvent] = None) -> SimEvent:
        """Post a write of ``data``; completes when the peer holds the bytes.

        ``data`` may be a :class:`~repro.simnet.buffers.Gather`: the parts
        go down as *one* write (one MadIO message, one TCP send).  The
        operation itself is handed to the driver connection, which
        completes it; a layer above that has its own operation to complete
        (a Circuit send, SysWrap) passes it as ``done`` and gets it back
        instead of a new :class:`VLinkOperation`.
        """
        self._check_established("write")
        if done is None:
            done = VLinkOperation(self.sim, "write", self)
        # drivers may alias the buffer: mutables are snapshotted here, once
        return self.conn.write(immutable(data), done)

    def read(self, nbytes: int, exact=True, done=None, gather=False, charge=None) -> SimEvent:
        """Post a read; completes with the bytes (exactly ``nbytes`` when
        ``exact``, otherwise whatever is available up to ``nbytes``) — by
        reference, as the writer's own ``bytes`` or a ``Gather`` of the
        buffered chunks, for a caller that parses over parts (``gather``);
        ``charge()``, the caller's own cost of an exact read, delays its completion."""
        self._check_established("read")
        if done is None:
            done = VLinkOperation(self.sim, "read", self)
        done.add_callback(self._count_read)
        if exact:
            return self.conn.recv_exact(nbytes, done, gather, charge)
        return self.conn.recv(nbytes, done, gather)

    def _count_read(self, op: SimEvent) -> None:
        if op._exc is None:
            self.bytes_read += len(op.value)

    def close(self) -> VLinkOperation:
        """Post a close of the link."""
        op = VLinkOperation(self.sim, "close", self)
        if self.state is VLinkState.CLOSED:
            op.succeed(None)
            return op
        self.state = VLinkState.CLOSED
        self.conn.close()
        op.succeed(None)
        return op

    # -- non-blocking helpers --------------------------------------------------
    def available(self) -> int:
        """Bytes readable without waiting."""
        return self.conn.available()

    def peek(self, nbytes: int) -> bytes:
        return self.conn.peek(nbytes)

    def read_available(self, limit: Optional[int] = None, gather: bool = False):
        data = self.conn.read_available(limit, gather)
        self.bytes_read += len(data)
        return data

    def set_data_handler(self, fn: Optional[Callable[["VLink"], None]]) -> None:
        """Handler called whenever new bytes become readable (asynchronous
        personalities and SysWrap's readiness hook use this)."""
        if fn is None:
            self.conn.set_data_callback(None)
        else:
            self.conn.set_data_callback(lambda _c: fn(self))

    def set_close_handler(self, fn: Optional[Callable[["VLink"], None]]) -> None:
        """Handler called when the underlying connection closes.

        Used by gateway relays (teardown propagation across the splice) and
        adaptive links (rail-death detection).
        """
        self.conn.set_close_callback(None if fn is None else (lambda _conn: fn(self)))

    # the driver-connection names, so a VLink is a stream like a socket
    # (what the record layer and the stream-mesh adapters read)
    set_data_callback = set_data_handler
    set_close_callback = set_close_handler

    # -- internals ----------------------------------------------------------------
    def _check_established(self, opname: str) -> None:
        if self.state is not VLinkState.ESTABLISHED:
            raise AbstractionError(f"VLink.{opname}() on a link in state {self.state.value}")

    @property
    def peer_name(self) -> str:
        return getattr(self.conn, "peer_name", "?")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VLink via {self.driver_name} to {self.peer_name} state={self.state.value}>"


class VLinkListener:
    """Server side of VLink: accepts incoming links from any registered driver."""

    def __init__(self, manager: "VLinkManager", port: int):
        if port in manager._listeners:
            raise AbstractionError(f"VLink port {port} already in use on {manager.host.name}")
        self.manager = manager
        self.sim = manager.sim
        self.port = port
        self._accept_callback: Optional[Callable[[VLink], None]] = None
        self._ready: List[VLink] = []
        self._waiters: List[VLinkOperation] = []
        self.accepted = 0
        manager._listeners[port] = self
        for driver in manager._drivers.values():
            manager._serve(driver, self)

    def accept(self) -> VLinkOperation:
        """Post an accept; completes with the next incoming :class:`VLink`."""
        op = VLinkOperation(self.sim, "accept")
        if self._ready:
            op.succeed(self._ready.pop(0))
        else:
            self._waiters.append(op)
        return op

    def set_accept_callback(self, fn: Callable[[VLink], None]) -> None:
        """Callback mode: every incoming link is handed to ``fn``."""
        self._accept_callback = fn
        while self._ready:
            fn(self._ready.pop(0))

    def _incoming(self, link: VLink) -> None:
        """The accept queue: a driver's accepted link (or, for an adaptive
        listener, a handshaken session) goes to a waiting accept, the accept
        callback, or the ready list."""
        if self.manager._listeners.get(self.port) is not self:
            link.close()  # accepted below before close() released the port
            return
        self.accepted += 1
        if self._waiters:
            self._waiters.pop(0).succeed(link)
        elif self._accept_callback is not None:
            self._accept_callback(link)
        else:
            self._ready.append(link)

    def close(self) -> None:
        """Stop listening: every driver releases the port, so a connect to it
        is refused and the port can be listened on again."""
        if self.manager._listeners.get(self.port) is self:
            del self.manager._listeners[self.port]
            for driver in self.manager._drivers.values():
                driver.unlisten(self.port)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VLinkListener :{self.port} accepted={self.accepted}>"


class VLinkManager:
    """Per-host VLink factory: driver registry + connect/listen entry points."""

    def __init__(self, host: Host, selector: Selector):
        self.host = host
        self.sim = host.sim
        self.selector = selector
        self._drivers: Dict[str, "VLinkDriver"] = {}
        self._listeners: Dict[int, VLinkListener] = {}
        #: optional hook run before re-routing towards a destination; the
        #: framework points it at ``ensure_gateways`` so migrations can land
        #: on relay routes whose gateways are booted on demand.
        self.gateway_provisioner: Optional[Callable[[Host], None]] = None
        host.register_service(VLINK_SERVICE, self, replace=True)

    # -- drivers -------------------------------------------------------------------
    def register_driver(self, driver: "VLinkDriver") -> "VLinkDriver":
        """Register a VLink driver (an incarnation of the abstract interface)."""
        if driver.name in self._drivers:
            return self._drivers[driver.name]
        self._drivers[driver.name] = driver
        # Late registration (e.g. WAN method drivers enabled on a gateway
        # after boot) must serve the ports the manager already listens on.
        for listener in self._listeners.values():
            self._serve(driver, listener)
        return driver

    def _serve(self, driver: "VLinkDriver", listener: VLinkListener) -> None:
        """Hand ``listener`` every connection ``driver`` accepts on its port."""
        # default arguments, not a closure: one of these per port and driver
        # on every host, and a closure's cells cost more memory
        driver.listen(
            listener.port,
            lambda conn, _peer, m=self, n=driver.name, to=listener: to._incoming(VLink(m, n, conn)),
        )

    def driver(self, name: str) -> "VLinkDriver":
        try:
            return self._drivers[name]
        except KeyError:
            raise AbstractionError(
                f"no VLink driver {name!r} on host {self.host.name}; "
                f"registered: {sorted(self._drivers)}"
            ) from None

    def driver_names(self) -> List[str]:
        return sorted(self._drivers)

    def reliable_driver_names(self) -> List[str]:
        """Drivers that never surrender bytes (adaptive rails require this:
        a VRP driver with a non-zero tolerance would hole the framed stream)."""
        return sorted(
            name for name, driver in self._drivers.items() if getattr(driver, "reliable", True)
        )

    # -- server side -----------------------------------------------------------------
    def listen(self, port: int) -> VLinkListener:
        """Listen on ``port`` with every registered driver."""
        return VLinkListener(self, port)

    # -- client side -----------------------------------------------------------------
    def connect(
        self,
        dst_host: Host,
        port: int,
        method: Optional[str] = None,
        relay_ttl: int = MAX_RELAY_TTL,
        reliable_only: bool = False,
        route: Optional[Route] = None,
        params: Optional[Dict[str, float]] = None,
    ) -> VLinkOperation:
        """Post a connect to ``dst_host:port``.

        The driver is chosen by (in decreasing priority) the explicit
        ``method`` argument, a pre-pinned ``route`` (route-aware Circuits,
        adaptive route providers and relay continuations pass one), or the
        selector's route for the link.  For a multi-hop route the
        connection is opened to the first gateway's relay service, which
        store-and-forwards towards the destination (``relay_ttl`` bounds the
        remaining chain length) honouring the route's pinned per-hop methods
        when given.  ``reliable_only`` restricts selection to drivers that
        never give up bytes (adaptive rails need that guarantee); ``params``
        carries per-connection method parameters (e.g. ``streams``,
        ``tolerance``) for drivers that support tuning.
        """
        op = VLinkOperation(self.sim, "connect")
        chosen: Optional[RouteChoice | Route] = None
        network = None  # the chosen hop's; an explicit ``method`` leaves it to the driver
        if method is None and route is not None and route.hops:
            first = route.first
            if not route.is_direct:
                # relay legs always require reliability; the first hop's
                # driver (and the gateway's relay) must be usable here —
                # otherwise the pinning is stale and live selection takes
                # over.
                if (
                    first.dst is not None
                    and self._pinned_usable(first, first.dst, True)
                    and first.dst.has_service(GATEWAY_RELAY_SERVICE)
                ):
                    self._connect_via_relay(route, dst_host, port, relay_ttl, op)
                    return op
            elif self._pinned_usable(first, dst_host, reliable_only):
                chosen = route
                method, network = first.method, first.network
                if params is None and first.params:
                    params = dict(first.params)
            # else: the pinned decision is gone/unreachable — fall back to
            # live selection below.
        if method is None:
            available = self.reliable_driver_names() if reliable_only else self.driver_names()
            full_route = self.selector.choose_vlink_route(
                self.host, dst_host, available, reliable_only=reliable_only
            )
            if not full_route.is_direct:
                self._connect_via_relay(full_route, dst_host, port, relay_ttl, op)
                return op
            chosen = full_route.first
            method, network = chosen.method, chosen.network
            if params is None and chosen.params:
                params = dict(chosen.params)
        driver = self.resolve_driver(method, dst_host)

        def _connected(ev):
            if ev.ok:
                link = VLink(self, driver.name, ev.value, chosen)
                if not op.triggered:
                    op.succeed(link)
            elif not op.triggered:
                op.fail(ev.value)

        self._driver_connect(driver, dst_host, port, params, network, reliable_only).add_callback(
            _connected
        )
        return op

    def _pinned_usable(self, choice: RouteChoice, dst_host: Host, reliable_only: bool) -> bool:
        """Can a pinned hop decision still be executed here right now?"""
        try:
            driver = self.resolve_driver(choice.method, dst_host)
        except AbstractionError:
            return False
        if not driver.reaches(dst_host):
            return False
        if reliable_only and not getattr(driver, "reliable", True):
            return False
        return True

    @staticmethod
    def _driver_connect(driver, dst_host: Host, port: int, params, network, reliable_only: bool):
        """Open the driver connection on the hop's network, applying
        per-connection parameters.

        A reliable-only leg must never loosen reliability: a pinned
        ``tolerance`` is forced to zero on such legs whatever the route
        said (belt and braces — selection already derives zero there).
        """
        if params:
            if reliable_only and params.get("tolerance"):
                params = dict(params)
                params["tolerance"] = 0.0
            return driver.connect_with_params(dst_host, port, params, network)
        return driver.connect(dst_host, port, network)

    def _connect_via_relay(
        self,
        route: Route,
        dst_host: Host,
        port: int,
        relay_ttl: int,
        op: VLinkOperation,
    ) -> None:
        """Open the first leg to a gateway relay and handshake the rest.

        The relay hello carries the route's remaining hop decisions, so the
        chain executes the client's per-hop pinning (each relay still falls
        back to autonomous selection when a pinned driver is unusable).
        """
        first = route.first
        gateway = first.dst
        if not gateway.has_service(GATEWAY_RELAY_SERVICE):
            op.fail(
                AbstractionError(
                    f"route {route.describe()} needs gateway {gateway.name!r}, "
                    f"but no relay runs there; boot it first "
                    f"(PadicoFramework.boot() starts one on every node)"
                )
            )
            return
        driver = self.resolve_driver(first.method, gateway)
        hello = pack_relay_hello(
            dst_host.name, port, relay_ttl, pinned=encode_pinned_hops(route.hops[1:])
        )

        def _leg_open(ev):
            if not ev.ok:
                if not op.triggered:
                    op.fail(ev.value)
                return
            conn = ev.value
            conn.write(hello)

            def _acked(ack_ev):
                if op.triggered:
                    return
                if ack_ev.ok and ack_ev.value == b"\x01":
                    op.succeed(VLink(self, driver.name, conn, route))
                else:
                    relay = gateway.get_service(GATEWAY_RELAY_SERVICE)
                    detail = getattr(relay, "last_error", "") or "relay refused"
                    op.fail(
                        ConnectionRefusedError(
                            f"gateway {gateway.name} could not reach "
                            f"{dst_host.name}:{port}: {detail}"
                        )
                    )

            conn.recv_exact(1).add_callback(_acked)

        self._driver_connect(
            driver, gateway, GATEWAY_RELAY_PORT, dict(first.params) or None, first.network, True
        ).add_callback(_leg_open)

    def resolve_driver(self, method: str, dst_host: Host) -> "VLinkDriver":
        """The driver for ``method`` that actually reaches ``dst_host``.

        Multi-rail hosts register one driver per SAN ("madio" for the primary
        rail, "madio:<network>" for the others); when the policy names the
        bare method but the primary rail does not reach the destination, the
        matching secondary-rail driver is substituted.
        """
        driver = self.driver(method)
        if driver.reaches(dst_host):
            return driver
        prefix = f"{method}:"
        for name in sorted(self._drivers):
            if name.startswith(prefix) and self._drivers[name].reaches(dst_host):
                return self._drivers[name]
        return driver

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VLinkManager host={self.host.name} drivers={self.driver_names()}>"
