"""Circuit: the parallel-paradigm abstract interface.

"The Circuit interface is designed for parallelism.  It manages
communications on a definite set of nodes called a group.  A group may be an
arbitrary set of nodes, eg. a cluster, a subset of a cluster, may span
across multiple clusters or even multiple sites.  Circuit allows
communications from every node to every other node through an interface
optimized for parallel runtimes: it uses incremental packing with explicit
semantics to allow on-the-fly packet reordering, like in Madeleine.  [...]
Circuit adapters have been implemented on top of MadIO, SysIO, loopback and
VLink (to use the alternate VLink adapters); a given instance of Circuit can
use different adapters for different links." (§4.2)

The incremental packing API reuses the Madeleine segment encoding
(:mod:`repro.madeleine.message`) so EXPRESS/CHEAPER semantics survive end to
end; per-destination adapters are chosen by the selector at circuit creation
time and can indeed differ per link (e.g. MadIO inside a cluster, SysIO or
parallel-streams VLink across the WAN).
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.simnet.engine import SimEvent
from repro.simnet.host import Host, HostGroup
from repro.madeleine.message import MadIncoming, MadMessage
from repro.abstraction.common import AbstractionError, CIRCUIT_LAYER_OVERHEAD, RxPath
from repro.abstraction.selector import RouteChoice, Selector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.abstraction.adapters import CircuitAdapter


CIRCUIT_SERVICE = "circuit"

#: ``factory(circuit, route)`` builds the adapter serving a circuit's legs of
#: its kind (one per adapter class, however many methods it serves).
AdapterFactory = Callable[["Circuit", RouteChoice], "CircuitAdapter"]


def circuit_port(name: str) -> int:
    """Deterministic TCP/VLink port for a circuit name (cross-host stable)."""
    return 20000 + (zlib.crc32(name.encode("utf-8")) % 20000)


class CircuitMessage(MadMessage):
    """A message under incremental packing on a Circuit (same semantics as
    Madeleine packing: EXPRESS segments first, CHEAPER for bulk payload)."""


class CircuitIncoming(MadIncoming):
    """A received Circuit message being incrementally unpacked."""


class Circuit:
    """One host's endpoint in a named circuit over a group of hosts."""

    def __init__(self, manager: "CircuitManager", name: str, group: HostGroup):
        self.manager = manager
        self.host = manager.host
        self.sim = manager.sim
        self.name = name
        self.group = group
        #: the per-circuit adaptive bookkeeping surface
        #: (:class:`~repro.abstraction.adaptive_circuit.AdaptiveCircuitSession`)
        #: when the circuit was created with ``adaptive=True``; None otherwise.
        self.adaptive = None
        if not group.contains(self.host):
            raise AbstractionError(
                f"host {self.host.name!r} is not a member of group {group.name!r}"
            )
        #: this host's rank and the group's size, fixed when the circuit opens
        self.rank = group.index_of(self.host)
        self.size = len(group)
        self._adapters_by_rank: Dict[int, "CircuitAdapter"] = {}
        self._routes_by_rank: Dict[int, RouteChoice] = {}
        self._receive_callback: Optional[Callable[[int, CircuitIncoming, RxPath], None]] = None
        self._recv_queue: List[Tuple[int, CircuitIncoming]] = []
        self._recv_waiters: List[Tuple[Optional[int], SimEvent]] = []
        # per-source cursor serializing deliveries: a later small message's
        # cheaper receive-side cost must never let its callback fire before
        # an earlier large message from the same source (the Circuit-layer
        # member of the size-dependent-delay reordering family fixed for
        # MadVLink, AdOC/GSI and TCP segments in PRs 1-3).
        self._next_deliver_at: Dict[int, float] = {}
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- identity ----------------------------------------------------------------
    @property
    def port(self) -> int:
        return circuit_port(self.name)

    def host_of(self, rank: int) -> Host:
        return self.group[rank]

    def adapter_for(self, dst_rank: int) -> "CircuitAdapter":
        try:
            return self._adapters_by_rank[dst_rank]
        except KeyError:
            raise AbstractionError(
                f"circuit {self.name!r} has no adapter towards rank {dst_rank}"
            ) from None

    def route_for(self, dst_rank: int) -> RouteChoice:
        return self._routes_by_rank[dst_rank]

    def routes(self) -> Dict[int, RouteChoice]:
        return dict(self._routes_by_rank)

    # -- send side ------------------------------------------------------------------
    def new_message(self, dst_rank: int) -> CircuitMessage:
        """Start incremental packing of a message towards ``dst_rank``."""
        if not (0 <= dst_rank < self.size):
            raise AbstractionError(f"rank {dst_rank} outside group of size {self.size}")
        return CircuitMessage(dst_rank)

    def post(
        self,
        message: CircuitMessage,
        extra_cost: float = 0.0,
        done: Optional[SimEvent] = None,
    ) -> SimEvent:
        """Send a packed message; the event (``done``, when the caller hands
        its own operation down) fires at local send completion.
        ``extra_cost`` is the caller's send-side cost, in seconds."""
        adapter = self.adapter_for(message.dst_rank)
        payload = message.finish()
        self.messages_sent += 1
        self.bytes_sent += message.payload_bytes
        return adapter.send(message.dst_rank, payload, extra_cost + CIRCUIT_LAYER_OVERHEAD, done)

    def send(self, dst_rank: int, *buffers: bytes, express_first: bool = True) -> SimEvent:
        """Convenience: pack ``buffers`` (first express, rest cheaper) and post."""
        msg = self.new_message(dst_rank)
        for idx, buf in enumerate(buffers):
            if idx == 0 and express_first:
                msg.pack_express(buf)
            else:
                msg.pack_cheaper(buf)
        return self.post(msg)

    # -- receive side -----------------------------------------------------------------
    def set_receive_callback(
        self, fn: Optional[Callable[[int, CircuitIncoming, RxPath], None]]
    ) -> None:
        """Install the single consumer callback ``fn(src_rank, incoming, rx)``.

        Parallel runtimes (the MPI middleware, the DSM) use this; when no
        callback is installed messages are queued for :meth:`recv`.
        """
        self._receive_callback = fn

    def recv(self, src_rank: Optional[int] = None) -> SimEvent:
        """Event completing with ``(src_rank, CircuitIncoming)``."""
        ev = self.sim.event(name=f"circuit-recv({self.name})")
        for idx, (rank, incoming) in enumerate(self._recv_queue):
            if src_rank is None or rank == src_rank:
                self._recv_queue.pop(idx)
                ev.succeed((rank, incoming))
                return ev
        self._recv_waiters.append((src_rank, ev))
        return ev

    def _deliver(self, src_rank: int, payload: bytes, rx: RxPath) -> None:
        """Called by adapters when a complete message has arrived."""
        rx.cost += CIRCUIT_LAYER_OVERHEAD
        incoming = CircuitIncoming(src_rank, payload)
        self.messages_received += 1
        self.bytes_received += incoming.payload_bytes
        ready = max(rx.ready_time(), self._next_deliver_at.get(src_rank, 0.0))
        self._next_deliver_at[src_rank] = ready
        delay = max(0.0, ready - self.sim.now)
        if self._receive_callback is not None:
            self.sim.call_later(delay, self._receive_callback, src_rank, incoming, rx)
            return
        self.sim.call_later(delay, self._enqueue, src_rank, incoming)

    def _enqueue(self, src_rank: int, incoming: CircuitIncoming) -> None:
        for idx, (want, ev) in enumerate(self._recv_waiters):
            if want is None or want == src_rank:
                self._recv_waiters.pop(idx)
                if not ev.triggered:
                    ev.succeed((src_rank, incoming))
                return
        self._recv_queue.append((src_rank, incoming))

    # -- wiring (done by the manager) ------------------------------------------------------
    def _set_link(self, dst_rank: int, adapter: "CircuitAdapter", route: RouteChoice) -> None:
        self._adapters_by_rank[dst_rank] = adapter
        self._routes_by_rank[dst_rank] = route

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Circuit {self.name!r} rank={self.rank}/{self.size}>"


class CircuitManager:
    """Per-host factory for circuits; holds adapter factories and the selector."""

    def __init__(self, host: Host, selector: Selector, factories: Dict[str, AdapterFactory]):
        self.host = host
        self.sim = host.sim
        self.selector = selector
        #: ``factories`` is a table shared between managers (the framework
        #: hands every node the same one) and never written through here
        self._factories = factories
        #: name -> (circuit, the ``adaptive`` flag it was created with)
        self._circuits: Dict[str, Tuple[Circuit, bool]] = {}
        host.register_service(CIRCUIT_SERVICE, self, replace=True)

    # -- adapter registry -----------------------------------------------------------
    def adapter_names(self) -> List[str]:
        """Registered adapter factories that are actually usable right now.

        ``vlink:<method>`` adapters are only available when the corresponding
        VLink method driver has been registered on this host (the framework
        registers the factories eagerly, but the WAN-method drivers are
        optional add-ons).
        """
        names = []
        vlink_manager = self.host.get_service("vlink")
        for name in sorted(self._factories):
            if name.startswith("vlink:") and vlink_manager is not None:
                method = name.split(":", 1)[1]
                if method not in vlink_manager.driver_names():
                    continue
            names.append(name)
        return names

    # -- circuit creation -------------------------------------------------------------
    def create(
        self,
        name: str,
        group: HostGroup,
        *,
        methods: Optional[Dict[int, str]] = None,
        adaptive: bool = False,
    ) -> Circuit:
        """Create the local endpoint of circuit ``name`` over ``group``.

        ``methods`` optionally forces the adapter per destination rank
        (used by ablation benchmarks); otherwise the selector decides.
        With ``adaptive=True`` every remote leg rides an adaptive session
        (:mod:`repro.abstraction.adaptive_circuit`): the leg's rail follows
        the selector's circuit-hop pinning and migrates — alone, preserving
        per-source byte order — when its hop degrades or its gateway dies.
        Every member of the group must agree on the flag (an adaptive
        endpoint handshakes sessions, a static one expects raw streams).

        A name opens one circuit per host: asking for it again returns the
        same endpoint, and raises :class:`AbstractionError` if the group
        (the same object, or the same host names in order) or the adaptive
        flag differ from the first open's.
        """
        if name in self._circuits:
            circuit, have_adaptive = self._circuits[name]
            if circuit.group is not group and [h.name for h in circuit.group] != [
                h.name for h in group
            ]:
                raise AbstractionError(
                    f"circuit {name!r} is already open over group {circuit.group.name!r}; "
                    f"reopening it over group {group.name!r} is not possible — "
                    "pick a different name"
                )
            if bool(adaptive) != have_adaptive:
                raise AbstractionError(
                    f"circuit {name!r} is already open with adaptive={have_adaptive}; "
                    f"reopening it with adaptive={bool(adaptive)} is not possible — "
                    "pick a different name"
                )
            return circuit
        if adaptive and methods:
            # forcing a concrete adapter per rank and asking for migratable
            # sessions contradict each other; failing beats silently
            # measuring the wrong transport in an ablation run.
            raise AbstractionError(
                "circuit(adaptive=True) cannot honour a forced `methods` map; "
                "drop one of the two"
            )
        circuit = Circuit(self, name, group)
        adapters: Dict[AdapterFactory, "CircuitAdapter"] = {}
        for dst_rank, dst_host in enumerate(group):
            if dst_host is self.host:
                continue
            route = self._route(circuit, dst_host, methods, dst_rank)
            factory_name = "adaptive" if adaptive else route.method
            factory = self._factories.get(factory_name)
            if factory is None:
                raise AbstractionError(
                    f"no Circuit adapter factory {factory_name!r} on host {self.host.name}; "
                    f"registered: {self.adapter_names()}"
                )
            adapter = adapters.get(factory)
            if adapter is None:
                adapter = adapters[factory] = factory(circuit, route)
                adapter.start()
            circuit._set_link(dst_rank, adapter, route)
        if adaptive:
            from repro.abstraction.adaptive_circuit import (
                AdaptiveCircuitAdapter,
                AdaptiveCircuitSession,
            )

            for adapter in adapters.values():
                if isinstance(adapter, AdaptiveCircuitAdapter):
                    circuit.adaptive = AdaptiveCircuitSession(circuit, adapter)
        self._circuits[name] = (circuit, bool(adaptive))
        return circuit

    def _route(
        self,
        circuit: Circuit,
        dst_host: Host,
        methods: Optional[Dict[int, str]],
        dst_rank: int,
    ) -> RouteChoice:
        if methods is not None and dst_rank in methods:
            forced = methods[dst_rank]
            profile = self.selector.topology.link_profile(self.host, dst_host)
            return RouteChoice(
                method=forced,
                network=Selector._network_for(forced, profile),
                link_class=profile.link_class,
                reason="forced",
            )
        return self.selector.choose_circuit_route(self.host, dst_host, self.adapter_names())

    def circuit(self, name: str) -> Circuit:
        return self._circuits[name][0]
