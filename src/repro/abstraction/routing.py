"""The multi-hop routing subsystem of the abstraction layer.

The paper's headline scenario is transparently bridging heterogeneous
deployments — "clusters on SANs reached across a WAN" (§2.1).  Real grid
topologies have *front-end gateway* nodes: compute nodes sit on a SAN and a
private LAN, and only the gateway also holds a WAN interface.  A direct
common network between two arbitrary hosts therefore often does not exist,
yet a path through one or more gateways does.

This module reads the :class:`~repro.abstraction.topology.TopologyKB` as a
weighted host–network graph and runs shortest-path search over it:

* :class:`RoutingEngine` — Dijkstra over hosts, edge weights derived from the
  first-order transfer-time model of :mod:`repro.simnet.cost` (latency plus
  a reference payload over the wire bandwidth, a loss penalty, and a
  store-and-forward penalty per intermediate node so direct links always win
  ties).  The graph is searched in place — from a host to its networks'
  other hosts, through the NIC tables — and never materialised; host paths
  and one weight per network are memoized until the topology changes.
* :class:`RouteChoice` — the selector's decision for one hop (historically
  the whole decision; it now also records which hosts the hop joins).
* :class:`Route` — an ordered sequence of :class:`RouteChoice` hops from a
  source to a destination; single-hop routes are exactly what the seed
  selector produced for directly connected pairs.
* :class:`GatewayRelay` — the forwarding service booted on every
  :class:`~repro.core.framework.PadicoNode`: it accepts VLink streams on a
  reserved port, reads a small relay handshake naming the final destination,
  opens the next leg through its own VLink manager (which may recursively
  relay again) and then store-and-forwards bytes between the two rails.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.simnet.cost import MILLISECOND, latency_bandwidth_time
from repro.simnet.host import Host
from repro.simnet.network import Network
from repro.abstraction.common import AbstractionError, GATEWAY_FORWARD_OVERHEAD
from repro.abstraction.records import Serializer, read_hello
from repro.abstraction.topology import LinkClass, TopologyKB

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.abstraction.vlink import VLink, VLinkManager


#: reserved VLink port every booted node's GatewayRelay listens on.
GATEWAY_RELAY_PORT = 19909

#: relay handshakes start with this TTL; each relay decrements it, so a
#: routing loop (or an absurdly long gateway chain) fails cleanly.
MAX_RELAY_TTL = 8

#: reference payload for edge weights: big enough that bandwidth matters,
#: small enough that latency still separates a SAN from a LAN.
ROUTE_WEIGHT_REF_BYTES = 64 * 1024

#: extra weight per intermediate node: a gateway costs store-and-forward
#: work, and ties between a direct link and a two-hop path must go direct.
ROUTE_RELAY_PENALTY = 1.0 * MILLISECOND


@dataclass
class RouteChoice:
    """The selector's decision for one hop of a route."""

    #: adapter / driver name to use ("madio", "sysio", "loopback",
    #: "parallel_streams", "adoc", "vrp", ...)
    method: str
    #: network the adapter should run on (None for loopback).
    network: Optional[Network]
    #: link class that drove the decision.
    link_class: LinkClass
    #: True when the chosen adapter translates between paradigms.
    cross_paradigm: bool = False
    #: Human-readable explanation (surfaced by the framework status report).
    reason: str = ""
    #: hosts this hop joins (None on legacy single-hop construction sites).
    src: Optional[Host] = None
    dst: Optional[Host] = None
    #: monitoring-driven method parameters (e.g. ``streams`` for parallel
    #: streams, ``tolerance`` for VRP), derived from the measured metrics of
    #: the hop's network by :meth:`Selector.derive_method_params`.
    params: Dict[str, float] = field(default_factory=dict)
    #: pinned multi-hop continuation for routed Circuit legs: the concrete
    #: per-hop method decisions the relay chain should honour instead of
    #: re-selecting autonomously.
    via: Optional["Route"] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        x = " cross" if self.cross_paradigm else ""
        p = f" {self.params}" if self.params else ""
        return f"<RouteChoice {self.method} on {self.network.name if self.network else 'local'}{x}{p}>"


@dataclass
class Hop:
    """One edge of a host path: ``src`` reaches ``dst`` over ``network``."""

    src: Host
    dst: Host
    network: Network
    weight: float

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Hop {self.src.name}->{self.dst.name} via {self.network.name}>"


@dataclass
class Route:
    """An end-to-end path: an ordered sequence of per-hop choices."""

    src: Host
    dst: Host
    hops: List[RouteChoice] = field(default_factory=list)

    @property
    def is_direct(self) -> bool:
        return len(self.hops) <= 1

    @property
    def first(self) -> RouteChoice:
        return self.hops[0]

    def gateways(self) -> List[Host]:
        """The intermediate hosts traffic is relayed through."""
        return [hop.dst for hop in self.hops[:-1]]

    def describe(self) -> str:
        parts = [self.src.name]
        for hop in self.hops:
            net = hop.network.name if hop.network is not None else "local"
            parts.append(f"-[{hop.method}/{net}]-> {hop.dst.name if hop.dst else '?'}")
        return " ".join(parts)

    def __len__(self) -> int:
        return len(self.hops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Route {self.describe()}>"


class RoutingEngine:
    """Shortest-path search over the host–network graph of a TopologyKB.

    What is memoized (host paths, one edge weight per network) belongs to
    one :attr:`TopologyKB.generation`; registering a host or a network,
    attaching a NIC anywhere in the simulation, a measurement or a liveness
    verdict drops it.
    """

    def __init__(self, topology: TopologyKB):
        self.topology = topology
        self._generation = -1
        self._weights: Dict[Network, float] = {}
        self._path_cache: Dict[Tuple[int, int], List[Hop]] = {}

    # -- edge weights ----------------------------------------------------------
    def edge_weight(self, network: Network) -> float:
        """First-order cost of moving a reference payload over ``network``.

        Latency + payload/bandwidth, inflated by the loss rate (a lossy WAN
        triggers TCP backoff well beyond its nominal parameters).  Uses the
        topology KB's *effective* metrics, so measured degradations pushed by
        the monitoring subsystem steer routes away from sick links.
        """
        topology = self.topology
        base = latency_bandwidth_time(
            ROUTE_WEIGHT_REF_BYTES,
            topology.effective_latency(network),
            topology.effective_bandwidth(network),
        )
        return base * (1.0 + 10.0 * topology.effective_loss_rate(network))

    def _sync(self) -> None:
        """Drop what an older topology generation memoized."""
        generation = self.topology.generation
        if self._generation != generation:
            self._generation = generation
            self._weights.clear()
            self._path_cache.clear()

    # -- queries -----------------------------------------------------------------
    def host_path(self, src: Host, dst: Host) -> List[Hop]:
        """Cheapest hop sequence from ``src`` to ``dst`` (Dijkstra).

        Returns a single hop for directly connected pairs, an empty list for
        ``src is dst``, and raises :class:`AbstractionError` when the graph
        holds no path at all.
        """
        if src is dst:
            return []
        self._sync()
        key = (id(src), id(dst))
        hops = self._path_cache.get(key)
        if hops is None:
            hops = self._path_cache[key] = self._dijkstra(src, dst)
        return hops

    def reachable(self, src: Host, dst: Host) -> bool:
        try:
            self.host_path(src, dst)
            return True
        except AbstractionError:
            return False

    def gateways_between(self, src: Host, dst: Host) -> List[Host]:
        """The intermediate hosts on the cheapest src->dst path."""
        return [hop.dst for hop in self.host_path(src, dst)[:-1]]

    def describe(self) -> Dict[str, object]:
        self._sync()
        topology = self.topology
        edges = 0
        for network in topology.networks():
            if topology.is_link_up(network):
                members = sum(1 for h in network.nics if self._relays(h))
                edges += members * (members - 1)
        return {
            "generation": topology.generation,
            "hosts": len(topology.hosts()),
            "edges": edges,
            "cached_paths": len(self._path_cache),
        }

    # -- internals ----------------------------------------------------------------
    def _relays(self, host: Host) -> bool:
        """A vertex of the graph: registered and believed up."""
        topology = self.topology
        return topology.is_host_registered(host) and topology.is_host_up(host)

    def _dijkstra(self, src: Host, dst: Host) -> List[Hop]:
        """Search the host–network graph in place: a host's edges are its
        own live registered networks (registration order), a network's are
        its attached hosts (attachment order) — the order every member of a
        LAN reaching every other used to be laid out in, so equal-cost
        paths resolve the same way without the clique ever being built."""
        topology = self.topology
        if not (topology.is_host_registered(src) and topology.is_host_registered(dst)):
            raise AbstractionError(
                f"no route between {src.name} and {dst.name}: "
                f"host not part of the registered topology"
            )
        weights = self._weights
        dist: Dict[Host, float] = {src: 0.0}
        prev: Dict[Host, Tuple[Host, Network, float]] = {}
        visited: set = set()
        counter = 0  # tie-breaker: hosts are not orderable
        # a source believed down has no edges
        queue: List[Tuple[float, int, Host]] = (
            [(0.0, counter, src)] if topology.is_host_up(src) else []
        )
        while queue:
            d, _, here = heapq.heappop(queue)
            if here in visited:
                continue
            if here is dst:
                break
            visited.add(here)
            for network in topology.networks_between(here, here):
                weight = weights.get(network)
                if weight is None:
                    weight = weights[network] = self.edge_weight(network)
                for neighbour in network.nics:
                    if neighbour in visited:  # ``here`` included
                        continue
                    cost = d + weight
                    if neighbour is not dst:
                        cost += ROUTE_RELAY_PENALTY
                    if cost < dist.get(neighbour, float("inf")) and self._relays(neighbour):
                        dist[neighbour] = cost
                        prev[neighbour] = (here, network, weight)
                        counter += 1
                        heapq.heappush(queue, (cost, counter, neighbour))
        if dst not in prev:
            raise AbstractionError(
                f"no route between {src.name} and {dst.name}: "
                f"no chain of common networks connects them"
            )
        hops: List[Hop] = []
        here = dst
        while here is not src:
            earlier, network, weight = prev[here]
            hops.append(Hop(earlier, here, network, weight))
            here = earlier
        hops.reverse()
        return hops

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RoutingEngine over {self.topology!r}>"


# ---------------------------------------------------------------------------
# The gateway relay: store-and-forward between two VLink rails
# ---------------------------------------------------------------------------

#: relay handshake: magic, final port, TTL, destination-name length,
#: pinned-hop blob length.
_RELAY_HELLO = struct.Struct("!4sHBHH")
_RELAY_MAGIC = b"PRLY"
_RELAY_OK = b"\x01"
_RELAY_FAIL = b"\x00"

GATEWAY_RELAY_SERVICE = "gateway-relay"


def pack_relay_hello(dst_name: str, port: int, ttl: int, pinned: bytes = b"") -> bytes:
    """The client side of the relay handshake.

    ``pinned`` optionally carries the encoded method decisions for the
    remaining hops (see :func:`encode_pinned_hops`); an empty blob keeps the
    historical behaviour where every relay re-selects autonomously.
    """
    name = dst_name.encode("utf-8")
    return _RELAY_HELLO.pack(_RELAY_MAGIC, port, ttl, len(name), len(pinned)) + name + pinned


def encode_pinned_hops(hops: List[RouteChoice]) -> bytes:
    """Serialize per-hop method decisions for the relay handshake.

    Each hop encodes as ``method@dst[#key=value...]``; hops are joined with
    ``;``.  Pinning requires explicit hop endpoints — any hop without a
    ``dst`` yields an empty blob (the relays then re-select autonomously,
    the pre-pinning behaviour).
    """
    parts = []
    for hop in hops:
        if hop.dst is None:
            return b""
        spec = f"{hop.method}@{hop.dst.name}"
        for key in sorted(hop.params):
            spec += f"#{key}={hop.params[key]}"
        parts.append(spec)
    return ";".join(parts).encode("utf-8")


def decode_pinned_hops(blob: bytes) -> List[Tuple[str, str, Dict[str, float]]]:
    """Parse a pinned-hop blob into ``(method, dst_name, params)`` triples.

    Raises :class:`ValueError` on malformed input; callers treat that as
    "no pinning" and fall back to autonomous selection.
    """
    triples: List[Tuple[str, str, Dict[str, float]]] = []
    for spec in blob.decode("utf-8").split(";"):
        fields = spec.split("#")
        method, _, dst_name = fields[0].partition("@")
        if not method or not dst_name:
            raise ValueError(f"malformed pinned hop {spec!r}")
        params: Dict[str, float] = {}
        for pair in fields[1:]:
            key, _, raw = pair.partition("=")
            value = float(raw)
            params[key] = int(value) if value.is_integer() and "." not in raw else value
        triples.append((method, dst_name, params))
    return triples


def _hello_len(fields: Tuple) -> int:
    """The name and the pinned hops; nothing behind a bad magic (refused at once)."""
    magic, _port, _ttl, name_len, pin_len = fields
    return name_len + pin_len if magic == _RELAY_MAGIC else 0


class _RelaySession:
    """One upstream stream being handshaken and then spliced downstream."""

    def __init__(self, relay: "GatewayRelay", upstream: "VLink"):
        self.relay = relay
        self.sim = relay.sim
        self.upstream = upstream
        self.downstream: Optional["VLink"] = None
        self.closed = False
        # one cursor per direction: a small chunk's shorter copy delay must
        # never let it overtake an earlier large one
        self._to_downstream = Serializer(self.sim)
        self._to_upstream = Serializer(self.sim)
        # payload behind the hello stays buffered upstream while the next leg opens
        read_hello(upstream, _RELAY_HELLO, _hello_len, self._on_hello)

    # -- handshake phase -------------------------------------------------------
    def _on_hello(self, upstream: "VLink", fields: Tuple, body) -> None:
        magic, port, ttl, name_len, _pin_len = fields
        if magic != _RELAY_MAGIC:
            self._refuse("relay: bad handshake magic")
            return
        body = bytes(body)
        self._open_downstream(body[:name_len].decode("utf-8"), port, ttl, body[name_len:])

    def _open_downstream(self, dst_name: str, port: int, ttl: int, pinned: bytes = b"") -> None:
        if ttl <= 0:
            self._refuse(f"relay TTL exhausted towards {dst_name!r}")
            return
        topology = self.relay.topology
        try:
            dst_host = topology.host_by_name(dst_name)
        except LookupError:
            self._refuse(f"relay: unknown destination host {dst_name!r}")
            return
        route = self._pinned_route(dst_host, pinned) if pinned else None
        try:
            # a relay leg carries somebody else's byte stream: only drivers
            # that never surrender bytes may serve it (e.g. a VRP driver is
            # usable only at zero tolerance).
            attempt = self.relay.manager.connect(
                dst_host, port, relay_ttl=ttl - 1, reliable_only=True, route=route
            )
        except AbstractionError as exc:
            self._refuse(str(exc))
            return
        attempt.add_callback(self._on_downstream)

    def _pinned_route(self, dst_host: Host, pinned: bytes) -> Optional["Route"]:
        """Reconstruct the pinned continuation the client handshook.

        Any inconsistency (unknown host, malformed blob, a chain that does
        not end at the destination) degrades gracefully to ``None`` — the
        relay then re-selects autonomously, the pre-pinning behaviour.
        """
        topology = self.relay.topology
        try:
            triples = decode_pinned_hops(pinned)
        except (ValueError, UnicodeDecodeError):
            return None
        if not triples:
            return None
        hops: List[RouteChoice] = []
        src = self.relay.host
        for method, hop_dst_name, params in triples:
            try:
                hop_dst = topology.host_by_name(hop_dst_name)
            except LookupError:
                return None
            hops.append(
                RouteChoice(
                    method=method,
                    network=None,
                    link_class=LinkClass.NONE,
                    reason="pinned by upstream relay handshake",
                    src=src,
                    dst=hop_dst,
                    params=params,
                )
            )
            src = hop_dst
        if hops[-1].dst is not dst_host:
            return None
        return Route(self.relay.host, dst_host, hops)

    def _on_downstream(self, ev) -> None:
        if not ev.ok:
            self._refuse(f"relay: next leg failed: {ev.value!r}")
            return
        self.downstream = ev.value
        self.relay.relayed += 1
        self.upstream.write(_RELAY_OK)
        self._pump(self.upstream, self.downstream, self._to_downstream)  # what came early
        self.upstream.set_data_handler(
            lambda _link: self._pump(self.upstream, self.downstream, self._to_downstream)
        )
        self.downstream.set_data_handler(
            lambda _link: self._pump(self.downstream, self.upstream, self._to_upstream)
        )
        # close() on either leg (local teardown, peer FIN, gateway death)
        # propagates to the other leg and reclaims the session.
        self.upstream.set_close_handler(lambda _link: self.teardown("upstream closed"))
        self.downstream.set_close_handler(lambda _link: self.teardown("downstream closed"))

    def _refuse(self, reason: str) -> None:
        self.relay.refused += 1
        self.relay.last_error = reason
        self.upstream.write(_RELAY_FAIL)
        self.relay._reclaim(self)

    # -- teardown ---------------------------------------------------------------
    def teardown(self, reason: str = "") -> None:
        """Close both legs of the splice and reclaim the session."""
        if self.closed:
            return
        self.closed = True
        from repro.abstraction.vlink import VLinkState

        for leg in (self.upstream, self.downstream):
            if leg is not None and leg.state is not VLinkState.CLOSED:
                leg.close()
        self.relay._reclaim(self, reason)

    # -- splice phase -----------------------------------------------------------
    def _pump(self, src_link: "VLink", dst_link: "VLink", cursor: Serializer) -> None:
        """Store-and-forward what ``src_link`` holds, charging the gateway's
        CPU for it; ``cursor`` keeps the writes towards one leg in order.

        A relay only forwards: the burst goes on as the chunks it arrived in
        (one gather write), never joined here.
        """
        data = src_link.read_available(gather=True)
        if data:
            self.relay.bytes_forwarded += len(data)
            delay = GATEWAY_FORWARD_OVERHEAD + self.relay.host.cpu.copy_time(len(data))
            cursor.after(delay, self._write_out, dst_link, data)

    @staticmethod
    def _write_out(dst_link: "VLink", data: bytes) -> None:
        from repro.abstraction.vlink import VLinkState

        if dst_link.state is VLinkState.ESTABLISHED:
            dst_link.write(data)


class GatewayRelay:
    """Per-node store-and-forward service between VLink rails.

    Booted on every :class:`~repro.core.framework.PadicoNode`; a node whose
    host sits on several networks thereby becomes a usable gateway.  Clients
    connect to :data:`GATEWAY_RELAY_PORT`, send a :func:`pack_relay_hello`
    naming the final destination, and — once the relay's own VLink manager
    has opened the next leg (possibly relaying again, recursively) — receive
    a one-byte acknowledgement after which the stream is spliced end to end.
    """

    def __init__(self, manager: "VLinkManager", port: int = GATEWAY_RELAY_PORT):
        self.manager = manager
        self.host = manager.host
        self.sim = manager.sim
        self.port = port
        self.relayed = 0
        self.refused = 0
        self.reclaimed = 0
        self.bytes_forwarded = 0
        self.last_error = ""
        self.shut_down = False
        self._sessions: List[_RelaySession] = []
        self._listener = manager.listen(port)
        self._listener.set_accept_callback(self._on_upstream)
        self.host.register_service(GATEWAY_RELAY_SERVICE, self, replace=True)

    @property
    def topology(self) -> TopologyKB:
        selector = self.manager.selector
        if selector is None:
            raise AbstractionError(
                f"gateway relay on {self.host.name} has no selector/topology"
            )
        return selector.topology

    def _on_upstream(self, link: "VLink") -> None:
        if self.shut_down:
            link.close()
            return
        self._sessions.append(_RelaySession(self, link))

    def _reclaim(self, session: _RelaySession, reason: str = "") -> None:
        if session in self._sessions:
            self._sessions.remove(session)
            self.reclaimed += 1

    def sessions(self) -> List[_RelaySession]:
        """The splices currently held open by this relay."""
        return list(self._sessions)

    def shutdown(self, reason: str = "gateway shutdown") -> None:
        """Tear down every live splice and stop accepting new ones.

        Both legs of every session are closed and the sessions reclaimed.
        Whether the *endpoints* observe the close depends on why: on a
        graceful shutdown the close notifications propagate; when the host
        was killed (churn) the host is already down and the notifications
        blackhole — crash semantics, endpoints recover via the monitoring /
        adaptive machinery, not via FIN.  The raw listener stays installed
        (a dead host receives nothing anyway), so :meth:`restart` after a
        revival resumes service.
        """
        if self.shut_down:
            return
        self.shut_down = True
        for session in list(self._sessions):
            session.teardown(reason)
        self._sessions.clear()

    def restart(self) -> None:
        """Resume accepting splices after a shutdown (host revived)."""
        self.shut_down = False

    def describe(self) -> Dict[str, object]:
        return {
            "relayed": self.relayed,
            "refused": self.refused,
            "reclaimed": self.reclaimed,
            "bytes_forwarded": self.bytes_forwarded,
            "sessions": len(self._sessions),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GatewayRelay on {self.host.name}:{self.port} "
            f"relayed={self.relayed} bytes={self.bytes_forwarded}>"
        )
