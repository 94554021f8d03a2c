"""The adapter/method selector.

The abstraction layer "is responsible for automatically and dynamically
choosing the best available interface from the arbitration layer according
to the available hardware; then it should map it onto the right abstract
interface through the right adapter" (§3.3).  Besides straight and
cross-paradigm adapters, alternate *methods* (parallel streams on WANs,
online compression on slow links, a loss-tolerant protocol on lossy links,
ciphering between administrative sites) can be preferred per link class.

The default policy implemented here:

========== =========================== ===========================
link class VLink (distributed) adapter Circuit (parallel) adapter
========== =========================== ===========================
LOCAL      loopback                    loopback
SAN        madio  (cross-paradigm)     madio  (straight)
LAN        sysio  (straight)           sysio  (cross-paradigm)
WAN        parallel_streams*           vlink:parallel_streams*
LOSSY_WAN  vrp* / sysio                vlink:vrp* / sysio
========== =========================== ===========================

Entries marked ``*`` require the corresponding method driver to be
registered on the host; otherwise the selector falls back to plain sysio.
User preferences override the defaults per link class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.simnet.host import Host
from repro.simnet.network import Network
from repro.abstraction.common import AbstractionError
from repro.abstraction.topology import LinkClass, LinkProfile, TopologyKB
from repro.abstraction.routing import Route, RouteChoice, RoutingEngine

__all__ = ["Selector", "Preferences", "Route", "RouteChoice"]

#: bounds for the monitoring-driven parallel-streams fan-out.
MIN_STREAMS, MAX_STREAMS = 2, 8
#: bandwidth-delay product above which a WAN profits from the full base
#: fan-out (below it, connection setup dominates and two members suffice).
STREAMS_BDP_THRESHOLD = 32 * 1024
#: cap for the derived VRP tolerance (never surrender more than this).
MAX_VRP_TOLERANCE = 0.20


@dataclass
class Preferences:
    """User-defined preferences, overriding the default policy per link class.

    ``vlink_methods`` / ``circuit_methods`` map a :class:`LinkClass` to an
    ordered list of method names; the first method that is actually available
    on the host wins.
    """

    vlink_methods: Dict[LinkClass, List[str]] = field(default_factory=dict)
    circuit_methods: Dict[LinkClass, List[str]] = field(default_factory=dict)
    #: per-hop method preference for *routed* Circuit legs (the hops ride
    #: VLink rails, so these are VLink driver names, not adapter names).
    circuit_hop_methods: Dict[LinkClass, List[str]] = field(default_factory=dict)
    #: force ciphering on links that cross administrative sites.
    require_security_cross_site: bool = False

    def prefer_vlink(self, link_class: LinkClass, *methods: str) -> "Preferences":
        self.vlink_methods[link_class] = list(methods)
        return self

    def prefer_circuit(self, link_class: LinkClass, *methods: str) -> "Preferences":
        self.circuit_methods[link_class] = list(methods)
        return self

    def prefer_circuit_hop(self, link_class: LinkClass, *methods: str) -> "Preferences":
        self.circuit_hop_methods[link_class] = list(methods)
        return self


_DEFAULT_VLINK = {
    LinkClass.LOCAL: ["loopback", "sysio"],
    LinkClass.SAN: ["madio"],
    LinkClass.LAN: ["sysio"],
    LinkClass.WAN: ["parallel_streams", "sysio"],
    LinkClass.LOSSY_WAN: ["vrp", "adoc", "sysio"],
}

_DEFAULT_CIRCUIT = {
    LinkClass.LOCAL: ["loopback", "sysio"],
    LinkClass.SAN: ["madio"],
    LinkClass.LAN: ["sysio"],
    LinkClass.WAN: ["vlink:parallel_streams", "sysio"],
    LinkClass.LOSSY_WAN: ["vlink:vrp", "sysio"],
    # pairs with no common network but a gateway route: ride routed VLinks.
    LinkClass.ROUTED: ["vlink"],
}

#: per-hop method preference for routed Circuit legs.  Every hop carries a
#: framed stream-mesh byte stream (somebody's message boundaries live in
#: it), so hops are restricted to drivers that never surrender bytes and a
#: VRP hop is always pinned at zero tolerance.
_DEFAULT_CIRCUIT_HOP = {
    LinkClass.LOCAL: ["loopback", "sysio"],
    LinkClass.SAN: ["madio", "sysio"],
    LinkClass.LAN: ["sysio"],
    LinkClass.WAN: ["parallel_streams", "adoc", "sysio"],
    LinkClass.LOSSY_WAN: ["vrp", "adoc", "sysio"],
}

#: methods that translate between paradigms when used for each interface.
_CROSS_PARADIGM_VLINK = {"madio", "loopback"}
_CROSS_PARADIGM_CIRCUIT = {"sysio", "vlink", "vlink:parallel_streams", "vlink:vrp", "vlink:adoc"}


class Selector:
    """Chooses adapters/methods per link from the topology KB and preferences.

    Directly connected pairs keep the seed policy table above; pairs with no
    common network are resolved through the :class:`RoutingEngine` into
    multi-hop :class:`Route` objects relayed by gateways.
    """

    def __init__(
        self,
        topology: TopologyKB,
        preferences: Optional[Preferences] = None,
        routing: Optional[RoutingEngine] = None,
    ):
        self.topology = topology
        self.preferences = preferences or Preferences()
        self.routing = routing or RoutingEngine(topology)

    # -- generic machinery -------------------------------------------------------
    def _candidates(
        self,
        link_class: LinkClass,
        table: Dict[LinkClass, List[str]],
        overrides: Dict[LinkClass, List[str]],
    ) -> List[str]:
        if link_class in overrides:
            return list(overrides[link_class]) + list(table.get(link_class, []))
        return list(table.get(link_class, []))

    def _pick(
        self,
        src: Host,
        dst: Host,
        available: List[str],
        table: Dict[LinkClass, List[str]],
        overrides: Dict[LinkClass, List[str]],
        cross_set,
        interface: str,
        reliable: bool = False,
    ) -> RouteChoice:
        profile: LinkProfile = self.topology.link_profile(src, dst)
        if profile.link_class is LinkClass.NONE:
            raise AbstractionError(
                f"no common network between {src.name} and {dst.name}: cannot route"
            )
        candidates = self._candidates(profile.link_class, table, overrides)
        for method in candidates:
            if method in available:
                network = self._network_for(method, profile)
                return RouteChoice(
                    method=method,
                    network=network,
                    link_class=profile.link_class,
                    cross_paradigm=method in cross_set,
                    reason=(
                        f"{interface} on {profile.link_class.value} link "
                        f"{src.name}->{dst.name}: picked {method!r} from {candidates}"
                    ),
                    src=src,
                    dst=dst,
                    params=self.derive_method_params(method, network, reliable=reliable),
                )
        raise AbstractionError(
            f"no available {interface} method for {profile.link_class.value} link "
            f"{src.name}->{dst.name}; candidates={candidates}, available={sorted(available)}"
        )

    def derive_method_params(
        self, method: str, network: Optional[Network], reliable: bool = False
    ) -> Dict[str, float]:
        """Monitoring-driven method *parameters* for a chosen hop.

        The selector used to feed measurements only into the method
        *choice*; the parameters of the method stayed at their registration
        defaults.  This derives them from the knowledge base's effective
        (measured-override-aware) metrics of the hop's network:

        * ``parallel_streams``: the member-socket fan-out grows with the
          measured loss (each member shields the others from a loss event)
          on top of a base set by the bandwidth-delay product —
          ``base + round(loss * 100)`` clamped to [2, 8], where base is 4
          for long fat pipes and 2 below :data:`STREAMS_BDP_THRESHOLD`.
        * ``vrp``: the tolerated loss follows the measured loss
          (``1.5 x loss`` capped at :data:`MAX_VRP_TOLERANCE`) — give up
          roughly what the wire is dropping anyway, keep the bandwidth.
          On ``reliable`` legs (gateway relays, adaptive rails: somebody
          else's framed stream) the tolerance is pinned at zero instead.
        """
        if network is None:
            return {}
        topology = self.topology
        base_method = method.rsplit(":", 1)[-1]
        if base_method == "parallel_streams":
            loss = topology.effective_loss_rate(network)
            bdp = topology.effective_latency(network) * topology.effective_bandwidth(network)
            base = 4 if bdp >= STREAMS_BDP_THRESHOLD else 2
            streams = base + int(round(loss * 100))
            return {"streams": max(MIN_STREAMS, min(MAX_STREAMS, streams))}
        if base_method == "vrp":
            if reliable:
                return {"tolerance": 0.0}
            loss = topology.effective_loss_rate(network)
            if loss > 0.0:
                return {"tolerance": round(min(MAX_VRP_TOLERANCE, 1.5 * loss), 4)}
        return {}

    @staticmethod
    def _network_for(method: str, profile: LinkProfile) -> Optional[Network]:
        if method in ("loopback",):
            return None
        if method == "madio":
            nets = profile.parallel_networks()
            return nets[0] if nets else profile.best_network
        # every other method runs over an IP network
        nets = profile.distributed_networks()
        if nets:
            # fastest distributed network
            return sorted(nets, key=lambda n: (-n.bandwidth, n.latency))[0]
        return profile.best_network

    def mutually_available(
        self, available: List[str], dst: Host, reliable_only: bool = False
    ) -> List[str]:
        """Restrict ``available`` to methods the destination also serves.

        A driver only registered on one side cannot complete a connection
        (the method's listener is not there); when the intersection is empty
        the original list is kept so error messages stay meaningful.  With
        ``reliable_only`` the *remote* driver must also be reliable — a VRP
        receiver with non-zero tolerance zero-fills holes no matter how
        strict the sender is.  The connect path and relay hops use this;
        ``choose_vlink`` itself keeps treating the caller's list as
        authoritative.
        """
        remote = set(self.vlink_methods_on(dst, reliable_only=reliable_only))
        usable = [m for m in available if m in remote]
        return usable or list(available)

    # -- public API ---------------------------------------------------------------
    def choose_vlink(self, src: Host, dst: Host, available: List[str]) -> RouteChoice:
        """Pick the VLink driver for a (src, dst) connection."""
        return self._pick(
            src,
            dst,
            available,
            _DEFAULT_VLINK,
            self.preferences.vlink_methods,
            _CROSS_PARADIGM_VLINK,
            "VLink",
        )

    def choose_circuit(self, src: Host, dst: Host, available: List[str]) -> RouteChoice:
        """Pick the Circuit adapter for the (src, dst) link of a group."""
        return self._pick(
            src,
            dst,
            available,
            _DEFAULT_CIRCUIT,
            self.preferences.circuit_methods,
            _CROSS_PARADIGM_CIRCUIT,
            "Circuit",
        )

    # -- route-level API -----------------------------------------------------------
    def _pin_route(
        self,
        src: Host,
        dst: Host,
        available: Optional[List[str]],
        table: Dict[LinkClass, List[str]],
        overrides: Dict[LinkClass, List[str]],
        interface: str,
        reliable: bool,
    ) -> Route:
        """One method per hop of the ``src -> dst`` path, each served on both
        of its ends: the first hop picks from ``available`` (the drivers on
        ``src`` when None), a later one from its gateway's drivers.  A
        directly connected pair is never relayed (ensure_gateways
        provisions no gateway for one)."""
        if self.topology.link_profile(src, dst).link_class is not LinkClass.NONE:
            legs = [(src, dst)]
        else:
            legs = [(hop.src, hop.dst) for hop in self.routing.host_path(src, dst)]
        choices: List[RouteChoice] = []
        for index, (hop_src, hop_dst) in enumerate(legs):
            hop_available = (
                available
                if index == 0 and available is not None
                else self.vlink_methods_on(hop_src, reliable_only=reliable)
            )
            choices.append(
                self._pick(
                    hop_src,
                    hop_dst,
                    self.mutually_available(hop_available, hop_dst, reliable),
                    table,
                    overrides,
                    _CROSS_PARADIGM_VLINK,
                    interface,
                    reliable=reliable,
                )
            )
        return Route(src, dst, choices)

    def choose_vlink_route(
        self, src: Host, dst: Host, available: List[str], reliable_only: bool = False
    ) -> Route:
        """The full VLink path decision: one hop for directly connected pairs
        (identical to :meth:`choose_vlink`), a multi-hop gateway route when no
        common network exists, an :class:`AbstractionError` when there is no
        path at all.  ``reliable_only`` restricts every hop to drivers that
        never surrender bytes, on both ends."""
        return self._pin_route(
            src, dst, available, _DEFAULT_VLINK, self.preferences.vlink_methods, "VLink",
            reliable_only,
        )

    def pin_circuit_route(
        self, src: Host, dst: Host, available: Optional[List[str]] = None
    ) -> Route:
        """Pin a concrete method per hop of the ``src -> dst`` circuit leg.

        Routed Circuit legs used to hand the whole path to a bare VLink and
        let every relay re-select autonomously; this computes the decisions
        up front so that each hop gets the best *circuit-hop* method the
        drivers on both of its ends serve (parallel streams / AdOC /
        zero-tolerance VRP on WAN hops, MadIO or plain sockets on SAN/LAN
        hops), with monitoring-driven parameters per hop.  Every hop of the
        chain carries a framed stream, so selection is restricted to
        reliable drivers on both hop ends.  Also used by adaptive circuit
        legs as the rail route provider (single-hop routes for directly
        connected pairs).  Raises :class:`AbstractionError` when the pair is
        unreachable or ``src is dst``.
        """
        if src is dst:
            raise AbstractionError(
                f"no circuit hops to pin between {src.name} and {dst.name}"
            )
        return self._pin_route(
            src, dst, available, _DEFAULT_CIRCUIT_HOP, self.preferences.circuit_hop_methods,
            "Circuit-hop", True,
        )

    def choose_circuit_route(self, src: Host, dst: Host, available: List[str]) -> RouteChoice:
        """Like :meth:`choose_circuit`, but pairs with no common network fall
        back to the routed VLink adapter when a gateway path exists — with
        the per-hop methods pinned through :meth:`pin_circuit_route` and
        carried on the returned choice's ``via`` route."""
        profile = self.topology.link_profile(src, dst)
        if profile.link_class is not LinkClass.NONE:
            return self.choose_circuit(src, dst, available)
        pinned = self.pin_circuit_route(src, dst)  # raises when unreachable
        candidates = self._candidates(
            LinkClass.ROUTED, _DEFAULT_CIRCUIT, self.preferences.circuit_methods
        )
        for method in candidates:
            if method in available:
                return RouteChoice(
                    method=method,
                    network=None,
                    link_class=LinkClass.ROUTED,
                    cross_paradigm=method in _CROSS_PARADIGM_CIRCUIT,
                    reason=(
                        f"Circuit on routed link {src.name}->{dst.name}: "
                        f"picked {method!r} from {candidates}, "
                        f"pinned {pinned.describe()}"
                    ),
                    src=src,
                    dst=dst,
                    via=pinned,
                )
        raise AbstractionError(
            f"no available Circuit method for routed link {src.name}->{dst.name}; "
            f"candidates={candidates}, available={sorted(available)}"
        )

    def vlink_methods_on(self, host: Host, reliable_only: bool = False) -> List[str]:
        """Driver names on an intermediate host (the gateway re-picks at
        forward time anyway; unbooted gateways assume the stock drivers,
        which are all reliable)."""
        manager = host.get_service("vlink")
        if manager is not None:
            if reliable_only:
                return manager.reliable_driver_names()
            return manager.driver_names()
        return ["loopback", "madio", "sysio"]

    def needs_security(self, src: Host, dst: Host) -> bool:
        """True when the preferences require ciphering for this link
        ("if the network is secure, it is useless to cipher data" — §2.1)."""
        if not self.preferences.require_security_cross_site:
            return False
        return src.site != dst.site
