"""The topology knowledge base used by the adapter selector.

"VLink and Circuit automatically choose which protocol to use according to a
knowledge base of the network topology managed by PadicoTM and user-defined
preferences." (§4.2)

The knowledge base records which hosts sit on which networks and classifies
every host pair's best link into a :class:`LinkClass` (same node, SAN, LAN,
WAN, lossy WAN).  The :class:`~repro.abstraction.selector.Selector` turns a
link class plus user preferences into a concrete adapter / method choice.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.simnet.cost import MILLISECOND
from repro.simnet.host import Host
from repro.simnet.network import Network


class LinkClass(enum.Enum):
    """Coarse classification of the best link between two hosts."""

    LOCAL = "local"          # same host (loopback)
    SAN = "san"              # system-area network (Myrinet, SCI, ...)
    LAN = "lan"              # local IP network
    WAN = "wan"              # long-distance IP network, low loss
    LOSSY_WAN = "lossy_wan"  # long-distance IP network with significant loss
    ROUTED = "routed"        # no common network, but a multi-hop gateway route
    NONE = "none"            # no common network


#: latency above which an IP network is considered a WAN rather than a LAN.
WAN_LATENCY_THRESHOLD = 1.0 * MILLISECOND
#: loss rate above which a WAN is considered lossy enough to justify VRP.
LOSSY_THRESHOLD = 0.01


@dataclass
class LinkProfile:
    """Everything the selector knows about the path between two hosts."""

    src: Host
    dst: Host
    link_class: LinkClass
    networks: List[Network] = field(default_factory=list)
    best_network: Optional[Network] = None
    cross_site: bool = False
    #: True when the classification used *measured* link metrics pushed by
    #: the monitoring subsystem rather than the nominal network parameters.
    measured: bool = False

    @property
    def has_parallel_network(self) -> bool:
        return any(n.is_parallel for n in self.networks)

    @property
    def has_distributed_network(self) -> bool:
        return any(n.is_distributed for n in self.networks)

    def parallel_networks(self) -> List[Network]:
        return [n for n in self.networks if n.is_parallel]

    def distributed_networks(self) -> List[Network]:
        return [n for n in self.networks if n.is_distributed]


@dataclass
class TopologyChange:
    """One mutation of the knowledge base, fanned out to subscribers.

    ``kind`` is one of ``"registration"``, ``"measurement"``,
    ``"link-params"``, ``"link-state"``, ``"host-state"``,
    ``"host-removed"`` or ``"network-removed"``.
    """

    kind: str
    generation: int
    network: Optional[Network] = None
    host: Optional[Host] = None
    detail: str = ""


class TopologyKB:
    """Registry of hosts and networks plus link classification.

    Queries are memoized in a *generation-stamped* cache: every registration
    (and every NIC attachment anywhere in the simulation) bumps the
    :attr:`generation`, and cached :class:`LinkProfile` objects from an older
    generation are recomputed on the next lookup.  The
    :class:`~repro.abstraction.routing.RoutingEngine` stamps its own caches
    with the same counter.  Nothing here is indexed by pair or by network
    membership: the hosts' and networks' own NIC tables are the adjacency,
    and the KB adds which of them are registered and believed up.

    The KB is *mutable at runtime*: the monitoring subsystem pushes measured
    link metrics (:meth:`apply_measurement`) and liveness verdicts
    (:meth:`mark_link_down`, :meth:`mark_host_down`), each of which bumps
    the generation and notifies :meth:`subscribe`-rs — this is what lets
    open VLinks re-run selection and migrate while the deployment changes
    under them.  The KB view is deliberately distinct from the physical
    ``Network.up`` / ``Host.up`` flags: a link the injector has killed but
    nobody has *detected* yet is still presumed up, exactly like a real
    deployment between fault and failure detection.
    """

    def __init__(self) -> None:
        #: network -> registration stamp, in registration order: the
        #: membership test and the sort key of :meth:`networks_between`
        self._networks: Dict[Network, int] = {}
        self._hosts: List[Host] = []
        self._host_ids: Set[int] = set()
        self._hosts_by_name: Dict[str, Host] = {}
        self._generation = 0
        self._sim = None
        self._profile_cache: Dict[Tuple[int, int], Tuple[int, LinkProfile]] = {}
        self._subscribers: List[Callable[[TopologyChange], None]] = []
        self._measured: Dict[Network, Dict[str, float]] = {}
        self._down_networks: Set[Network] = set()
        self._down_hosts: Set[Host] = set()
        self._last_class: Dict[Network, LinkClass] = {}

    # -- generation stamping ---------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotonic topology version; caches stamped with an older value are
        stale.  Combines local registrations with the simulator-wide NIC
        attachment epoch so late ``network.connect(host)`` calls are seen."""
        epoch = getattr(self._sim, "topology_epoch", 0) if self._sim is not None else 0
        return self._generation + epoch

    def invalidate(self) -> None:
        """Explicitly flush every generation-stamped cache."""
        self._generation += 1

    # -- notification fan-out ---------------------------------------------------
    def subscribe(self, fn: Callable[[TopologyChange], None]) -> Callable:
        """Register ``fn(change)`` to be called on every KB mutation."""
        if fn not in self._subscribers:
            self._subscribers.append(fn)
        return fn

    def unsubscribe(self, fn: Callable) -> None:
        if fn in self._subscribers:
            self._subscribers.remove(fn)

    def _notify(
        self,
        kind: str,
        *,
        network: Optional[Network] = None,
        host: Optional[Host] = None,
        detail: str = "",
    ) -> None:
        if not self._subscribers:
            return
        change = TopologyChange(
            kind=kind, generation=self.generation, network=network, host=host, detail=detail
        )
        for fn in list(self._subscribers):
            fn(change)

    # -- runtime mutation -------------------------------------------------------
    def apply_measurement(
        self,
        network: Network,
        *,
        latency: Optional[float] = None,
        bandwidth: Optional[float] = None,
        loss_rate: Optional[float] = None,
        detail: str = "",
    ) -> None:
        """Override the KB's view of a network with *measured* metrics.

        Pushed by the monitoring feedback loop; the nominal network object is
        untouched — only what the selector / routing engine believe changes.
        """
        record = self._measured.setdefault(network, {})
        if latency is not None:
            record["latency"] = latency
        if bandwidth is not None:
            record["bandwidth"] = bandwidth
        if loss_rate is not None:
            record["loss_rate"] = loss_rate
        self._generation += 1
        self._notify("measurement", network=network, detail=detail)

    def clear_measurement(self, network: Network, detail: str = "") -> None:
        if self._measured.pop(network, None) is not None:
            self._generation += 1
            self._notify("measurement", network=network, detail=detail or "cleared")

    def touch_network(self, network: Network, detail: str = "") -> None:
        """Declare that a network's parameters changed in place (oracle mode
        of the churn injector): flush caches and notify subscribers."""
        self._generation += 1
        self._notify("link-params", network=network, detail=detail)

    def mark_link_down(self, network: Network, detail: str = "") -> None:
        """Record the verdict that a link is dead; it stops being offered by
        :meth:`networks_between` and the routing graph until marked up."""
        if network in self._down_networks:
            return
        self._down_networks.add(network)
        self._generation += 1
        self._notify("link-state", network=network, detail=detail or "down")

    def mark_link_up(self, network: Network, detail: str = "") -> None:
        if network not in self._down_networks:
            return
        self._down_networks.discard(network)
        self._generation += 1
        self._notify("link-state", network=network, detail=detail or "up")

    def is_link_up(self, network: Network) -> bool:
        """The KB's *belief* about the link (not the physical wire state)."""
        return network not in self._down_networks

    def mark_host_down(self, host: Host, detail: str = "") -> None:
        if host in self._down_hosts:
            return
        self._down_hosts.add(host)
        self._generation += 1
        self._notify("host-state", host=host, detail=detail or "down")

    def mark_host_up(self, host: Host, detail: str = "") -> None:
        if host not in self._down_hosts:
            return
        self._down_hosts.discard(host)
        self._generation += 1
        self._notify("host-state", host=host, detail=detail or "up")

    def is_host_up(self, host: Host) -> bool:
        return host not in self._down_hosts

    def remove_host(self, host: Host, detail: str = "") -> None:
        """Unregister a host entirely (permanent decommission).

        ``host_by_name`` stays consistent: the name maps to another
        registered host of the same name when one exists, and raises
        otherwise.
        """
        if id(host) not in self._host_ids:
            return
        self._hosts.remove(host)
        self._host_ids.discard(id(host))
        if self._hosts_by_name.get(host.name) is host:
            del self._hosts_by_name[host.name]
            for other in self._hosts:
                if other.name == host.name:
                    self._hosts_by_name[host.name] = other
                    break
        # a liveness verdict on the host (if any) is deliberately kept: a
        # removed host must not come back "up" through a stale reference.
        self._generation += 1
        self._notify("host-removed", host=host, detail=detail)

    def remove_network(self, network: Network, detail: str = "") -> None:
        """Unregister a network entirely (permanent decommission)."""
        if network not in self._networks:
            return
        del self._networks[network]
        self._measured.pop(network, None)
        self._down_networks.discard(network)
        self._generation += 1
        self._notify("network-removed", network=network, detail=detail)

    # -- effective (measured-aware) metrics -------------------------------------
    def effective_latency(self, network: Network) -> float:
        record = self._measured.get(network)
        if record and "latency" in record:
            return record["latency"]
        return network.latency

    def effective_bandwidth(self, network: Network) -> float:
        record = self._measured.get(network)
        if record and "bandwidth" in record:
            return record["bandwidth"]
        return network.bandwidth

    def effective_loss_rate(self, network: Network) -> float:
        record = self._measured.get(network)
        if record and "loss_rate" in record:
            return record["loss_rate"]
        return network.loss_rate

    # -- registration ---------------------------------------------------------
    def register_network(self, network: Network) -> Network:
        if network not in self._networks:
            self._sim = self._sim or network.sim
            self._generation += 1
            # the local generation only grows: a stamp orders registrations
            # across removals too
            self._networks[network] = self._generation
            self._notify("registration", network=network)
        return network

    def register_host(self, host: Host) -> Host:
        if id(host) not in self._host_ids:
            self._hosts.append(host)
            self._host_ids.add(id(host))
            self._hosts_by_name.setdefault(host.name, host)
            self._sim = self._sim or host.sim
            self._generation += 1
            self._notify("registration", host=host)
        return host

    def is_host_registered(self, host: Host) -> bool:
        return id(host) in self._host_ids

    def networks(self) -> List[Network]:
        return list(self._networks)

    def hosts(self) -> List[Host]:
        return list(self._hosts)

    def host_by_name(self, name: str) -> Host:
        try:
            return self._hosts_by_name[name]
        except KeyError:
            raise LookupError(f"unknown host {name!r}") from None

    # -- queries -------------------------------------------------------------------
    def networks_between(self, a: Host, b: Host) -> List[Network]:
        """All registered *live* networks that connect ``a`` and ``b``, in
        registration order (``a is b``: the host's own).

        Read off the two hosts' NIC tables, so the cost follows the
        interfaces of a host, not the networks of the grid.
        """
        stamps, down, theirs = self._networks, self._down_networks, b.nics
        found = [n for n in a.nics if n in theirs and n in stamps and n not in down]
        if len(found) > 1:
            found.sort(key=stamps.__getitem__)
        return found

    def classify_network(self, network: Network) -> LinkClass:
        """Class of a single network considered in isolation.

        Uses the *effective* (measured-override-aware) metrics, so a WAN
        whose measured loss crossed :data:`LOSSY_THRESHOLD` reclassifies to
        ``LOSSY_WAN`` and future selections pick VRP.  The lossy verdict is
        hysteretic: once lossy, the link only flips back when its loss drops
        well below the threshold, so measurement noise around the threshold
        cannot flap the adapter choice push by push.
        """
        if network.is_parallel:
            return LinkClass.SAN
        if self.effective_latency(network) >= WAN_LATENCY_THRESHOLD:
            threshold = LOSSY_THRESHOLD
            if self._last_class.get(network) is LinkClass.LOSSY_WAN:
                threshold = LOSSY_THRESHOLD / 4.0
            if self.effective_loss_rate(network) >= threshold:
                result = LinkClass.LOSSY_WAN
            else:
                result = LinkClass.WAN
        else:
            result = LinkClass.LAN
        self._last_class[network] = result
        return result

    def best_network(self, networks: List[Network]) -> Optional[Network]:
        """Rank common networks: parallel first, then by bandwidth, then latency."""
        if not networks:
            return None
        return sorted(
            networks,
            key=lambda n: (
                not n.is_parallel,
                -self.effective_bandwidth(n),
                self.effective_latency(n),
            ),
        )[0]

    def link_profile(self, a: Host, b: Host) -> LinkProfile:
        """Full profile of the (a, b) path used by the selector.

        Memoized per host pair and generation; a miss costs the two hosts'
        NIC tables (:meth:`networks_between`), not a walk over the grid.
        """
        key = (id(a), id(b))
        generation = self.generation
        cached = self._profile_cache.get(key)
        if cached is not None and cached[0] == generation:
            return cached[1]
        profile = self._compute_link_profile(a, b)
        self._profile_cache[key] = (generation, profile)
        return profile

    def _compute_link_profile(self, a: Host, b: Host) -> LinkProfile:
        cross_site = a.site != b.site
        if not (
            self.is_host_registered(a)
            and self.is_host_registered(b)
            and self.is_host_up(a)
            and self.is_host_up(b)
        ):
            return LinkProfile(a, b, LinkClass.NONE, [], None, cross_site)
        networks = self.networks_between(a, b)
        if a is b:
            return LinkProfile(
                a, b, LinkClass.LOCAL, networks, self.best_network(networks), cross_site
            )
        if not networks:
            return LinkProfile(a, b, LinkClass.NONE, [], None, cross_site)
        best = self.best_network(networks)
        measured = any(n in self._measured for n in networks)
        return LinkProfile(a, b, self.classify_network(best), networks, best, cross_site, measured)

    def link_class(self, a: Host, b: Host) -> LinkClass:
        return self.link_profile(a, b).link_class

    # -- descriptive -----------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """A serialisable snapshot (used by the framework's status report)."""
        return {
            "hosts": [h.name for h in self._hosts],
            "networks": [n.describe() for n in self._networks],
            "down_links": sorted(n.name for n in self._down_networks),
            "down_hosts": sorted(h.name for h in self._down_hosts),
            "measured": {n.name: dict(m) for n, m in self._measured.items()},
        }

    def adjacency(self) -> Dict[Tuple[str, str], str]:
        """Link class for every registered host pair (debugging / tests)."""
        result: Dict[Tuple[str, str], str] = {}
        for i, a in enumerate(self._hosts):
            for b in self._hosts[i + 1 :]:
                result[(a.name, b.name)] = self.link_class(a, b).value
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TopologyKB hosts={len(self._hosts)} networks={len(self._networks)}>"
