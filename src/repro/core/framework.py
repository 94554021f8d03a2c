"""The framework runtime: hosts, networks, per-node communication stacks.

A :class:`PadicoFramework` owns the simulator, the topology knowledge base
and the selector; a :class:`PadicoNode` is the per-host runtime (the
analogue of one PadicoTM process) holding the NetAccess core, the MadIO and
SysIO subsystems, the Madeleine driver, and the VLink / Circuit managers
with the standard drivers and adapter factories registered.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, List, Optional, Sequence

from repro.simnet.engine import SimulationError, Simulator
from repro.simnet.host import CpuModel, Host, HostGroup
from repro.simnet.network import Network
from repro.simnet.networks import Ethernet100, Myrinet2000
from repro.simnet.tcp import TcpStack
from repro.madeleine import MadeleineDriver
from repro.arbitration import MadIO, NetAccessCore, SysIO
from repro.abstraction import (
    AdaptiveCircuitAdapter,
    AdaptiveListener,
    Circuit,
    CircuitManager,
    GATEWAY_RELAY_SERVICE,
    GatewayRelay,
    LoopbackVLinkDriver,
    MadIOCircuitAdapter,
    MadIOVLinkDriver,
    Preferences,
    Route,
    RoutingEngine,
    Selector,
    StreamMeshCircuitAdapter,
    SysIOVLinkDriver,
    TopologyKB,
    VLinkManager,
)
from repro.abstraction.adaptive import adaptive_connect
from repro.abstraction.common import AbstractionError
from repro.abstraction.topology import LinkClass, WAN_LATENCY_THRESHOLD
from repro.monitoring import FaultInjector, TopologyMonitor
from repro.telemetry import TelemetryHub


class FrameworkError(RuntimeError):
    """Deployment / bootstrap errors."""


#: The Circuit adapter factories of a booted node, one table for every
#: node: each adapter finds the node's subsystem among its host's services
#: (``vlink``, ``madio``), so the rows are the classes themselves.  Every
#: byte-stream method is a VLink leg of the one stream-mesh adapter: over
#: the SysIO driver (``sysio``), the alternate VLink method its route names
#: (``vlink:<method>``), or the per-hop methods the selector's circuit-hop
#: policy pinned on a routed link (``vlink``); ``adaptive`` makes every
#: remote leg a migratable session (``circuit(..., adaptive=True)``).
_CIRCUIT_ADAPTERS = {
    "sysio": StreamMeshCircuitAdapter,
    "vlink": StreamMeshCircuitAdapter,
    "vlink:parallel_streams": StreamMeshCircuitAdapter,
    "vlink:vrp": StreamMeshCircuitAdapter,
    "vlink:adoc": StreamMeshCircuitAdapter,
    "adaptive": AdaptiveCircuitAdapter,
}
#: ... of a node with a SAN: the straight parallel adapter as well.
_SAN_CIRCUIT_ADAPTERS = {**_CIRCUIT_ADAPTERS, "madio": MadIOCircuitAdapter}


class PadicoNode:
    """The per-host runtime: one 'PadicoTM process' on one machine."""

    def __init__(self, framework: "PadicoFramework", host: Host):
        self.framework = framework
        self.host = host
        self.sim = host.sim
        self.netaccess: Optional[NetAccessCore] = None
        self.sysio: Optional[SysIO] = None
        self.madio: Optional[MadIO] = None
        self.madeleine: Optional[MadeleineDriver] = None
        self.tcp: Optional[TcpStack] = None
        self.vlink: Optional[VLinkManager] = None
        self.circuits: Optional[CircuitManager] = None
        self.gateway_relay: Optional[GatewayRelay] = None
        self._booted = False
        self._wan_methods_enabled = False

    # -- bootstrap -------------------------------------------------------------
    def boot(self) -> "PadicoNode":
        """Instantiate the full communication stack on this host."""
        if self._booted:
            return self
        host = self.host
        selector = self.framework.selector
        self.netaccess = NetAccessCore(host)

        # Distributed side: OS TCP stack + SysIO subsystem.
        has_ip = any(n.is_distributed for n in host.networks())
        self.tcp = TcpStack(host, fidelity=self.framework.fidelity)
        if has_ip:
            self.tcp.attach_all()
        self.sysio = SysIO(self.netaccess, self.tcp)

        # Parallel side: Madeleine + MadIO, attached to every SAN with the
        # full set of hosts on that SAN as the hardware-channel group.
        san_networks = [n for n in host.networks() if n.is_parallel]
        if san_networks:
            self.madeleine = MadeleineDriver(host)
            self.madio = MadIO(self.netaccess, self.madeleine)
            for network in san_networks:
                group = self.framework.san_group(network)
                self.madio.attach(network, group)

        # Abstraction layer: VLink manager with its drivers.  Multi-rail
        # hosts get one MadIO driver per SAN: the fastest rail keeps the
        # policy name "madio", the others register as "madio:<network>" and
        # are substituted by VLinkManager.resolve_driver when the primary
        # rail does not reach the destination.
        self.vlink = VLinkManager(host, selector)
        if self.sysio is not None:
            self.vlink.register_driver(SysIOVLinkDriver(self.sysio))
        if self.madio is not None:
            ranked = sorted(san_networks, key=lambda n: (-n.bandwidth, n.latency))
            for index, network in enumerate(ranked):
                driver = MadIOVLinkDriver(self.madio, network)
                if index > 0:
                    driver.name = f"madio:{network.name}"
                self.vlink.register_driver(driver)
        self.vlink.register_driver(LoopbackVLinkDriver(host))

        # Abstraction layer: Circuit manager over the shared adapter table.
        self.circuits = CircuitManager(
            host, selector, _SAN_CIRCUIT_ADAPTERS if self.madio is not None else _CIRCUIT_ADAPTERS
        )

        # Gateway relay: every booted node can store-and-forward VLink
        # traffic between its rails, making multi-homed hosts usable as
        # gateways for hosts without a common network.
        self.gateway_relay = GatewayRelay(self.vlink)

        # Adaptive re-routing: migrations towards a destination may need
        # relay nodes booted (and WAN methods enabled) on the new route.
        self.vlink.gateway_provisioner = self._provision_gateways
        self._booted = True
        return self

    def _provision_gateways(self, dst: Host) -> None:
        self.framework.ensure_gateways(self.host, dst)

    @property
    def booted(self) -> bool:
        return self._booted

    def enable_wan_methods(self, streams: int = 4) -> bool:
        """Register the WAN method drivers (parallel streams, AdOC, VRP at
        zero tolerance) on this node, so relayed hops from here can use
        them.  Idempotent; called automatically for gateway nodes."""
        if self._wan_methods_enabled:
            return True
        if self.sysio is None or not self._booted:
            return False
        from repro.methods import register_wan_method_drivers

        register_wan_method_drivers(self, streams=streams)
        self._wan_methods_enabled = True
        return True

    @property
    def is_wan_gateway(self) -> bool:
        """Multi-homed with at least one WAN-class interface: relayed hops
        through this node cross a WAN and profit from the method drivers."""
        networks = self.host.networks()
        has_wan = any(
            n.is_distributed and n.latency >= WAN_LATENCY_THRESHOLD for n in networks
        )
        return has_wan and len(networks) >= 2

    # -- convenience -----------------------------------------------------------------
    def circuit(self, name: str, group: HostGroup, **kwargs) -> Circuit:
        """Create (or fetch) the local endpoint of a named circuit."""
        self._require_boot()
        # Routed group links relay through gateways; boot them on demand,
        # exactly like the VLink connect path does.
        for member in group:
            if member is not self.host:
                self.framework.ensure_gateways(self.host, member)
        return self.circuits.create(name, group, **kwargs)

    def vlink_listen(self, port: int, adaptive: bool = False):
        self._require_boot()
        if adaptive:
            return AdaptiveListener(self.vlink, port)
        return self.vlink.listen(port)

    def vlink_connect(
        self,
        dst: "PadicoNode | Host",
        port: int,
        method: Optional[str] = None,
        adaptive: bool = False,
    ):
        self._require_boot()
        dst_host = dst.host if isinstance(dst, PadicoNode) else dst
        if method is None:
            # Routed connects need a relay on every intermediate host; the
            # framework picks the gateways and boots them on demand.
            self.framework.ensure_gateways(self.host, dst_host)
        if adaptive:
            if method is not None:
                raise FrameworkError("adaptive connects pick their own method; drop method=")
            return adaptive_connect(self.vlink, dst_host, port)
        return self.vlink.connect(dst_host, port, method=method)

    def _require_boot(self) -> None:
        if not self._booted:
            raise FrameworkError(f"node {self.host.name!r} is not booted; call boot() first")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PadicoNode {self.host.name} booted={self._booted}>"


class PadicoFramework:
    """Owns the simulated deployment: hosts, networks, selector, nodes.

    ``partitions=N`` (N > 1) shards the simulator event loop across N
    deployment partitions (see :mod:`repro.simnet.partition`): hosts boot
    into their partition's queue, monitoring probes and fault schedules run
    in the partition owning the link/host, and cross-partition traffic rides
    boundary mailboxes under the WAN-latency lookahead.  ``lookahead``
    optionally caps the window width below the smallest boundary-link
    latency.

    ``fidelity`` selects the TCP simulation fidelity for every node booted
    by this framework: ``"packet"`` (default) runs the full per-burst
    window model; ``"hybrid"`` plans a loss-free link's rounds ahead
    (:mod:`repro.simnet.fluid`), the packet round being the fallback.
    """

    def __init__(
        self,
        preferences: Optional[Preferences] = None,
        *,
        partitions: Optional[int] = None,
        lookahead: Optional[float] = None,
        fidelity: str = "packet",
    ):
        if fidelity not in ("packet", "hybrid"):
            raise FrameworkError(f"unknown fidelity {fidelity!r}; use 'packet' or 'hybrid'")
        self.fidelity = fidelity
        self.sim = Simulator(partitions=partitions, lookahead=lookahead)
        self.topology = TopologyKB()
        self.preferences = preferences or Preferences()
        self.routing = RoutingEngine(self.topology)
        self.selector = Selector(self.topology, self.preferences, routing=self.routing)
        #: the dynamic-topology monitor; `monitoring.watch(network)` starts
        #: the probe → estimator → knowledge-base feedback loop.
        self.monitoring = TopologyMonitor(self.topology, self.sim)
        self._fault_injectors: Dict[tuple, FaultInjector] = {}
        self._hosts: Dict[str, Host] = {}
        self._nodes: Dict[str, PadicoNode] = {}
        self._networks: Dict[str, Network] = {}
        self._booted = False

    # -- observability -----------------------------------------------------------------
    @property
    def telemetry(self) -> Optional[TelemetryHub]:
        """The flight recorder (:mod:`repro.telemetry`): ``None`` until
        :meth:`enable_telemetry`.  It lives on the simulator — every
        instrumented component gates its emission on ``sim.telemetry`` being
        non-None, so the disabled deployment runs the exact pre-telemetry
        hot path and a component built later cannot be missed."""
        return self.sim.telemetry

    def enable_telemetry(self, *, jsonl_path: Optional[str] = None) -> TelemetryHub:
        """Attach the flight recorder to the deployment.

        Creates a :class:`~repro.telemetry.TelemetryHub` (optionally
        streaming JSONL to ``jsonl_path``) and sets it as ``sim.telemetry``
        — the one hook every emitter, networks included, reads; there is
        nothing else to wire.  Idempotent while enabled."""
        if self.telemetry is not None:
            return self.telemetry
        hub = TelemetryHub(self.sim, jsonl_path=jsonl_path)
        self.sim.telemetry = hub
        return hub

    def disable_telemetry(self) -> None:
        """Detach and close the flight recorder (flushes pending buffers
        and the JSONL stream).  The recorded events stay readable on the
        returned hub of :meth:`enable_telemetry`; the deployment reverts to
        the zero-overhead disabled path."""
        hub = self.telemetry
        if hub is None:
            return
        self.sim.telemetry = None
        hub.close()

    # -- deployment construction ----------------------------------------------------
    def add_network(self, network: Network) -> Network:
        if network.name in self._networks:
            raise FrameworkError(f"network name {network.name!r} already used")
        self._networks[network.name] = network
        self.topology.register_network(network)
        return network

    def network(self, name: str) -> Network:
        try:
            return self._networks[name]
        except KeyError:
            raise FrameworkError(f"unknown network {name!r}") from None

    def networks(self) -> List[Network]:
        return list(self._networks.values())

    def add_host(
        self,
        name: str,
        *,
        cpu: Optional[CpuModel] = None,
        site: str = "default-site",
        partition: Optional[int] = None,
    ) -> Host:
        if name in self._hosts:
            raise FrameworkError(f"host name {name!r} already used")
        host = Host(self.sim, name, cpu=cpu)
        host.site = site
        if partition is not None:
            host.partition = partition
        self._hosts[name] = host
        self.topology.register_host(host)
        return host

    def host(self, name: str) -> Host:
        try:
            return self._hosts[name]
        except KeyError:
            raise FrameworkError(f"unknown host {name!r}") from None

    def hosts(self, names: Optional[Iterable[str]] = None) -> List[Host]:
        if names is None:
            return list(self._hosts.values())
        return [self.host(n) for n in names]

    def attach(self, host_name: str, network_name: str) -> None:
        """Connect a host to a network."""
        self.network(network_name).connect(self.host(host_name))

    def add_cluster(
        self,
        names: Sequence[str],
        *,
        site: str = "default-site",
        myrinet: bool = True,
        ethernet: bool = True,
        myrinet_name: Optional[str] = None,
        ethernet_name: Optional[str] = None,
        cpu: Optional[CpuModel] = None,
    ) -> HostGroup:
        """Convenience: add a PC cluster with a SAN and/or a LAN."""
        hosts = [self.add_host(n, site=site, cpu=cpu) for n in names]
        if myrinet:
            myri = self.add_network(Myrinet2000(self.sim, myrinet_name or f"myri-{site}"))
            for h in hosts:
                myri.connect(h)
        if ethernet:
            eth = self.add_network(Ethernet100(self.sim, ethernet_name or f"eth-{site}"))
            for h in hosts:
                eth.connect(h)
        return HostGroup(f"cluster-{site}", hosts)

    def group(self, names: Sequence[str], group_name: str = "group") -> HostGroup:
        """Build a host group (the unit Circuit works on) from host names."""
        return HostGroup(group_name, [self.host(n) for n in names])

    def san_group(self, network: Network) -> HostGroup:
        """The hardware-channel group for a SAN: every host attached to it."""
        return HostGroup(f"san-{network.name}", network.hosts())

    # -- boot ------------------------------------------------------------------------------
    def boot(self, names: Optional[Iterable[str]] = None) -> List[PadicoNode]:
        """Boot the per-host runtimes (all hosts by default).

        Each node boots inside its host's event-loop partition, so anything
        the stack schedules during bring-up lands in the partition queue
        that will execute the host (a no-op on the single-loop kernel).
        A node booted *on demand from model code in another partition* (a
        relay gateway provisioned by a routed connect or an adaptive
        migration) cannot enter the owner's mid-window queue; it boots in
        the caller's context instead — bring-up only wires objects, and the
        caller is the one causally waiting on the relay, and no frame that
        depends on the gateway can reach it before the next window edge."""
        targets = list(names) if names is not None else list(self._hosts)
        nodes = []
        nparts = self.sim.partition_count
        for name in targets:
            node = self._nodes.get(name)
            if node is None:
                node = PadicoNode(self, self.host(name))
                self._nodes[name] = node
            partition = node.host.partition
            if nparts > 1 and not 0 <= partition < nparts:
                # surface the misconfiguration here, not as a confusing
                # mid-run scheduling error on the first frame to this host
                raise FrameworkError(
                    f"host {name!r} is assigned to partition {partition}, but "
                    f"the kernel has partitions 0..{nparts - 1}"
                )
            try:
                ctx = self.sim.in_partition(partition)
            except SimulationError:
                # booted on demand from another partition's model code
                ctx = contextlib.nullcontext(self.sim)
            with ctx:
                node.boot()
            nodes.append(node)
        self._booted = True
        return nodes

    # -- routing ---------------------------------------------------------------------------
    def route_between(self, a: "Host | str", b: "Host | str") -> Route:
        """The VLink route the selector would use between two hosts."""
        host_a = self.host(a) if isinstance(a, str) else a
        host_b = self.host(b) if isinstance(b, str) else b
        available = self.selector.vlink_methods_on(host_a)
        return self.selector.choose_vlink_route(host_a, host_b, available)

    def ensure_gateways(self, src: Host, dst: Host) -> List[PadicoNode]:
        """Boot the relay nodes on the src->dst route (no-op for unreachable
        pairs — the connect path reports those itself), and enable the WAN
        method drivers on every gateway of the route so the relayed hops can
        use parallel streams / zero-tolerance VRP instead of a plain socket
        per hop.

        A pair the knowledge base connects directly has no gateways: the
        selector (``choose_vlink_route``, ``pin_circuit_route``) never
        relays it, whatever a path through a third host would weigh, so no
        route is searched for it."""
        if self.topology.link_profile(src, dst).link_class is not LinkClass.NONE:
            return []
        try:
            gateways = self.routing.gateways_between(src, dst)
        except AbstractionError:
            return []
        booted = []
        for gateway in gateways:
            if gateway.name not in self._hosts:
                continue
            if not gateway.has_service(GATEWAY_RELAY_SERVICE):
                booted.extend(self.boot([gateway.name]))
            node = self._nodes.get(gateway.name)
            if node is not None and node.is_wan_gateway:
                node.enable_wan_methods()
        return booted

    def fault_injector(self, *, seed: int = 0xC0FFEE, announce: bool = True) -> FaultInjector:
        """The seeded churn/fault injector bound to this deployment.

        Cached per ``(seed, announce)``: repeated accessor calls share one
        injector, so state such as saved pre-degradation link parameters
        survives between a ``degrade_link_at`` and a later
        ``recover_link_at``.
        """
        injector = self._fault_injectors.get((seed, announce))
        if injector is None:
            injector = FaultInjector(self.sim, self.topology, seed=seed, announce=announce)
            self._fault_injectors[(seed, announce)] = injector
        return injector

    def node(self, name: str) -> PadicoNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise FrameworkError(
                f"host {name!r} has not been booted; call framework.boot() first"
            ) from None

    def nodes(self) -> List[PadicoNode]:
        return list(self._nodes.values())

    # -- running ----------------------------------------------------------------------------
    def run(self, until=None, max_time: Optional[float] = None):
        """Run the simulation (see :meth:`repro.simnet.engine.Simulator.run`)."""
        return self.sim.run(until=until, max_time=max_time)

    def process(self, gen, name: str = ""):
        """Register an application process (a generator yielding events)."""
        return self.sim.process(gen, name=name)

    def status_report(self) -> Dict[str, object]:
        """A serialisable snapshot of the deployment (used by examples)."""
        return {
            "hosts": sorted(self._hosts),
            "networks": self.topology.describe()["networks"],
            "booted_nodes": sorted(self._nodes),
            "adjacency": {f"{a}--{b}": c for (a, b), c in self.topology.adjacency().items()},
            "routing": self.routing.describe(),
            "monitoring": self.monitoring.describe(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PadicoFramework hosts={len(self._hosts)} networks={len(self._networks)}>"
