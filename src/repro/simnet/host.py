"""Simulated hosts (grid nodes) and their CPU cost model.

A :class:`Host` stands for one machine of the deployment — in the paper's
platform a dual Pentium III 1 GHz node with 512 MB RAM.  The host carries

* a :class:`CpuModel` describing the software-side costs, in seconds, that
  the layers add to a message's (memory-copy bandwidth, system-call
  overhead, interrupt/callback dispatch overhead),
* the set of :class:`~repro.simnet.network.Nic` attached to it, keyed by
  network, and
* a per-host *service registry* used by the upper layers (NetAccess core,
  TCP stack, Madeleine driver, middleware runtimes) to find each other —
  the simulated equivalent of process-wide singletons inside one PadicoTM
  process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, TYPE_CHECKING

from repro.simnet.cost import MB, MICROSECOND, check_profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.engine import Simulator
    from repro.simnet.network import Network, Nic


@dataclass
class CpuModel:
    """Per-host software cost parameters.

    The defaults are calibrated to the paper's nodes (PIII 1 GHz, Linux 2.2):

    * ``memcpy_bandwidth`` — a straight ``memcpy`` of already-cached data on
      that class of machine sustains a few hundred MB/s; 800 MB/s is used for
      plain buffer copies (network stack copies, packing copies).
    * ``syscall_overhead`` — one kernel crossing (socket send/recv path).
    * ``callback_overhead`` — dispatching one user-level callback (the
      NetAccess layer is callback-based, "à la Active Message").
    * ``thread_switch_overhead`` — a user-level thread switch in the
      Marcel-like scheduler PadicoTM relies on.
    """

    name: str = "pentium3-1GHz"
    memcpy_bandwidth: float = 800.0 * MB
    syscall_overhead: float = 2.0 * MICROSECOND
    callback_overhead: float = 0.05 * MICROSECOND
    thread_switch_overhead: float = 0.6 * MICROSECOND
    interrupt_overhead: float = 4.0 * MICROSECOND

    __post_init__ = check_profile

    def copy_time(self, nbytes: int) -> float:
        """Seconds to copy ``nbytes`` once at ``memcpy_bandwidth``."""
        return nbytes / self.memcpy_bandwidth


class Host:
    """One simulated machine of the grid deployment."""

    def __init__(self, sim: "Simulator", name: str, cpu: Optional[CpuModel] = None):
        self.sim = sim
        self.name = name
        self.cpu = cpu or CpuModel()
        self.nics: Dict["Network", "Nic"] = {}
        self._services: Dict[str, Any] = {}
        self._labels: Dict[str, str] = {}
        #: physical liveness; a dead host neither sends nor receives frames.
        #: Flipped by the churn injector (:mod:`repro.monitoring.churn`).
        self.up = True
        #: event-loop partition this host's stack executes in (meaningful on
        #: a partitioned kernel; assigned by the deployment builder, e.g.
        #: :func:`repro.simnet.networks.grid_deployment`).
        self.partition = 0

    # -- NIC management ------------------------------------------------------
    def attach_nic(self, nic: "Nic") -> None:
        """Register a NIC created by :meth:`Network.connect`."""
        if nic.network in self.nics:
            raise ValueError(f"host {self.name!r} already attached to network {nic.network.name!r}")
        self.nics[nic.network] = nic
        # Bump the simulator-wide topology epoch so generation-stamped caches
        # (TopologyKB link profiles, RoutingEngine routes) see late attachments.
        self.sim.topology_epoch = getattr(self.sim, "topology_epoch", 0) + 1

    def nic_for(self, network: "Network") -> "Nic":
        """The NIC of this host on ``network`` (KeyError if not attached)."""
        return self.nics[network]

    def networks(self):
        """All networks this host is attached to."""
        return list(self.nics.keys())

    def is_attached(self, network: "Network") -> bool:
        return network in self.nics

    def shares_network_with(self, other: "Host"):
        """Networks common to ``self`` and ``other`` (used by the selector)."""
        return [net for net in self.nics if other.is_attached(net)]

    # -- service registry ------------------------------------------------------
    def register_service(self, key: str, service: Any, replace: bool = False) -> Any:
        """Publish a per-host singleton (e.g. ``"netaccess"``, ``"tcp"``)."""
        if not replace and key in self._services:
            raise ValueError(f"service {key!r} already registered on host {self.name!r}")
        self._services[key] = service
        return service

    def get_service(self, key: str, default: Any = None) -> Any:
        return self._services.get(key, default)

    def require_service(self, key: str) -> Any:
        """Like :meth:`get_service` but raises a clear error when missing."""
        try:
            return self._services[key]
        except KeyError:
            raise LookupError(
                f"host {self.name!r} has no service {key!r}; "
                f"available: {sorted(self._services)}"
            ) from None

    def has_service(self, key: str) -> bool:
        return key in self._services

    @property
    def site(self) -> str:
        """Administrative site of the host (used for WAN/secure-link decisions)."""
        return self._labels.get("site", "default-site")

    @site.setter
    def site(self, value: str) -> None:
        self._labels["site"] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nets = ",".join(net.name for net in self.nics)
        return f"<Host {self.name} nets=[{nets}]>"


@dataclass
class HostGroup:
    """A named, ordered set of hosts (a cluster, a site, or an ad-hoc group).

    Mirrors the paper's notion of a Circuit *group*: "an arbitrary set of
    nodes, e.g. a cluster, a subset of a cluster, may span across multiple
    clusters or even multiple sites".
    """

    name: str
    hosts: list = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [h.name for h in self.hosts]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate host in group {self.name!r}: {names}")

    def __len__(self) -> int:
        return len(self.hosts)

    def __iter__(self):
        return iter(self.hosts)

    def __getitem__(self, idx: int) -> Host:
        return self.hosts[idx]

    def index_of(self, host: Host) -> int:
        """Rank of ``host`` inside the group."""
        for i, h in enumerate(self.hosts):
            if h is host:
                return i
        raise ValueError(f"host {host.name!r} not in group {self.name!r}")

    def contains(self, host: Host) -> bool:
        return any(h is host for h in self.hosts)

    def sites(self):
        """Distinct administrative sites spanned by the group."""
        seen = []
        for h in self.hosts:
            if h.site not in seen:
                seen.append(h.site)
        return seen
