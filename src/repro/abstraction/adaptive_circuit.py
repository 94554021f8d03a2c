"""Adaptive Circuits: group endpoints that survive topology changes.

The PR 2 adaptive machinery stopped at point-to-point VLinks: a Circuit
bound its adapters once at creation, so the monitoring subsystem's verdicts
(degraded WANs, dead links, killed gateways) were invisible to group
communication — a member behind a dying hop simply froze.  This module
closes that gap by generalizing the offset-framed, cumulative-ack sessions
of :mod:`repro.abstraction.adaptive` to the Circuit layer:

* every remote leg of an adaptive circuit is an
  :class:`~repro.abstraction.adaptive.AdaptiveVLink` session instead of a
  bare driver stream.  The stream-mesh framing (``src_rank``-tagged,
  length-prefixed messages) rides the session unchanged;
* each leg carries a *route provider* pointing at
  :meth:`~repro.abstraction.selector.Selector.pin_circuit_route`, so rails
  follow the circuit-hop policy (parallel streams / AdOC / zero-tolerance
  VRP on WAN hops, MadIO on SAN hops, monitoring-derived parameters) both
  at creation and on every migration;
* when a hop degrades or a gateway dies, **only the affected leg
  migrates** — the VLink manager's topology subscription re-runs pinning
  per session, the session resumes on the new rail via the offset
  handshake, and per-source byte order across the group is preserved by
  the cumulative-ack retransmission exactly as for point-to-point adaptive
  VLinks.  Unaffected legs never notice.

The :class:`AdaptiveCircuitSession` object is the per-circuit bookkeeping
surface (``circuit.adaptive``): live legs, migration counts, per-leg route
descriptions — what benchmarks and operators introspect.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.simnet.engine import SimEvent
from repro.simnet.host import Host
from repro.abstraction.adaptive import AdaptiveListener, AdaptiveVLink
from repro.abstraction.adapters import StreamMeshCircuitAdapter
from repro.abstraction.circuit import Circuit
from repro.abstraction.common import AbstractionError
from repro.abstraction.routing import Route
from repro.abstraction.selector import RouteChoice
from repro.abstraction.vlink import VLinkManager


class AdaptiveCircuitAdapter(StreamMeshCircuitAdapter):
    """Circuit legs as migratable adaptive sessions (one per remote rank).

    The lazily built stream mesh of :class:`StreamMeshCircuitAdapter` is
    reused verbatim — only the transport factory changes: ``_listen`` opens
    an :class:`~repro.abstraction.adaptive.AdaptiveListener` and
    ``_connect`` opens adaptive sessions whose rails are pinned through the
    selector's circuit-hop policy.
    """

    name = "adaptive"

    def __init__(self, circuit: Circuit, route: RouteChoice):
        super().__init__(circuit, route)
        self.vlink_manager: VLinkManager = self.host.require_service("vlink")
        self.listener: Optional[AdaptiveListener] = None

    # -- stream-mesh transport hooks ---------------------------------------------
    def _listen(self, port: int, on_incoming: Callable) -> None:
        self.listener = self.vlink_manager.listen_adaptive(port)
        self.listener.set_accept_callback(lambda link: on_incoming(link, None))

    def _connect(self, dst_host: Host, port: int) -> SimEvent:
        return self.vlink_manager.connect_adaptive(
            dst_host, port, route_provider=self._route_provider_for(dst_host)
        )

    def _route_provider_for(self, dst_host: Host) -> Callable[[], Optional[Route]]:
        """Rails follow circuit-hop pinning, re-evaluated per migration."""
        selector = self.vlink_manager.selector
        manager = self.vlink_manager

        def provide() -> Optional[Route]:
            try:
                return selector.pin_circuit_route(
                    manager.host, dst_host, manager.reliable_driver_names()
                )
            except AbstractionError:
                return None  # unreachable right now: let live selection try

        return provide

    # -- introspection ------------------------------------------------------------
    def legs(self) -> Dict[int, AdaptiveVLink]:
        """The live outgoing adaptive sessions, keyed by destination rank."""
        return {
            rank: stream
            for rank, stream in self._out_streams.items()
            if isinstance(stream, AdaptiveVLink)
        }


class AdaptiveCircuitSession:
    """Per-circuit adaptive bookkeeping: the surface behind ``circuit.adaptive``.

    One instance wraps the circuit's :class:`AdaptiveCircuitAdapter` and
    aggregates what the group endpoint wants to know: which legs are live,
    how often each migrated, and what route every leg currently rides.
    """

    def __init__(self, circuit: Circuit, adapter: AdaptiveCircuitAdapter):
        self.circuit = circuit
        self.adapter = adapter

    def legs(self) -> Dict[int, AdaptiveVLink]:
        return self.adapter.legs()

    def migrations(self) -> int:
        """Total leg migrations this member performed so far."""
        return sum(leg.migrations for leg in self.legs().values())

    def unacked(self) -> int:
        """Bytes written to the group the peers have not yet delivered."""
        return sum(leg.unacked for leg in self.legs().values())

    def leg_routes(self) -> Dict[int, str]:
        """Human-readable current route per destination rank."""
        out: Dict[int, str] = {}
        for rank, leg in self.legs().items():
            route = leg.route
            if route is None:
                out[rank] = "?"
            elif isinstance(route, Route):
                out[rank] = route.describe()
            else:
                out[rank] = f"{leg.driver_name} ({route.method})"
        return out

    def describe(self) -> Dict[str, object]:
        legs = self.legs()
        return {
            "legs": len(legs),
            "migrations": self.migrations(),
            "unacked": self.unacked(),
            "routes": {rank: desc for rank, desc in sorted(self.leg_routes().items())},
            "drivers": {rank: leg.driver_name for rank, leg in sorted(legs.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AdaptiveCircuitSession {self.circuit.name!r} "
            f"legs={len(self.legs())} migrations={self.migrations()}>"
        )


__all__: List[str] = ["AdaptiveCircuitAdapter", "AdaptiveCircuitSession"]
