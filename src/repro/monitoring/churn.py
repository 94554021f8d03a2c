"""Deterministic, seeded churn and fault injection.

A :class:`FaultInjector` schedules link degradation, link failure/recovery
and host (gateway) death on the :class:`~repro.simnet.engine.Simulator`.
Faults act on the *physical* layer (``Network``/``Host`` parameters and
``up`` flags); whether the knowledge base learns about them is a separate
question:

* ``announce=True`` (oracle mode, the default): the injector also mutates
  the :class:`~repro.abstraction.topology.TopologyKB` — generation bump,
  subscriber notification — as if detection were instantaneous.  Right for
  deterministic tests of the reaction machinery.
* ``announce=False``: the KB only learns through the monitoring feedback
  loop (probes → estimators → :class:`~repro.monitoring.feedback.TopologyMonitor`),
  reproducing the real fault-to-detection gap.

Churn *arrival times* can be drawn as an inhomogeneous Poisson process via
Lewis–Shedler thinning (:func:`poisson_thinning_times`), so rate-varying
fault schedules (quiet nights, stormy peaks) stay reproducible under one
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.network import Network
from repro.abstraction.routing import GATEWAY_RELAY_SERVICE
from repro.abstraction.topology import TopologyKB


def poisson_thinning_times(
    rng: random.Random,
    rate_fn: Callable[[float], float],
    horizon: float,
    rate_max: float,
) -> List[float]:
    """Arrival times of an inhomogeneous Poisson process on ``[0, horizon)``.

    Lewis–Shedler thinning: draw a homogeneous process at ``rate_max`` and
    keep each arrival ``t`` with probability ``rate_fn(t) / rate_max``.
    ``rate_fn`` must never exceed ``rate_max`` (checked per draw).
    """
    if rate_max <= 0:
        raise ValueError(f"rate_max must be positive, got {rate_max!r}")
    times: List[float] = []
    t = 0.0
    while True:
        t += rng.expovariate(rate_max)
        if t >= horizon:
            return times
        rate = rate_fn(t)
        if rate > rate_max:
            raise ValueError(f"rate_fn({t:.3f}) = {rate!r} exceeds rate_max = {rate_max!r}")
        if rng.random() <= rate / rate_max:
            times.append(t)


@dataclass
class FaultEvent:
    """One executed fault, recorded in the injector's log."""

    at: float
    kind: str
    target: str
    detail: str = ""


@dataclass
class _SavedParams:
    latency: float
    bandwidth: float
    loss_rate: float


class FaultInjector:
    """Schedules seeded faults on the simulator and records what it did."""

    def __init__(
        self,
        sim: Simulator,
        topology: TopologyKB,
        *,
        seed: int = 0xC0FFEE,
        announce: bool = True,
    ):
        self.sim = sim
        self.topology = topology
        self.seed = seed
        self.rng = random.Random(seed)
        self.announce = announce
        self.log: List[FaultEvent] = []
        self._saved: Dict[Network, _SavedParams] = {}

    # -- link degradation ---------------------------------------------------------
    def degrade_link_at(
        self,
        at: float,
        network: Network,
        *,
        latency: Optional[float] = None,
        bandwidth: Optional[float] = None,
        loss_rate: Optional[float] = None,
    ) -> None:
        """At ``at``, mutate the network's physical parameters in place.

        On a partitioned kernel, churn on a *boundary* link is applied at
        the next window edge (a barrier-synchronized hook) rather than
        mid-window: the conservative windows are sized from boundary
        latencies per window, so an in-window latency drop below the
        in-flight window would make later same-window sends raise
        :class:`~repro.simnet.partition.LookaheadViolation`.  Applying at
        the edge means the next window is already sized from the degraded
        latency.  Shard-local links mutate at
        ``at`` exactly, as before."""
        self._schedule_link_fault(
            at, network, self._degrade, network, latency, bandwidth, loss_rate
        )

    def _schedule_link_fault(self, at: float, network: Network, fn, *args) -> None:
        """Route a link mutation to where it can run safely: barrier hook
        for boundary links on a partitioned kernel, the owning partition's
        loop otherwise."""
        if self.sim.is_boundary(network):
            self.sim.call_at_barrier(at, fn, *args)
        else:
            self.sim.call_at_partition(network.owning_partition(), at, fn, *args)

    def _degrade(self, network, latency, bandwidth, loss_rate) -> None:
        self._save(network)
        changes = []
        if latency is not None:
            network.latency = latency
            changes.append(f"latency={latency:g}")
        if bandwidth is not None:
            network.bandwidth = bandwidth
            changes.append(f"bandwidth={bandwidth:g}")
        if loss_rate is not None:
            network.loss_rate = loss_rate
            changes.append(f"loss_rate={loss_rate:g}")
        detail = ", ".join(changes)
        network.changed("degrade")
        self._record("degrade-link", network.name, detail)
        if self.announce:
            self.topology.touch_network(network, detail=f"degraded: {detail}")

    # -- link failure / recovery -----------------------------------------------------
    def fail_link_at(self, at: float, network: Network) -> None:
        """At ``at``, take the wire down: every frame blackholes."""
        self._schedule_link_fault(at, network, self._fail_link, network)

    def _fail_link(self, network: Network) -> None:
        network.up = False
        network.changed("link-down")
        self._record("fail-link", network.name)
        if self.announce:
            self.topology.mark_link_down(network, detail="fault injected")

    def recover_link_at(self, at: float, network: Network) -> None:
        """At ``at``, bring the wire back with its original parameters."""
        self._schedule_link_fault(at, network, self._recover_link, network)

    def _recover_link(self, network: Network) -> None:
        network.up = True
        saved = self._saved.pop(network, None)
        if saved is not None:
            network.latency = saved.latency
            network.bandwidth = saved.bandwidth
            network.loss_rate = saved.loss_rate
        network.changed("recover")
        self._record("recover-link", network.name)
        if self.announce:
            self.topology.clear_measurement(network, detail="recovered")
            self.topology.mark_link_up(network, detail="recovered")
            self.topology.touch_network(network, detail="recovered")

    # -- host / gateway death ----------------------------------------------------------
    def kill_host_at(self, at: float, host: Host) -> None:
        """At ``at``, kill the host: it stops sending and receiving, and a
        gateway relay running there tears down every spliced session."""
        self.sim.call_at_partition(host.partition, at, self._kill_host, host)

    def _kill_host(self, host: Host) -> None:
        host.up = False
        for network in host.networks():
            network.changed("host-down")
        relay = host.get_service(GATEWAY_RELAY_SERVICE)
        if relay is not None:
            relay.shutdown(reason=f"host {host.name} died")
        self._record("kill-host", host.name)
        if self.announce:
            self.topology.mark_host_down(host, detail="fault injected")

    def revive_host_at(self, at: float, host: Host) -> None:
        self.sim.call_at_partition(host.partition, at, self._revive_host, host)

    def _revive_host(self, host: Host) -> None:
        host.up = True
        for network in host.networks():
            network.changed("host-up")
        relay = host.get_service(GATEWAY_RELAY_SERVICE)
        if relay is not None:
            relay.restart()
        self._record("revive-host", host.name)
        if self.announce:
            self.topology.mark_host_up(host, detail="revived")

    # -- rate-varying flap schedules -----------------------------------------------------
    def flap_link(
        self,
        network: Network,
        *,
        horizon: float,
        down_time: float,
        rate: Optional[float] = None,
        rate_fn: Optional[Callable[[float], float]] = None,
        rate_max: Optional[float] = None,
        start: float = 0.0,
    ) -> List[Tuple[float, float]]:
        """Schedule a flapping link: failures arrive as a (possibly
        inhomogeneous) Poisson process, each followed by recovery after
        ``down_time``.  Returns the ``(down_at, up_at)`` windows scheduled.
        """
        if rate_fn is None:
            if rate is None:
                raise ValueError("flap_link needs rate= or rate_fn=")
            constant = float(rate)
            rate_fn = lambda _t: constant  # noqa: E731 - tiny closure
            rate_max = constant
        if rate_max is None:
            raise ValueError("rate_fn= requires rate_max=")
        windows: List[Tuple[float, float]] = []
        last_up = start
        for arrival in poisson_thinning_times(self.rng, rate_fn, horizon, rate_max):
            down_at = start + arrival
            if down_at < last_up:
                continue  # still inside the previous outage window
            up_at = down_at + down_time
            self.fail_link_at(down_at, network)
            self.recover_link_at(up_at, network)
            windows.append((down_at, up_at))
            last_up = up_at
        return windows

    # -- bookkeeping ------------------------------------------------------------------------
    def _save(self, network: Network) -> None:
        if network not in self._saved:
            self._saved[network] = _SavedParams(
                latency=network.latency,
                bandwidth=network.bandwidth,
                loss_rate=network.loss_rate,
            )

    def _record(self, kind: str, target: str, detail: str = "") -> None:
        self.log.append(FaultEvent(at=self.sim.now, kind=kind, target=target, detail=detail))
        tele = self.sim.telemetry
        if tele is not None:
            tele.emit("churn.fault", fault=kind, target=target, detail=detail)

    def describe(self) -> Dict[str, object]:
        return {
            "events": len(self.log),
            "announce": self.announce,
            "log": [(e.at, e.kind, e.target) for e in self.log],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultInjector events={len(self.log)} announce={self.announce}>"
