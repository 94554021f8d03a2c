"""NetAccess core: fairness and interleaving between I/O subsystems.

The core of NetAccess "manages the threads with the polling loops.  It
enforces fairness between SysIO and MadIO.  The interleaving policy between
SysIO and MadIO is dynamically user-tunable through a configuration API to
give more priority to system sockets or high performance network depending
on the application." (§4.1)

In the reproduction the polling threads are not real threads; what matters
for the measurements is the *cost* a delivery pays to traverse the
arbitration layer and the way that cost shifts when several subsystems (or
several middleware systems inside one subsystem) are active at once:

* every callback dispatch costs the host's ``callback_overhead``;
* when more than one subsystem is registered, a delivery also pays an
  interleaving penalty proportional to how much polling time the *other*
  subsystems are granted — this is what the priority knob tunes;
* an explicit *competitive* baseline models the pre-PadicoTM situation the
  paper describes in §4.1 ("the one which does active polling holds near
  100 % of the CPU time; it will result in inequity or even deadlock"):
  deliveries to every subsystem other than the CPU hog are delayed by a
  large starvation penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.simnet.cost import Cost, MICROSECOND
from repro.simnet.host import Host


NETACCESS_SERVICE = "netaccess"

#: time to poll one "other" subsystem once before reaching ours (seconds).
DEFAULT_POLL_SLICE = 0.05 * MICROSECOND

#: starvation penalty per delivery when an active-polling middleware
#: monopolises the CPU and no arbitration is present (competitive baseline).
DEFAULT_STARVATION_PENALTY = 500.0 * MICROSECOND


class ArbitrationError(RuntimeError):
    """Misuse of the arbitration layer."""


@dataclass
class SubsystemStats:
    """Per-subsystem accounting kept by the core."""

    name: str
    weight: float = 1.0
    dispatches: int = 0
    bytes_delivered: int = 0
    arbitration_time: float = 0.0


class NetAccessCore:
    """Per-host arbitration core (the single gateway to every NIC)."""

    def __init__(
        self,
        host: Host,
        *,
        poll_slice: float = DEFAULT_POLL_SLICE,
        starvation_penalty: float = DEFAULT_STARVATION_PENALTY,
    ):
        self.host = host
        self.sim = host.sim
        self._subsystems: Dict[str, SubsystemStats] = {}
        self._competitive_hog: Optional[str] = None
        #: per-subsystem interleaving penalty, filled on demand; everything
        #: it is computed from (registry, weights, hog, the two knobs below)
        #: clears it when it changes
        self._penalties: Dict[str, float] = {}
        self.poll_slice = poll_slice
        self.starvation_penalty = starvation_penalty
        host.register_service(NETACCESS_SERVICE, self)

    @property
    def poll_slice(self) -> float:
        """Time to poll one "other" subsystem once before reaching ours."""
        return self._poll_slice

    @poll_slice.setter
    def poll_slice(self, seconds: float) -> None:
        self._poll_slice = seconds
        self._penalties.clear()

    @property
    def starvation_penalty(self) -> float:
        """Per-delivery wait of everybody but the hog (competitive baseline)."""
        return self._starvation_penalty

    @starvation_penalty.setter
    def starvation_penalty(self, seconds: float) -> None:
        self._starvation_penalty = seconds
        self._penalties.clear()

    # -- subsystem registry ------------------------------------------------------
    def register_subsystem(self, name: str, weight: float = 1.0) -> SubsystemStats:
        """Register an I/O subsystem (MadIO, SysIO, a Shmem subsystem, ...)."""
        if weight <= 0:
            raise ArbitrationError(f"subsystem weight must be positive, got {weight}")
        if name in self._subsystems:
            return self._subsystems[name]
        stats = SubsystemStats(name=name, weight=weight)
        self._subsystems[name] = stats
        self._penalties.clear()
        return stats

    def subsystems(self) -> Dict[str, SubsystemStats]:
        return dict(self._subsystems)

    def stats(self, name: str) -> SubsystemStats:
        try:
            return self._subsystems[name]
        except KeyError:
            raise ArbitrationError(f"unknown subsystem {name!r}") from None

    # -- interleaving policy ---------------------------------------------------------
    def set_priority(self, name: str, weight: float) -> None:
        """Dynamically tune the polling interleave (§4.1 configuration API)."""
        if weight <= 0:
            raise ArbitrationError(f"priority weight must be positive, got {weight}")
        self.stats(name).weight = weight
        self._penalties.clear()

    def priority(self, name: str) -> float:
        return self.stats(name).weight

    def set_competitive_baseline(self, hog: Optional[str]) -> None:
        """Enable the no-arbitration ablation: ``hog`` busy-polls and starves
        every other subsystem.  Pass ``None`` to restore cooperative mode."""
        if hog is not None and hog not in self._subsystems:
            raise ArbitrationError(f"unknown subsystem {hog!r}")
        self._competitive_hog = hog
        self._penalties.clear()

    @property
    def competitive_hog(self) -> Optional[str]:
        return self._competitive_hog

    # -- dispatch cost -----------------------------------------------------------------
    def dispatch_cost(self, name: str) -> float:
        """Arbitration cost (seconds) of delivering one event to ``name``."""
        penalty = self._penalties.get(name)
        if penalty is None:
            penalty = self._penalties[name] = self._interleaving_penalty(name)
        return self.host.cpu.callback_overhead + penalty

    def _interleaving_penalty(self, name: str) -> float:
        stats = self.stats(name)
        if self._competitive_hog is not None and self._competitive_hog != name:
            # No cooperative arbitration: the busy-polling middleware owns the
            # CPU and everybody else waits for a scheduling quantum.
            return self._starvation_penalty
        others_weight = sum(s.weight for n, s in self._subsystems.items() if n != name)
        return self._poll_slice * (others_weight / stats.weight)

    def charge_dispatch(self, name: str, cost: Cost, nbytes: int = 0) -> float:
        """Charge the arbitration cost for one delivery into ``cost`` and
        update the per-subsystem accounting.  Returns the seconds charged."""
        seconds = self.dispatch_cost(name)
        cost.charge(seconds)
        stats = self.stats(name)
        stats.dispatches += 1
        stats.bytes_delivered += nbytes
        stats.arbitration_time += seconds
        return seconds

    def defer(self, name: str, fn: Callable, *args) -> None:
        """Run ``fn`` after the arbitration dispatch delay (used by SysIO,
        whose underlying TCP deliveries have already consumed their own
        receive-side cost when the callback becomes runnable)."""
        seconds = self.dispatch_cost(name)
        stats = self.stats(name)
        stats.dispatches += 1
        stats.arbitration_time += seconds
        self.sim.call_later(seconds, fn, *args)

    # -- reporting ------------------------------------------------------------------------
    def fairness_report(self) -> Dict[str, Dict[str, float]]:
        """Snapshot used by tests and the concurrency benchmark."""
        report: Dict[str, Dict[str, float]] = {}
        for name, stats in self._subsystems.items():
            report[name] = {
                "weight": stats.weight,
                "dispatches": float(stats.dispatches),
                "bytes": float(stats.bytes_delivered),
                "arbitration_time": stats.arbitration_time,
            }
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        subs = ",".join(self._subsystems)
        return f"<NetAccessCore host={self.host.name} subsystems=[{subs}]>"


def netaccess_for(host: Host) -> NetAccessCore:
    """Return the host's NetAccess core, creating it on first use."""
    core = host.get_service(NETACCESS_SERVICE)
    if core is None:
        core = NetAccessCore(host)
    return core
