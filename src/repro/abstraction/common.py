"""Shared helpers of the abstraction layer.

The parallel-paradigm receive path (Myrinet → Madeleine → MadIO) carries a
:class:`repro.simnet.network.Delivery` object whose ``cost`` (seconds) every
layer adds its own to, so sub-microsecond layering costs stay visible.  The
distributed-paradigm receive path (TCP → SysIO) surfaces as plain socket
callbacks after the kernel costs have already elapsed; :class:`SoftDelivery`
gives that path the same interface so the layers above (VLink, Circuit,
personalities, middleware) can be written once against the :class:`RxPath`
protocol.
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable, TYPE_CHECKING

from repro.simnet.cost import MICROSECOND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.engine import SimEvent, Simulator


class AbstractionError(RuntimeError):
    """Misuse of the abstraction layer (bad ranks, closed links, ...)."""


@runtime_checkable
class RxPath(Protocol):
    """What the receive-side layers need from a delivery context."""

    cost: float

    def ready_time(self) -> float: ...

    def complete_into(self, event: "SimEvent", value: Any = None) -> None: ...


class SoftDelivery:
    """An :class:`RxPath` for receive paths that did not start at a NIC."""

    def __init__(self, sim: "Simulator", arrived_at: float = None):
        self.sim = sim
        self.arrived_at = sim.now if arrived_at is None else arrived_at
        self.cost = 0.0

    def ready_time(self) -> float:
        return self.arrived_at + self.cost

    def complete_into(self, event: "SimEvent", value: Any = None) -> None:
        delay = max(0.0, self.ready_time() - self.sim.now)
        event.succeed(value, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SoftDelivery at {self.arrived_at:.9f}s +{self.cost / MICROSECOND:.2f}us>"


# ---------------------------------------------------------------------------
# Calibrated per-layer software costs (seconds, per message and per side).
# The sum of wire + Madeleine + MadIO + these layer costs is what lands on the
# paper's Table 1 latencies; perfbench's ``stack_pingpong`` workload measures
# those sums rung by rung (its ``*.oneway_us`` figures).
# ---------------------------------------------------------------------------

#: Circuit abstract-interface bookkeeping (straight parallel path).
CIRCUIT_LAYER_OVERHEAD = 0.16 * MICROSECOND

#: VLink abstract-interface bookkeeping (descriptor + asynchronous op management).
VLINK_LAYER_OVERHEAD = 0.12 * MICROSECOND

#: Cross-paradigm translation: presenting a client/server byte stream on top
#: of a message-based SAN (the VLink-over-MadIO adapter).
CROSS_PARADIGM_STREAM_OVERHEAD = 0.95 * MICROSECOND

#: Cross-paradigm translation: presenting a group/message interface on top of
#: a connected byte stream (the Circuit-over-SysIO adapter): framing work.
CROSS_PARADIGM_FRAMING_OVERHEAD = 0.45 * MICROSECOND

#: Store-and-forward work done by a gateway relay per forwarded chunk
#: (read-side wakeup + write-side post on the intermediate node); the
#: per-byte memcpy on the gateway is charged separately against its CPU.
GATEWAY_FORWARD_OVERHEAD = 1.5 * MICROSECOND
