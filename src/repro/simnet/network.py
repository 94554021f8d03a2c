"""Base classes for simulated networks, NICs and frame delivery.

The model is deliberately first-order — it is the *software stack above* the
wire that this reproduction studies, exactly like the paper.  A network is
characterised by a one-way wire latency, a wire bandwidth, an MTU, per-frame
header overhead and (for WAN-class networks) a loss rate.  Transmissions are
serialised per sending NIC (link occupancy), so concurrent middleware
systems sharing one NIC really do compete for the wire — which is what the
NetAccess arbitration layer is about.

Two transmission services are offered:

``Network.transmit``
    reliable, in-order message delivery — the service a Madeleine-class SAN
    library or an established TCP connection provides to the layer above.
    (For TCP the *throughput* model lives in :mod:`repro.simnet.tcp`; the
    network only provides the underlying cost parameters.)

``Network.transmit_datagram``
    unreliable, per-packet-lossy delivery used by the UDP-like path of the
    VRP loss-tolerant protocol.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.simnet.buffers import immutable
from repro.simnet.cost import MB, MICROSECOND

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.engine import SimEvent, Simulator
    from repro.simnet.host import Host


PARADIGM_PARALLEL = "parallel"
PARADIGM_DISTRIBUTED = "distributed"


@dataclass
class Frame:
    """One message handed to the wire by a NIC."""

    frame_id: int
    src: "Host"
    dst: "Host"
    network: "Network"
    channel: Any
    #: an immutable buffer (:func:`repro.simnet.buffers.immutable`):
    #: ``bytes``, a read-only ``bytes``-backed memoryview on the TCP data
    #: path, or a :class:`~repro.simnet.buffers.Gather` on the SAN path,
    #: whose length is the wire length.  Consumers that need a flat
    #: ``bytes`` take ``bytes(frame.payload)`` at their own boundary.
    payload: bytes
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Frame #{self.frame_id} {self.src.name}->{self.dst.name} "
            f"chan={self.channel!r} {self.nbytes}B>"
        )


class Delivery:
    """A frame arriving at a NIC, travelling *up* the receive stack.

    The receive path of the reproduced stack (NetAccess demultiplexing,
    adapter, personality, middleware unmarshalling) is a chain of synchronous
    callbacks executed at the frame's arrival time.  Each stage adds its
    software cost, in seconds, to :attr:`cost` (a ``float``, 0.0 at arrival);
    the terminal consumer then calls :meth:`complete_into` so the
    application-visible completion event fires only after the accumulated
    receive-side cost has elapsed.
    """

    def __init__(self, frame: Frame, arrived_at: float):
        self.frame = frame
        self.arrived_at = arrived_at
        self.cost = 0.0

    @property
    def payload(self) -> bytes:
        return self.frame.payload

    @property
    def sim(self) -> "Simulator":
        return self.frame.network.sim

    def ready_time(self) -> float:
        """Virtual time at which the data is available to the application."""
        return self.arrived_at + self.cost

    def complete_into(self, event: "SimEvent", value: Any = None) -> None:
        """Trigger ``event`` once the receive-side software cost has elapsed."""
        delay = max(0.0, self.ready_time() - self.sim.now)
        event.succeed(value, delay=delay)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Delivery {self.frame!r} at {self.arrived_at:.9f}s "
            f"+{self.cost / MICROSECOND:.2f}us>"
        )


class Nic:
    """A host's interface on one network.

    Exactly one receive handler may be registered per NIC: in the paper's
    model the arbitration layer (NetAccess) is "the only client of the
    system-level resources".  Attempting to register a second handler raises,
    and a test asserts this property.
    """

    def __init__(self, host: "Host", network: "Network", address: str):
        self.host = host
        self.network = network
        self.address = address
        self._tx_free_at = 0.0
        #: the fluid plan holding pre-committed future reservations on this
        #: NIC for every flow sending through it (a
        #: ``repro.simnet.fluid._NicPlan``, set when it commits).  Any
        #: reservation by *other* traffic must cut it first, so foreign
        #: frames queue behind the in-flight round only — exactly where the
        #: packet model would put them — instead of behind the plan's
        #: entire laid-out future.
        self._fluid_holder = None
        self._receive_handler: Optional[Callable[[Delivery], None]] = None
        self._owner: Optional[str] = None

    # -- arbitration hook ----------------------------------------------------
    def set_receive_handler(self, handler: Callable[[Delivery], None], owner: str) -> None:
        """Install the single receive callback (owned by the arbitration layer)."""
        if self._receive_handler is not None and self._owner != owner:
            raise PermissionError(
                f"NIC {self.address} on {self.network.name} is already owned by "
                f"{self._owner!r}; concurrent system-level access must go through "
                "the arbitration layer (NetAccess)"
            )
        self._receive_handler = handler
        self._owner = owner

    @property
    def owner(self) -> Optional[str]:
        return self._owner

    # -- transmit --------------------------------------------------------------
    def reserve_tx(self, start: float, duration: float) -> Tuple[float, float]:
        """Serialise outbound transmissions on this NIC (link occupancy)."""
        holder = self._fluid_holder
        if holder is not None:
            # Foreign traffic (a handshake, a FIN, a datagram) wants the
            # wire mid-plan: unwind the plan's uncommitted reservations so
            # this frame lands at the exact slot the packet model would
            # give it.
            holder.cut("nic-contention")
        begin = max(start, self._tx_free_at)
        end = begin + duration
        self._tx_free_at = end
        return begin, end

    @property
    def tx_free_at(self) -> float:
        return self._tx_free_at

    def rewind_tx(self, to: float) -> None:
        """Release future occupancy back to ``to`` (fluid-epoch rollback:
        the unwound rounds' reservations were never really on the wire)."""
        self._tx_free_at = to

    # -- receive ----------------------------------------------------------------
    def handle_arrival(self, frame: Frame, arrived_at: float) -> None:
        delivery = Delivery(frame, arrived_at)
        if self._receive_handler is None:
            self.network.record_drop(frame, reason="no-handler")
            return
        self._receive_handler(delivery)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Nic {self.address} host={self.host.name} net={self.network.name}>"


class Network:
    """A simulated network with a first-order latency/bandwidth/loss model."""

    #: paradigm of the network: ``"parallel"`` for SAN-class networks
    #: (Myrinet, SCI), ``"distributed"`` for IP-class networks.
    paradigm = PARADIGM_DISTRIBUTED

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        *,
        latency: float,
        bandwidth: float,
        mtu: int = 1500,
        header_bytes: int = 0,
        loss_rate: float = 0.0,
        seed: int = 0x5EED,
    ) -> None:
        if latency < 0 or bandwidth <= 0 or mtu <= 0:
            raise ValueError("invalid network parameters")
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.name = name
        self.latency = latency
        self.bandwidth = bandwidth
        self.mtu = mtu
        self.header_bytes = header_bytes
        self.loss_rate = loss_rate
        self.rng = random.Random(seed)
        self.nics: Dict["Host", Nic] = {}
        self._frame_counter = itertools.count(1)
        self._address_counter = itertools.count(1)
        self.frames_sent = 0
        self.frames_dropped = 0
        self.bytes_carried = 0
        self.drop_log: List[Tuple[int, str]] = []
        #: physical link state; a down network blackholes every frame.
        #: Flipped by the churn injector (:mod:`repro.monitoring.churn`).
        self.up = True
        #: event-loop partition that owns this link (None: derive from the
        #: first attached host).  Monitoring probes and fault schedules for
        #: the link execute in the owning partition; a network whose hosts
        #: span partitions is a *boundary* link (see
        #: :mod:`repro.simnet.partition`).
        self.partition: Optional[int] = None
        #: the passive probe fed by this link's traffic, or None: a
        #: :class:`~repro.monitoring.probes.PassiveLinkProbe` sets it and its
        #: ``detach()`` clears it.  The flight recorder does not ride it;
        #: the transmit paths emit to ``sim.telemetry`` themselves.
        self.probe = None
        #: per-link rate-share ledger for the fluid fast path, created
        #: lazily by :func:`repro.simnet.fluid.ledger_for` the first time a
        #: hybrid-fidelity TCP connection pumps on this link.
        self.fluid_ledger = None

    # -- topology ----------------------------------------------------------------
    def connect(self, host: "Host") -> Nic:
        """Attach ``host`` to this network and return its NIC."""
        if host in self.nics:
            return self.nics[host]
        address = self.make_address(host, next(self._address_counter))
        nic = Nic(host, self, address)
        self.nics[host] = nic
        host.attach_nic(nic)
        if self.sim.partition_count > 1:
            # a partitioned kernel tracks links that span partitions: their
            # latency bounds the conservative window width.
            self.sim.note_network_span(self)
        return nic

    def owning_partition(self) -> int:
        """The partition that owns this link's probes and fault schedules:
        the explicit :attr:`partition` when set, else the partition of the
        first attached host."""
        if self.partition is not None:
            return self.partition
        for host in self.nics:
            return host.partition
        return 0

    def make_address(self, host: "Host", index: int) -> str:
        """Network-specific address syntax (overridden by IP-class networks)."""
        return f"{self.name}:{host.name}#{index}"

    def hosts(self) -> List["Host"]:
        return list(self.nics.keys())

    def is_attached(self, host: "Host") -> bool:
        return host in self.nics

    def connects(self, a: "Host", b: "Host") -> bool:
        return a in self.nics and b in self.nics

    def nic_of(self, host: "Host") -> Nic:
        try:
            return self.nics[host]
        except KeyError:
            raise LookupError(f"host {host.name!r} is not attached to {self.name!r}") from None

    # -- link state -------------------------------------------------------------------
    def link_alive(self, src: "Host", dst: "Host") -> bool:
        """True when the wire and both endpoints are physically up."""
        return self.up and src.up and dst.up

    def changed(self, reason: str) -> None:
        """Tell every cache of this link's parameters that they changed.

        Must be called right after any out-of-band change to ``latency``,
        ``bandwidth``, ``loss_rate`` or ``up``, or to an attached host's
        ``up`` (the churn injector does this; lint rule W003 flags a store
        without it).  The listeners, in order:

        * the fluid ledger: every fluidized flow on the link drops back to
          the packet model (flows read parameters per round on their own,
          but a committed multi-round epoch plan has to be rolled back);
        * the passive probe, which tells its link watch: the watch's active
          probe folds its ticks up to now under the old parameters and
          plans again under the new ones.
        """
        ledger = self.fluid_ledger
        if ledger is not None:
            ledger.invalidate(reason)
        probe = self.probe
        if probe is not None:
            probe.changed()

    # -- timing model ---------------------------------------------------------------
    def packets_for(self, nbytes: int) -> int:
        """Number of MTU-sized packets needed for ``nbytes`` of payload."""
        if nbytes <= 0:
            return 1
        return int(math.ceil(nbytes / self.mtu))

    def wire_bytes(self, nbytes: int) -> int:
        """Bytes on the wire including per-packet headers."""
        return nbytes + self.packets_for(nbytes) * self.header_bytes

    def serialization_time(self, nbytes: int) -> float:
        """Time to push ``nbytes`` of payload through the wire."""
        return self.wire_bytes(nbytes) / self.bandwidth

    def one_way_time(self, nbytes: int) -> float:
        """Wire latency plus serialisation time (no software costs)."""
        return self.latency + self.serialization_time(nbytes)

    # -- transmission -----------------------------------------------------------------
    def transmit(
        self,
        src: "Host",
        dst: "Host",
        payload: bytes,
        *,
        channel: Any = None,
        send_cost: float = 0.0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Frame:
        """Reliable message transmission from ``src`` to ``dst``.

        The frame leaves the source NIC after ``send_cost``, the seconds of
        *send-side* software cost the layers above added up, waits for the
        NIC transmit link to be free, occupies it for the serialisation time,
        then arrives at ``dst`` after the wire latency.  The destination
        NIC's receive handler (installed by the arbitration layer) is invoked
        at arrival time.
        """
        src_nic = self.nic_of(src)
        dst_nic = self.nic_of(dst)
        if src is dst:
            raise ValueError(
                f"{self.name}: transmit() to self; use the Loopback network for local links"
            )
        frame = Frame(
            frame_id=next(self._frame_counter),
            src=src,
            dst=dst,
            network=self,
            channel=channel,
            payload=immutable(payload),
            meta=dict(meta or {}),
        )
        nbytes = frame.nbytes
        ready = self.sim.now + send_cost
        begin, end = src_nic.reserve_tx(ready, self.serialization_time(nbytes))
        arrival = end + self.latency
        frame.meta.setdefault("tx_begin", begin)
        frame.meta.setdefault("tx_end", end)
        frame.meta.setdefault("arrival", arrival)
        if not self.link_alive(src, dst):
            # The sender cannot tell: the bytes leave the NIC and vanish.
            # Reliability above this point is the job of the layers that the
            # monitoring/adaptive subsystem provides (acks + retransmission).
            self.record_drop(frame, reason="link-down")
            self._report_loss(nbytes, "blackhole")
            return frame
        self.frames_sent += 1
        self.bytes_carried += nbytes
        # the arrival executes in the *destination's* partition; on a
        # partitioned kernel a cross-partition delivery rides the boundary
        # mailbox (arrival >= window horizon: the wire latency is the
        # lookahead), on the single loop this is a plain call_at.
        self.sim.call_at_partition(dst.partition, arrival, dst_nic.handle_arrival, frame, arrival)
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.emit(
                "link.tx", t=begin, net=self.name, src=src.name, dst=dst.name,
                nbytes=nbytes, begin=begin, end=end, qd=begin - self.sim.now,
            )
        if self.probe is not None:
            self.probe.frame(frame)
        return frame

    def transmit_datagram(
        self,
        src: "Host",
        dst: "Host",
        payload: bytes,
        *,
        channel: Any = None,
        send_cost: float = 0.0,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Optional[Frame]:
        """Unreliable transmission: the whole datagram is dropped with the
        network's per-packet loss probability applied to each MTU segment.

        Returns the frame if it was put on the wire and will arrive, or
        ``None`` if it was lost (the caller — UDP personality or VRP — deals
        with it)."""
        if not self.link_alive(src, dst):
            self.frames_dropped += 1
            self.drop_log.append((len(payload), "link-down"))
            self._report_loss(len(payload), "link-down")
            return None
        packets = self.packets_for(len(payload))
        lost = any(self.rng.random() < self.loss_rate for _ in range(packets))
        if lost:
            self.frames_dropped += 1
            self.drop_log.append((len(payload), "loss"))
            # The bytes still occupy the sender's wire even when dropped
            # downstream; charge occupancy so a lossy link cannot magically
            # exceed its bandwidth by retransmitting for free.
            src_nic = self.nic_of(src)
            src_nic.reserve_tx(self.sim.now + send_cost, self.serialization_time(len(payload)))
            self._report_loss(len(payload), "loss")
            return None
        return self.transmit(
            src, dst, payload, channel=channel, send_cost=send_cost, meta=meta
        )

    def record_drop(self, frame: Frame, reason: str) -> None:
        self.frames_dropped += 1
        self.drop_log.append((frame.nbytes, reason))

    def _report_loss(self, nbytes: int, reason: str) -> None:
        """Tell the flight recorder and the probe that ``nbytes`` left the
        sender and will never arrive."""
        telemetry = self.sim.telemetry
        if telemetry is not None:
            telemetry.emit("link.loss", net=self.name, nbytes=nbytes, reason=reason)
        if self.probe is not None:
            self.probe.loss(nbytes)

    # -- descriptive -----------------------------------------------------------------
    @property
    def is_parallel(self) -> bool:
        return self.paradigm == PARADIGM_PARALLEL

    @property
    def is_distributed(self) -> bool:
        return self.paradigm == PARADIGM_DISTRIBUTED

    def describe(self) -> Dict[str, Any]:
        """Static description used by the topology knowledge base."""
        return {
            "name": self.name,
            "paradigm": self.paradigm,
            "latency_us": self.latency / MICROSECOND,
            "bandwidth_MBps": self.bandwidth / MB,
            "mtu": self.mtu,
            "loss_rate": self.loss_rate,
            "up": self.up,
            "hosts": [h.name for h in self.nics],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name} lat={self.latency * 1e6:.1f}us "
            f"bw={self.bandwidth / MB:.1f}MB/s hosts={len(self.nics)}>"
        )
