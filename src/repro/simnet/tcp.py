"""A window-based TCP model for the distributed-paradigm networks.

The system-level interface of the distributed world in the paper is the
socket API provided by the operating system; the SysIO subsystem of the
NetAccess arbitration layer sits directly on top of it.  This module plays
the role of that OS network stack:

* connection establishment (SYN / SYN-ACK, one round trip),
* an ordered byte-stream per connection,
* congestion control — slow start + AIMD with a per-burst loss draw — which
  is what makes a single stream collapse on lossy WANs (the 150 KB/s TCP
  figure of §5) and what parallel streams (GridFTP-style) work around,
* kernel-crossing and copy costs charged per operation.

The model is *burst based*: each "round" the sender pushes up to one
congestion window of bytes as a single simulated frame, then waits for the
longer of the acknowledgement round-trip and the wire serialisation time
before the next round.  For a loss-free LAN this converges to the wire
bandwidth; for a long fat network it converges to the Mathis steady state
``~MSS/(RTT*sqrt(p))`` that the VTHD measurements reflect.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, TYPE_CHECKING

from repro.simnet.buffers import BufferedConnection, Gather, StreamBuffer, immutable
from repro.simnet.cost import KB
from repro.simnet.fluid import FluidController, FluidPolicy
from repro.simnet.network import Delivery, Network, PARADIGM_DISTRIBUTED

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.engine import SimEvent
    from repro.simnet.host import Host


SERVICE_KEY = "tcp"

CH_SYN = "tcp-syn"
CH_SYNACK = "tcp-synack"
CH_DATA = "tcp-data"
CH_FIN = "tcp-fin"


@dataclass
class TcpModel:
    """Tunable parameters of the TCP window model."""

    #: initial congestion window, in segments (RFC 2581-era default).
    initial_window_segments: int = 2
    #: receiver window (socket buffer) in bytes.
    receive_window: int = 256 * KB
    #: initial slow-start threshold in bytes ("infinite" by default).
    initial_ssthresh: int = 1 << 30
    #: minimum congestion window in segments.
    min_window_segments: int = 1
    #: retransmission timeout expressed in round-trip times.
    rto_rtts: float = 2.0

    def initial_cwnd(self, mss: int) -> int:
        return self.initial_window_segments * mss

    def min_cwnd(self, mss: int) -> int:
        return self.min_window_segments * mss

    def grown_window(self, cwnd: int, delivered: int, ssthresh: int, mss: int) -> int:
        """The window after a loss-free round that delivered ``delivered``
        bytes — its one copy, which the packet round applies as it runs and
        a fluid plan as it books a flow's ramp: slow start adds what the
        round delivered, congestion avoidance one segment, then the clamp
        to ``[min_cwnd, receive_window]``."""
        cwnd += delivered if cwnd < ssthresh else mss
        floor = self.min_window_segments * mss
        if cwnd < floor:
            cwnd = floor
        return cwnd if cwnd < self.receive_window else self.receive_window


class TcpError(ConnectionError):
    """Connection-level failures (refused, reset, closed)."""


FIDELITY_PACKET = "packet"
FIDELITY_HYBRID = "hybrid"


class TcpStack:
    """Per-host OS network stack for distributed-paradigm networks.

    ``fidelity`` selects the simulation fidelity for this stack's
    connections: ``"packet"`` (default) runs every congestion-window burst
    through the full per-frame model; ``"hybrid"`` plans the rounds of a
    flow on a loss-free link ahead, from its first byte
    (:mod:`repro.simnet.fluid`).  A custom ``fluid_policy`` implies hybrid
    fidelity.
    """

    def __init__(
        self,
        host: "Host",
        model: Optional[TcpModel] = None,
        *,
        fidelity: str = FIDELITY_PACKET,
        fluid_policy: Optional[FluidPolicy] = None,
    ):
        if fluid_policy is not None:
            fidelity = FIDELITY_HYBRID
        if fidelity not in (FIDELITY_PACKET, FIDELITY_HYBRID):
            raise ValueError(f"unknown fidelity {fidelity!r}")
        self.fidelity = fidelity
        self.fluid_policy = (
            fluid_policy
            if fluid_policy is not None
            else (FluidPolicy() if fidelity == FIDELITY_HYBRID else None)
        )
        self.host = host
        self.sim = host.sim
        self.model = model or TcpModel()
        self._listeners: Dict[int, "TcpListener"] = {}
        self._connections: Dict[int, "TcpConnection"] = {}
        self._conn_ids = itertools.count(1)
        self._ephemeral_ports = itertools.count(32768)
        self._owned_networks: List[Network] = []
        host.register_service(SERVICE_KEY, self)
        # The OS owns the IP NICs from boot: claim whatever is already
        # attached so that e.g. RSTs for unserved ports can be delivered.
        self.attach_all()

    # -- network attachment -------------------------------------------------
    def attach(self, network: Network) -> None:
        """Claim the host's NIC on ``network`` (the stack is the OS: it owns
        the distributed-paradigm NICs, and everything above goes through it)."""
        if network.paradigm != PARADIGM_DISTRIBUTED:
            raise ValueError(
                f"TcpStack only drives distributed-paradigm networks, not {network.name!r}"
            )
        if network in self._owned_networks:
            return
        nic = network.nic_of(self.host)
        nic.set_receive_handler(self._handle_delivery, owner="os-tcp")
        self._owned_networks.append(network)

    def attach_all(self) -> None:
        """Attach every distributed-paradigm network the host is connected to."""
        for network in self.host.networks():
            if network.paradigm == PARADIGM_DISTRIBUTED:
                self.attach(network)

    def networks(self) -> List[Network]:
        return list(self._owned_networks)

    def _default_network_to(self, peer: "Host") -> Network:
        for network in self._owned_networks:
            if network.is_attached(peer):
                return network
        # fall back to any shared distributed network, attaching lazily
        for network in self.host.shares_network_with(peer):
            if network.paradigm == PARADIGM_DISTRIBUTED:
                self.attach(network)
                return network
        raise TcpError(
            f"no common IP network between {self.host.name} and {peer.name}"
        )

    # -- passive open ---------------------------------------------------------
    def listen(self, port: int, backlog: int = 16) -> "TcpListener":
        """Create a listening socket on ``port``."""
        if port in self._listeners:
            raise TcpError(f"port {port} already in use on {self.host.name}")
        self.attach_all()
        listener = TcpListener(self, port, backlog)
        self._listeners[port] = listener
        return listener

    # -- active open -------------------------------------------------------------
    def connect(
        self, peer: "Host", port: int, network: Optional[Network] = None
    ) -> "SimEvent":
        """Open a connection to ``peer:port``.

        Returns an event that succeeds with the established
        :class:`TcpConnection` after one handshake round-trip, or fails with
        :class:`TcpError` if nobody listens on the port.
        """
        network = network or self._default_network_to(peer)
        self.attach(network)
        conn = TcpConnection(
            stack=self,
            network=network,
            peer_host=peer,
            local_port=next(self._ephemeral_ports),
            remote_port=port,
        )
        self._connections[conn.conn_id] = conn
        done = self.sim.event(name=f"connect({self.host.name}->{peer.name}:{port})")
        conn._connect_event = done
        network.transmit(
            self.host,
            peer,
            b"SYN",
            channel=(CH_SYN, port),
            send_cost=self.host.cpu.syscall_overhead,
            meta={"client_conn": conn.conn_id, "client_port": conn.local_port},
        )
        return done

    # -- demultiplexing -----------------------------------------------------------
    def _handle_delivery(self, delivery: Delivery) -> None:
        channel = delivery.frame.channel
        if not isinstance(channel, tuple) or len(channel) != 2:
            delivery.frame.network.record_drop(delivery.frame, "tcp-bad-channel")
            return
        kind, key = channel
        if kind == CH_SYN:
            self._handle_syn(key, delivery)
        elif kind == CH_SYNACK:
            self._handle_synack(key, delivery)
        elif kind == CH_DATA:
            conn = self._connections.get(key)
            if conn is not None:
                conn._on_segment(delivery)
            else:
                delivery.frame.network.record_drop(delivery.frame, "tcp-no-conn")
        elif kind == CH_FIN:
            conn = self._connections.get(key)
            if conn is not None:
                conn._on_fin(delivery)
        else:
            delivery.frame.network.record_drop(delivery.frame, "tcp-unknown")

    def _handle_syn(self, port: int, delivery: Delivery) -> None:
        listener = self._listeners.get(port)
        frame = delivery.frame
        client_conn_id = frame.meta["client_conn"]
        if listener is None or listener.is_full():
            # RST: tell the client the connection was refused.
            frame.network.transmit(
                self.host,
                frame.src,
                b"RST",
                channel=(CH_SYNACK, client_conn_id),
                send_cost=self.host.cpu.syscall_overhead,
                meta={"refused": True},
            )
            return
        conn = TcpConnection(
            stack=self,
            network=frame.network,
            peer_host=frame.src,
            local_port=port,
            remote_port=frame.meta["client_port"],
        )
        conn.peer_conn_id = client_conn_id
        conn.established = True
        self._connections[conn.conn_id] = conn
        if self.sim.telemetry is not None:
            self.sim.telemetry.emit(
                "flow.open",
                flow=conn.flow_id,
                src=self.host.name,
                dst=frame.src.name,
                port=port,
                role="server",
            )
        frame.network.transmit(
            self.host,
            frame.src,
            b"SYNACK",
            channel=(CH_SYNACK, client_conn_id),
            send_cost=self.host.cpu.syscall_overhead,
            meta={"server_conn": conn.conn_id},
        )
        listener._enqueue(conn, delivery)

    def _handle_synack(self, client_conn_id: int, delivery: Delivery) -> None:
        conn = self._connections.get(client_conn_id)
        if conn is None:
            return
        frame = delivery.frame
        done = conn._connect_event
        conn._connect_event = None
        if frame.meta.get("refused"):
            self._connections.pop(client_conn_id, None)
            if done is not None and not done.triggered:
                done.fail(TcpError(f"connection refused by {frame.src.name}:{conn.remote_port}"))
            return
        conn.peer_conn_id = frame.meta["server_conn"]
        conn.established = True
        if self.sim.telemetry is not None:
            self.sim.telemetry.emit(
                "flow.open",
                flow=conn.flow_id,
                src=self.host.name,
                dst=frame.src.name,
                port=conn.remote_port,
                role="client",
            )
        delivery.cost += self.host.cpu.syscall_overhead
        if done is not None and not done.triggered:
            delivery.complete_into(done, conn)

    def connections(self) -> List["TcpConnection"]:
        """The stack's open connections (both roles), in creation order."""
        return list(self._connections.values())

    def _unregister(self, conn: "TcpConnection") -> None:
        self._connections.pop(conn.conn_id, None)

    def new_conn_id(self) -> int:
        return next(self._conn_ids)


class TcpListener:
    """A listening socket: queue of established connections plus accept events."""

    def __init__(self, stack: TcpStack, port: int, backlog: int):
        self.stack = stack
        self.port = port
        self.backlog = backlog
        self._ready: List[TcpConnection] = []
        self._waiters: List = []
        self._accept_callback: Optional[Callable[["TcpConnection"], None]] = None
        self.closed = False

    def is_full(self) -> bool:
        return len(self._ready) >= self.backlog

    def set_accept_callback(self, fn: Callable[["TcpConnection"], None]) -> None:
        """Callback mode used by SysIO: invoked for every incoming connection."""
        self._accept_callback = fn
        while self._ready:
            fn(self._ready.pop(0))

    def accept(self) -> "SimEvent":
        """Event mode: succeeds with the next established connection."""
        ev = self.stack.sim.event(name=f"accept(:{self.port})")
        if self.closed:
            ev.fail(TcpError("listener closed"))
        elif self._ready:
            ev.succeed(self._ready.pop(0))
        else:
            self._waiters.append(ev)
        return ev

    def _enqueue(self, conn: "TcpConnection", delivery: Delivery) -> None:
        if self._waiters:
            delivery.complete_into(self._waiters.pop(0), conn)
        elif self._accept_callback is not None:
            self._accept_callback(conn)
        else:
            self._ready.append(conn)

    def close(self) -> None:
        """Stop listening: the port takes no more connections, an accept
        still waiting or posted later fails, and the connections established
        but not accepted yet are closed (their peers see the FIN)."""
        self.closed = True
        if self.stack._listeners.get(self.port) is self:  # not a new listener's
            del self.stack._listeners[self.port]
        waiters, self._waiters = self._waiters, []
        for ev in waiters:
            ev.fail(TcpError("listener closed"))
        ready, self._ready = self._ready, []
        for conn in ready:
            conn.close()


class TcpConnection(BufferedConnection):
    """One established (or connecting) TCP endpoint; the read surface is
    :class:`BufferedConnection`'s, over ``self.buffer`` (SysIO passes
    ``charge`` to delay a read's completion by its dispatch cost)."""

    def __init__(
        self,
        stack: TcpStack,
        network: Network,
        peer_host: "Host",
        local_port: int,
        remote_port: int,
    ):
        self.stack = stack
        self.sim = stack.sim
        self.network = network
        self.host = stack.host
        self.peer_host = peer_host
        self.local_port = local_port
        self.remote_port = remote_port
        self.conn_id = stack.new_conn_id()
        # telemetry flow identity: per-host conn_ids are deterministic
        # across runs, fidelities and partitionings, so this labels the
        # same logical flow in every variant of a seeded scenario
        self.flow_id = f"{self.host.name}#{self.conn_id}"
        self.peer_conn_id: Optional[int] = None
        self.established = False
        self.closed = False
        self._connect_event: Optional["SimEvent"] = None

        # NOTE: CPython keeps an instance's attributes in the compact
        # shared-key layout only up to 29 of them (beyond that every
        # connection carries a private 1.5 KB dict): the MSS is read off
        # ``network.mtu`` instead of being a thirtieth.
        self.cwnd = stack.model.initial_cwnd(network.mtu)
        self.ssthresh = stack.model.initial_ssthresh
        #: the seed of this connection's loss stream until its first draw,
        #: its ``random.Random`` from then on: a loss-free link never draws
        self._rng = (network.rng.randint(0, 1 << 30) << 8) ^ self.conn_id

        self._sendq: Deque[List] = deque()  # entries: [memoryview, offset, done_event, total]
        #: the ``_pump`` timer while the flow is pumping (pending, or the
        #: one executing), None once the queue has drained: a fluid plan
        #: covering this flow's NIC cancels the pending timer and lays the
        #: flow's rounds out itself
        self._pump_handle = None
        self.buffer = StreamBuffer(self.sim, error=TcpError)

        self.bytes_sent = 0
        self.bytes_received = 0
        self.retransmitted_bytes = 0
        self.rounds = 0
        # fidelity controller (hybrid mode only): takes over the pump for
        # as long as the flow is eligible.
        policy = stack.fluid_policy
        self._fluid = FluidController(self, policy) if policy is not None else None
        # receive-side cursor serializing segment appends: a later smaller
        # segment's cheaper kernel-side processing must never let its bytes
        # overtake an earlier larger one — this is a byte stream.
        self._last_rx_ready = 0.0
        #: the batches fluid plans have committed towards this endpoint and
        #: not handed over yet, oldest first, each as ``(arrival, ready,
        #: plan, share)`` with the times of its last round.  A plan delivers
        #: its rounds in one batch, so nothing advances the cursor at their
        #: arrivals the way ``_on_segment`` would have; whatever arrives
        #: after them settles them first (frames still in flight from before
        #: the plan arrive earlier, and must not see them).
        self._rx_batches: Optional[List[tuple]] = None

    # -- introspection --------------------------------------------------------
    @property
    def rtt(self) -> float:
        return 2.0 * self.network.latency

    @property
    def fluid(self) -> Optional[FluidController]:
        """The flow's fidelity controller (None at packet fidelity)."""
        return self._fluid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TcpConnection #{self.conn_id} {self.host.name}:{self.local_port}"
            f"->{self.peer_host.name}:{self.remote_port} cwnd={self.cwnd}>"
        )

    # -- sending ------------------------------------------------------------------
    def send(self, data: bytes, done: Optional["SimEvent"] = None) -> "SimEvent":
        """Queue ``data`` on the stream.

        The returned event — ``done``, the caller's own operation, when one
        is handed down — succeeds (with the byte count) when the last byte
        of this call has been delivered into the peer's receive buffer.
        """
        if self.closed:
            raise TcpError("send() on closed connection")
        if not self.established:
            raise TcpError("send() before the connection is established")
        if done is None:
            done = self.sim.event(name="tcp-send")
        if len(data) == 0:
            done.succeed(0)
            return done
        # immutable payloads are aliased, not copied (the queue only reads);
        # anything else is snapshotted
        data = immutable(data)
        if self._pump_handle is not None and self._fluid is not None:
            self._fluid.on_send()
        if isinstance(data, Gather):
            # one send: the parts queue back to back, the last one carries
            # the call's completion (its last byte is the send's last byte)
            for part in data.parts[:-1]:
                self._sendq.append([memoryview(part), 0, None, len(part)])
            self._sendq.append([memoryview(data.parts[-1]), 0, done, len(data)])
        else:
            self._sendq.append([memoryview(data), 0, done, len(data)])
        if self.sim.telemetry is not None:
            self.sim.telemetry.emit("flow.send", flow=self.flow_id, nbytes=len(data))
        if self._pump_handle is None:
            if self._fluid is not None:
                self._fluid.on_join()
            # Charge the send()-side kernel crossing and user->kernel copy once
            # per send call; per-burst wire costs are handled by the pump.
            cpu = self.host.cpu
            cost = cpu.syscall_overhead + len(data) / cpu.memcpy_bandwidth
            self._pump_handle = self.sim.call_later(cost, self._pump)
        return done

    def _pump(self) -> None:
        if self.closed or not self._sendq:
            self._pump_handle = None
            if self._fluid is not None:
                self._fluid.on_drain()
            return
        if self._fluid is None or not self._fluid.pump():
            self._packet_round()

    def _gather_window(self, window: int):
        """Take up to one window of bytes off the send queue head.

        Returns ``(parts, attempted, finishing)``: zero-copy slices (joined
        at most once downstream), the byte count, and the queue entries
        (``[view, offset, done_event, total]``) of the sends fully consumed
        by this window; ``finishing[i]`` is the entry ``parts[i]`` came from.
        """
        parts: List[memoryview] = []
        attempted = 0
        finishing: List[List] = []
        while self._sendq and attempted < window:
            entry = self._sendq[0]
            view, offset = entry[0], entry[1]
            take = min(window - attempted, len(view) - offset)
            parts.append(view[offset : offset + take])
            entry[1] = offset + take
            attempted += take
            if entry[1] >= len(view):
                finishing.append(self._sendq.popleft())
        return parts, attempted, finishing

    def _packet_round(self) -> None:
        """Execute one full-fidelity burst round."""
        window = min(self.cwnd, self.stack.model.receive_window)
        parts, attempted, finishing = self._gather_window(window)
        npkts = self.network.packets_for(attempted)
        lost_pkts = self._draw_losses(npkts)
        delivered = attempted if lost_pkts == 0 else max(
            0, attempted - lost_pkts * self.network.mtu
        )
        self.rounds += 1
        probe = self.network.probe
        if npkts and probe is not None:
            # Surface the window model's internal loss draw to the link's
            # passive probe: it otherwise never sees TCP losses (the model
            # absorbs them instead of dropping frames), so passive WAN loss
            # estimates — and the method parameters derived from them — read
            # zero on TCP-carried hops.  Zero-loss bursts are reported too:
            # they are the samples that gate estimator readiness on lossless
            # links and that decay the windowed loss estimate after a
            # degraded link recovers.
            probe.burst(npkts, lost_pkts, attempted)

        burst = parts[0] if len(parts) == 1 else memoryview(b"".join(parts))
        if delivered > 0:
            payload = burst if delivered == attempted else burst[:delivered]
            frame = self.network.transmit(
                self.host,
                self.peer_host,
                payload,
                channel=(CH_DATA, self.peer_conn_id),
                # tcp_data tags the frame for the passive probe: its loss
                # verdict travels in the burst's report, so the frame
                # itself must not count as a loss sample.
                meta={"seq": self.bytes_sent, "tcp_data": True},
            )
            arrival = frame.meta["arrival"]
            self.bytes_sent += delivered
        else:
            arrival = None

        undelivered = attempted - delivered
        if undelivered > 0:
            self.retransmitted_bytes += undelivered
            # Put the unsent suffix back at the head of the queue, preserving
            # per-send completion bookkeeping.
            leftover = burst[delivered:]
            requeue = [leftover, 0, None, len(leftover)]
            self._sendq.appendleft(requeue)
            # Completion events for sends whose tail was cut must be deferred:
            # move them onto the requeued entry.
            if finishing:
                requeue[2] = finishing[-1][2]
                finishing = finishing[:-1]

        for _view, _offset, done, total in finishing:
            if done is None or done.triggered:
                continue
            if arrival is not None:
                self.sim.call_at(arrival, self._complete_send, done, total)
            else:  # pragma: no cover - whole burst lost and nothing delivered
                self._sendq.append([memoryview(b""), 0, done, total])

        self._update_window(lost_pkts, delivered)
        if self.sim.telemetry is not None:
            self.sim.telemetry.emit(
                "flow.round",
                flow=self.flow_id,
                nbytes=attempted,
                lost=lost_pkts,
                cwnd=self.cwnd,
            )

        serialization = self.network.serialization_time(attempted) if attempted else 0.0
        if self._sendq:
            if delivered == 0:
                wait = self.stack.model.rto_rtts * self.rtt
            else:
                wait = max(self.rtt, serialization)
            # Never pump faster than the NIC can drain (other connections on
            # the same host share the wire).
            nic = self.network.nic_of(self.host)
            wait = max(wait, nic.tx_free_at - self.sim.now)
            self._pump_handle = self.sim.call_later(wait, self._pump)
        else:
            self._pump_handle = None
            if self._fluid is not None:
                self._fluid.on_drain()

    def _complete_send(self, done: "SimEvent", total: int) -> None:
        """Fire a send's completion event at its last byte's arrival, in
        this timer's own slot.

        The single convergence point of both data paths (packet round and
        fluid plan), which is what makes the emitted ``flow.complete``
        instants float-identical across fidelities."""
        if not done._triggered:
            tele = self.sim.telemetry
            if tele is not None:
                tele.emit("flow.complete", flow=self.flow_id, nbytes=total)
            done.fire(total)

    def _draw_losses(self, npkts: int) -> int:
        p = self.network.loss_rate
        if p <= 0.0 or npkts == 0:
            return 0
        rng = self._rng
        if rng.__class__ is int:  # still the seed (no call: every lossy round tests it)
            rng = self._rng = random.Random(rng)
        lost = 0
        for _ in range(npkts):
            if rng.random() < p:
                lost += 1
        return lost

    def _update_window(self, lost_pkts: int, delivered: int) -> None:
        """The window recurrence after a round: a loss halves it (or, when
        nothing got through, a retransmission timeout resets it), anything
        else is :meth:`TcpModel.grown_window` (which leaves ``ssthresh``
        alone)."""
        mss = self.network.mtu
        model = self.stack.model
        if lost_pkts > 0:
            self.ssthresh = max(self.cwnd // 2, 2 * mss)
            # a retransmission timeout (nothing got through) goes back to one
            # segment and slow start again
            cwnd = model.min_cwnd(mss) if delivered == 0 else self.ssthresh
            self.cwnd = min(max(cwnd, model.min_cwnd(mss)), model.receive_window)
        else:
            self.cwnd = model.grown_window(self.cwnd, delivered, self.ssthresh, mss)

    # -- receiving -----------------------------------------------------------------
    def _on_segment(self, delivery: Delivery) -> None:
        cpu = self.host.cpu
        delivery.cost += cpu.syscall_overhead
        delivery.cost += delivery.frame.nbytes / cpu.memcpy_bandwidth
        self._enqueue_rx(delivery.arrived_at, delivery.ready_time(), delivery.payload)

    def _enqueue_rx(self, arrived_at: float, ready: float, payload) -> None:
        """The arrival clamp, its one copy (a data frame, or a round of a
        dissolved fluid batch): enqueue the bytes once the kernel-side
        processing time has elapsed, behind whatever arrived before."""
        if self._rx_batches is not None:
            self._settle_rx_batches(arrived_at)
        if ready < self._last_rx_ready:
            ready = self._last_rx_ready
        self._last_rx_ready = ready
        self.sim.call_at(ready, self._append_rx, payload)

    def _settle_rx_batches(self, now: float) -> None:
        """Something this flow sent after its batched rounds arrives: advance
        the receive cursor over the rounds that arrived before it.

        Normally that is all of them.  When the latency dropped in between,
        the newcomer (typically a FIN) has overtaken the tail of a batch:
        the batch is dissolved, so the peer holds exactly the rounds the
        packet model would have delivered when the newcomer is processed."""
        batches, self._rx_batches = self._rx_batches, None
        for arrival, ready, plan, share in batches:
            if arrival > now:
                plan.dissolve(share, now)
            elif ready > self._last_rx_ready:
                self._last_rx_ready = ready

    def _append_rx(self, payload: bytes) -> None:
        self.bytes_received += len(payload)
        self.buffer.append(payload)

    def _append_rx_parts(self, parts) -> None:
        """Batched arrival (a fluid epoch's rounds): one wake-up for all."""
        self.bytes_received += sum(map(len, parts))
        self.buffer.extend(parts)

    def _on_fin(self, delivery: Delivery) -> None:
        # the close must not overtake data segments still being processed
        if self._rx_batches is not None:
            self._settle_rx_batches(delivery.arrived_at)
        self.sim.call_at(max(delivery.ready_time(), self._last_rx_ready), self._do_close_passive)

    def _do_close_passive(self) -> None:
        if self.closed:
            return
        self.closed = True
        tele = self.sim.telemetry
        if tele is not None:
            tele.emit(
                "flow.close",
                flow=self.flow_id,
                sent=self.bytes_sent,
                received=self.bytes_received,
            )
        self.buffer.close()

    # -- teardown -----------------------------------------------------------------
    def _cut_plans(self) -> None:
        """An active close ends the fluid plans of both directions, whatever
        this stack's fidelity (each sender's decides whether it plans).  This
        flow's pump stops at its next turn; the peer's goes on until the FIN
        reaches it, but round by round, into the void, this stack dropping
        what arrives.  Both plans are cut (a cut is exact at any instant) and
        the batches pending towards this endpoint dissolved, so that its
        reader is handed exactly what the packet model had delivered."""
        if self._fluid is not None and self._fluid._plan is not None:
            self._fluid._plan.cut("close")
        stack = self.peer_host.get_service(SERVICE_KEY)
        sender = stack._connections.get(self.peer_conn_id) if stack is not None else None
        if sender is not None and sender._fluid is not None and sender._fluid._plan is not None:
            sender._fluid._plan.cut("peer-close")
        if self._rx_batches is not None:
            batches, self._rx_batches = self._rx_batches, None
            for _arrival, _ready, plan, share in batches:
                plan.dissolve(share, self.sim.now)

    def close(self) -> None:
        """Active close: notify the peer, fail any pending reads there."""
        if self.closed:
            return
        self.closed = True
        self._cut_plans()
        tele = self.sim.telemetry
        if tele is not None:
            tele.emit(
                "flow.close",
                flow=self.flow_id,
                sent=self.bytes_sent,
                received=self.bytes_received,
            )
        if self.established and self.peer_conn_id is not None:
            self.network.transmit(
                self.host,
                self.peer_host,
                b"FIN",
                channel=(CH_FIN, self.peer_conn_id),
                send_cost=self.host.cpu.syscall_overhead,
            )
        self.stack._unregister(self)
        self.buffer.set_close_callback(None)  # the close callback is for the peer's FIN
        self.buffer.close()
