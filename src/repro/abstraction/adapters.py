"""Circuit adapters: incarnations of the parallel abstract interface.

Adapters are either *straight* (parallel abstraction on a parallel network:
:class:`MadIOCircuitAdapter`) or *cross-paradigm* (parallel abstraction on a
distributed network: :class:`SysIOCircuitAdapter` and
:class:`VLinkCircuitAdapter`, the latter reusing the alternate VLink method
drivers such as parallel streams, AdOC or VRP — §4.2: "Circuit adapters have
been implemented on top of MadIO, SysIO, loopback and VLink (to use the
alternates VLink adapters)").

Cross-paradigm adapters must turn the message-oriented Circuit traffic into
byte streams: each message is framed as ``(src_rank, length, payload)`` and
the framing/parsing work is charged as the cross-paradigm translation cost.

Every adapter receives the packed message as the
:class:`~repro.madeleine.message.SegmentGather` ``Circuit.post`` froze it
into and hands it down by reference: as the MadIO body, or spliced behind
the stream frame header in one gather write.
"""

from __future__ import annotations

import struct
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.simnet.buffers import Gather
from repro.simnet.engine import SimEvent
from repro.simnet.host import Host
from repro.simnet.network import Delivery, Network
from repro.arbitration.madio import MadIO, MadIOChannel
from repro.abstraction.common import (
    AbstractionError,
    CROSS_PARADIGM_FRAMING_OVERHEAD,
    SoftDelivery,
)
from repro.abstraction.circuit import Circuit
from repro.abstraction.drivers import SysIOVLinkDriver
from repro.abstraction.records import Serializer, read_records
from repro.abstraction.selector import RouteChoice
from repro.abstraction.vlink import VLinkManager


class CircuitAdapter:
    """Base class for per-circuit adapters (one instance per method used)."""

    name = "abstract"

    def __init__(self, circuit: Circuit, route: RouteChoice):
        self.circuit = circuit
        self.route = route
        self.host = circuit.host
        self.sim = circuit.sim
        self.messages_sent = 0
        self.bytes_sent = 0

    def start(self) -> None:
        """Open whatever channels / listeners the adapter needs."""

    def send(
        self, dst_rank: int, payload: bytes, cost: float, done: Optional[SimEvent] = None
    ) -> SimEvent:
        """Transmit one fully packed Circuit message after ``cost`` seconds
        of send-side software cost; completes ``done`` (the caller's own
        operation) when given, a new event otherwise."""
        raise NotImplementedError

    def _account(self, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} for circuit {self.circuit.name!r}>"


# ---------------------------------------------------------------------------
# Straight adapter: Circuit over MadIO (parallel over parallel)
# ---------------------------------------------------------------------------


class MadIOCircuitAdapter(CircuitAdapter):
    """The straight parallel path: Circuit messages ride MadIO logical channels."""

    name = "madio"

    def __init__(self, circuit: Circuit, route: RouteChoice):
        super().__init__(circuit, route)
        self.madio: MadIO = self.host.require_service("madio")
        if route.network is None:
            raise AbstractionError("MadIO circuit adapter needs a parallel network")
        self.network: Network = route.network
        self.channel: Optional[MadIOChannel] = None

    def start(self) -> None:
        self.channel = self.madio.open_logical_channel(
            f"circuit:{self.circuit.name}", self.network, self.circuit.group
        )
        self.channel.set_receive_callback(self._on_message)

    def send(
        self, dst_rank: int, payload: bytes, cost: float, done: Optional[SimEvent] = None
    ) -> SimEvent:
        if self.channel is None:
            raise AbstractionError("adapter not started")
        self._account(len(payload))
        # The packed message travels as the MadIO body (one CHEAPER segment
        # whose data is the message's own segment gather), and the (empty)
        # header rides the combined express segment, so no extra
        # per-segment cost is paid.
        return self.channel.send(dst_rank, b"", payload, extra_cost=cost, done=done)

    def _on_message(self, src_rank: int, header: bytes, body: bytes, delivery: Delivery) -> None:
        self.circuit._deliver(src_rank, body, delivery)


# ---------------------------------------------------------------------------
# Cross-paradigm adapters: Circuit over byte streams
# ---------------------------------------------------------------------------

_FRAME = struct.Struct("!II")  # src_rank, payload length
#: a stream's first record is its hello: the tag where a frame has its
#: source rank, the sender's rank where a frame has its length, no payload
_HELLO_TAG = int.from_bytes(b"CIRC", "big")


def _frame_len(fields: Tuple[int, int]) -> int:
    return 0 if fields[0] == _HELLO_TAG else fields[1]


class StreamMeshCircuitAdapter(CircuitAdapter):
    """Common machinery for Circuit over connected byte streams.

    A lazily built mesh: the first message towards a rank opens a stream to
    that rank's circuit port; incoming streams are identified by a small
    hello record carrying the sender's rank.  Messages are length-prefixed.
    A stream is anything with the driver-connection read surface (a SysIO
    socket, a VLink, an adaptive session).
    """

    name = "stream-mesh"

    def __init__(self, circuit: Circuit, route: RouteChoice):
        super().__init__(circuit, route)
        self._out_streams: Dict[int, object] = {}
        self._connecting: Dict[int, List[Tuple[bytes, float, SimEvent]]] = {}
        #: the sender's rank of each incoming stream, once its hello arrived
        self._peers: Dict[int, int] = {}
        # per-destination cursor: a later small message with a cheaper
        # send-side cost must never overtake an earlier large one
        self._cursors: Dict[int, Serializer] = defaultdict(lambda: Serializer(self.sim))

    # subclass hooks ------------------------------------------------------------
    def _listen(self, port: int, on_incoming: Callable) -> None:
        raise NotImplementedError

    def _connect(self, dst_host: Host, port: int) -> SimEvent:
        raise NotImplementedError

    # lifecycle ---------------------------------------------------------------------
    def start(self) -> None:
        self._listen(self.circuit.port, self._on_incoming_stream)

    # send path ---------------------------------------------------------------------
    def send(
        self, dst_rank: int, payload: bytes, cost: float, done: Optional[SimEvent] = None
    ) -> SimEvent:
        cost += CROSS_PARADIGM_FRAMING_OVERHEAD
        self._account(len(payload))
        if done is None:
            done = self.sim.event(name="circuit-stream-send")
        stream = self._out_streams.get(dst_rank)
        if stream is not None:
            self._send_on(stream, dst_rank, payload, cost, done)
            return done
        pending = self._connecting.get(dst_rank)
        if pending is not None:
            pending.append((payload, cost, done))
            return done
        self._connecting[dst_rank] = [(payload, cost, done)]
        dst_host = self.circuit.host_of(dst_rank)
        attempt = self._connect(dst_host, self.circuit.port)

        def _connected(ev):
            queued = self._connecting.pop(dst_rank, [])
            if not ev.ok:
                for _, _, d in queued:
                    if not d.triggered:
                        d.fail(ev.value)
                return
            stream = ev.value
            self._out_streams[dst_rank] = stream
            stream.set_data_callback(self._on_stream_data)
            stream.write(_FRAME.pack(_HELLO_TAG, self.circuit.rank))
            for p, c, d in queued:
                self._send_on(stream, dst_rank, p, c, d)

        attempt.add_callback(_connected)
        return done

    def _send_on(self, stream, dst_rank: int, payload: bytes, cost: float, done: SimEvent) -> None:
        frame = Gather((_FRAME.pack(self.circuit.rank, len(payload)), payload))
        # the framing cost delays the write; the stream completes the send's own event
        self._cursors[dst_rank].after(cost, stream.write, frame, done)

    # receive path ---------------------------------------------------------------------
    def _on_incoming_stream(self, stream, peer_host) -> None:
        stream.set_data_callback(self._on_stream_data)
        # data may already be buffered
        self._on_stream_data(stream)

    def _on_stream_data(self, stream) -> None:
        key = id(stream)
        for (src_rank, length), payload in read_records(stream, _FRAME, _frame_len):
            if src_rank == _HELLO_TAG:
                self._peers[key] = length
                continue
            if key not in self._peers:
                raise AbstractionError("bad circuit stream hello")
            rx = SoftDelivery(self.sim)
            rx.cost += CROSS_PARADIGM_FRAMING_OVERHEAD
            self.circuit._deliver(src_rank, payload, rx)
        # Reuse the reverse direction of an incoming stream when we have no
        # outgoing stream yet (avoids building two sockets per pair).  The
        # peer's parser for that direction has not seen a hello yet, so send
        # ours before any framed message travels back.
        peer = self._peers.get(key)
        if peer is not None and peer not in self._out_streams:
            self._out_streams[peer] = stream
            stream.write(_FRAME.pack(_HELLO_TAG, self.circuit.rank))


class _CircuitPorts(SysIOVLinkDriver):
    """SysIO sockets in the circuits' own port range: the VLink port
    namespace *is* the raw SysIO one, so a mixed group (legs on this adapter
    and on VLink-based ones) must not collide with the VLink listener of the
    circuit port; the method drivers' offsets stay below this one."""

    PORT_OFFSET = 200000


class SysIOCircuitAdapter(StreamMeshCircuitAdapter):
    """Circuit over SysIO arbitrated sockets (cross-paradigm, LAN/WAN)."""

    name = "sysio"

    def __init__(self, circuit: Circuit, route: RouteChoice):
        super().__init__(circuit, route)
        self.ports = _CircuitPorts(self.host.require_service("sysio"), route.network)

    def _listen(self, port: int, on_incoming: Callable) -> None:
        self.ports.listen(port, on_incoming)

    def _connect(self, dst_host: Host, port: int) -> SimEvent:
        return self.ports.connect(dst_host, port)


class VLinkCircuitAdapter(StreamMeshCircuitAdapter):
    """Circuit over VLink — gives the parallel interface access to the
    alternate VLink methods (parallel streams, AdOC, VRP) on WAN links."""

    name = "vlink"

    def __init__(self, circuit: Circuit, route: RouteChoice):
        super().__init__(circuit, route)
        self.vlink_manager: VLinkManager = self.host.require_service("vlink")
        # "vlink:parallel_streams" names the VLink method; plain "vlink"
        # (routed links) leaves it to the pinned route
        self.method: Optional[str] = None
        if route.method.startswith("vlink:"):
            self.method = route.method.split(":", 1)[1]

    def _listen(self, port: int, on_incoming: Callable) -> None:
        listener = self.vlink_manager.listen(port)
        listener.set_accept_callback(lambda link: on_incoming(link, None))

    def _connect(self, dst_host: Host, port: int) -> SimEvent:
        choice = self._choice_for(dst_host)
        route = choice.via if choice is not None else None
        params = dict(choice.params) if choice is not None and choice.params else None
        return self.vlink_manager.connect(
            dst_host, port, method=self.method, route=route, params=params
        )

    def _choice_for(self, dst_host: Host) -> Optional[RouteChoice]:
        """The circuit's route decision towards ``dst_host`` (this adapter
        instance is shared by every rank using the same method, so the
        per-destination pinning lives on the circuit, not the adapter)."""
        try:
            rank = self.circuit.group.index_of(dst_host)
        except ValueError:
            return None
        return self.circuit._routes_by_rank.get(rank)

