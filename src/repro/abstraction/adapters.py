"""Circuit adapters: incarnations of the parallel abstract interface.

Adapters are either *straight* (parallel abstraction on a parallel network:
:class:`MadIOCircuitAdapter`) or *cross-paradigm* (parallel abstraction on a
distributed network: :class:`StreamMeshCircuitAdapter`) — §4.2: "Circuit
adapters have been implemented on top of MadIO, SysIO, loopback and VLink
(to use the alternates VLink adapters)".  Every cross-paradigm leg is a
VLink opened on that leg's own route decision: the paper's SysIO adapter is
a VLink over the SysIO driver, and a leg over parallel streams, AdOC, VRP or
a gateway route is a VLink over that method or route.  One stream-mesh
adapter per circuit serves all of them on the circuit's VLink port.

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
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.simnet.buffers import Gather
from repro.simnet.engine import SimEvent
from repro.simnet.network import Delivery, Network
from repro.arbitration.madio import MadIO, MadIOChannel
from repro.abstraction.common import (
    AbstractionError,
    CROSS_PARADIGM_FRAMING_OVERHEAD,
    SoftDelivery,
)
from repro.abstraction.circuit import Circuit
from repro.abstraction.records import Serializer, read_records
from repro.abstraction.selector import Route, RouteChoice
from repro.abstraction.vlink import VLinkManager


class CircuitAdapter:
    """Base class for per-circuit adapters (one instance per adapter class used)."""

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
    """Circuit over connected byte streams: every leg is a VLink.

    A lazily built mesh: the first message towards a rank opens a VLink to
    that rank's circuit port, on the leg's own route decision; incoming
    streams are identified by a small hello record carrying the sender's
    rank.  Messages are length-prefixed.  A stream is anything with the
    driver-connection read surface (a VLink, an adaptive session).
    """

    name = "stream-mesh"

    def __init__(self, circuit: Circuit, route: RouteChoice):
        super().__init__(circuit, route)
        self.vlink_manager: VLinkManager = self.host.require_service("vlink")
        self._out_streams: Dict[int, object] = {}
        self._connecting: Dict[int, List[Tuple[bytes, float, SimEvent]]] = {}
        #: the sender's rank of each incoming stream, once its hello arrived
        self._peers: Dict[int, int] = {}
        # per-destination cursor: a later small message with a cheaper
        # send-side cost must never overtake an earlier large one
        self._cursors: Dict[int, Serializer] = defaultdict(lambda: Serializer(self.sim))

    # transport: VLinks (the adaptive adapter opens adaptive sessions) -----------
    def start(self) -> None:
        self.vlink_manager.listen(self.circuit.port).set_accept_callback(self._on_incoming_stream)

    def _connect(self, dst_rank: int) -> SimEvent:
        """A VLink on the leg's route decision: its pinned route when the leg
        is relayed ("vlink"), else its method ("vlink:adoc" rides the VLink
        method "adoc"), network and parameters."""
        choice = self.circuit.route_for(dst_rank)
        dst_host = self.circuit.host_of(dst_rank)
        if choice.method == "vlink":
            return self.vlink_manager.connect(dst_host, self.circuit.port, route=choice.via)
        hop = replace(choice, method=choice.method.rpartition(":")[2])
        return self.vlink_manager.connect(
            dst_host, self.circuit.port, route=Route(self.host, dst_host, [hop])
        )

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
        attempt = self._connect(dst_rank)

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
    def _on_incoming_stream(self, stream) -> None:
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
