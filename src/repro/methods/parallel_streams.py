"""Parallel TCP streams on wide-area networks.

"Over a high-bandwidth high-latency WAN with TCP/IP, each single packet loss
can dramatically lower the bandwidth.  A solution consists in utilizing
multiple sockets in parallel for a single logical link, so as to reduce the
influence of each isolated loss.  This principle of parallel streams is
already used for example in GridFTP." (§3.2)

The driver opens ``streams`` SysIO sockets towards the same port; each
``write`` is striped across them as one *record*: every stream carries a
slice framed with ``(record id, slice index, slice length)``, and the
receive side reassembles records in order before appending to the byte
stream, so the layer above still sees ordered stream semantics.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional

from repro.simnet.buffers import ByteRing
from repro.simnet.cost import MICROSECOND, split_even
from repro.simnet.engine import SimEvent
from repro.simnet.host import Host
from repro.arbitration.sysio import SysIO, SysSocket
from repro.abstraction.drivers import BufferedConnection, StreamBuffer, VLinkDriver

_HELLO = struct.Struct("!QHH")      # session id, stream index, total streams
_RECORD = struct.Struct("!QHI")     # record id, slice index, slice length

#: striping / reassembly software cost per record and per side.
STRIPING_OVERHEAD = 1.5 * MICROSECOND


class _Reassembler:
    """Collects record slices from every member stream, releases records in order."""

    def __init__(self, total_streams: int, sink: StreamBuffer):
        self.total_streams = total_streams
        self.sink = sink
        self._partial: Dict[int, List[Optional[bytes]]] = {}
        self._complete: Dict[int, bytes] = {}
        self._next_record = 0
        self._per_stream = {i: ByteRing() for i in range(total_streams)}

    def feed(self, stream_index: int, data: bytes) -> None:
        ring = self._per_stream[stream_index]
        ring.append(data)
        while True:
            if len(ring) < _RECORD.size:
                break
            record_id, slice_index, length = _RECORD.unpack(ring.peek(_RECORD.size))
            if len(ring) < _RECORD.size + length:
                break
            ring.skip(_RECORD.size)
            self._add_slice(record_id, slice_index, ring.take(length))

    def _add_slice(self, record_id: int, slice_index: int, payload: bytes) -> None:
        slices = self._partial.setdefault(record_id, [None] * self.total_streams)
        slices[slice_index] = payload
        if all(s is not None for s in slices):
            self._complete[record_id] = b"".join(slices)  # type: ignore[arg-type]
            del self._partial[record_id]
            self._release()

    def _release(self) -> None:
        while self._next_record in self._complete:
            self.sink.append(self._complete.pop(self._next_record))
            self._next_record += 1


class ParallelStreamConnection(BufferedConnection):
    """One logical link carried by several member sockets."""

    def __init__(self, driver: "ParallelStreamsVLinkDriver", session_id: int, total_streams: int,
                 peer_name: str = "?"):
        self.driver = driver
        self.sim = driver.sim
        self.session_id = session_id
        self.total_streams = total_streams
        self.peer_name = peer_name
        self.members: List[Optional[SysSocket]] = [None] * total_streams
        self.buffer = StreamBuffer(driver.sim)
        self._reassembler = _Reassembler(total_streams, self.buffer)
        self._next_record = 0
        self.closed = False
        self.bytes_sent = 0

    # -- driver-connection interface ------------------------------------------------
    def write(self, data: bytes, done: Optional[SimEvent] = None) -> SimEvent:
        if self.closed:
            raise ConnectionError("write() on closed parallel-streams connection")
        if any(m is None for m in self.members):
            raise ConnectionError("parallel-streams connection not fully established")
        record_id = self._next_record
        self._next_record += 1
        data = bytes(data)  # striping slices a contiguous record
        self.bytes_sent += len(data)
        slices = split_even(len(data), self.total_streams)
        events = []
        offset = 0
        delay = STRIPING_OVERHEAD
        for index, length in enumerate(slices):
            chunk = data[offset : offset + length]
            offset += length
            frame = _RECORD.pack(record_id, index, length) + chunk
            sock = self.members[index]
            ev = self.sim.event(name=f"pstream-write({index})")
            self.sim.call_later(delay, self._deferred_write, sock, frame, ev)
            events.append(ev)
        # the one fan-in of the stack: each member socket completes its own
        # slice's event, and the join is the write's completion
        joined = self.sim.all_of(events)
        return joined if done is None else joined.chain(done)

    def _deferred_write(self, sock: SysSocket, frame: bytes, ev: SimEvent) -> None:
        """The striping delay separates write() from the member-socket send;
        a member killed in between (churn tearing the rail down) must fail
        the operation, not unwind the simulator."""
        if self.closed:
            if not ev.triggered:
                ev.fail(ConnectionError("parallel-streams connection closed"))
            return
        try:
            sock.write(frame, ev)
        except Exception as exc:
            if not ev.triggered:
                ev.fail(exc)

    def close(self) -> None:
        self.closed = True
        for sock in self.members:
            if sock is not None:
                sock.close()
        self.buffer.close()

    # -- internal --------------------------------------------------------------------------
    def _attach_member(self, index: int, sock: SysSocket) -> None:
        self.members[index] = sock
        sock.set_data_callback(lambda s, i=index: self._on_member_data(i, s))

    def _on_member_data(self, index: int, sock: SysSocket) -> None:
        data = sock.read_available()
        if data:
            self.sim.call_later(STRIPING_OVERHEAD, self._reassembler.feed, index, data)

    @property
    def established(self) -> bool:
        return all(m is not None for m in self.members)


class ParallelStreamsVLinkDriver(VLinkDriver):
    """The ``parallel_streams`` VLink driver (N SysIO sockets per link)."""

    name = "parallel_streams"

    #: the driver listens on its own SysIO port range so that several
    #: VLink drivers can serve the same logical VLink port side by side.
    PORT_OFFSET = 100000

    def __init__(self, sysio: SysIO, streams: int = 4):
        super().__init__(sysio.host)
        if streams < 1:
            raise ValueError("streams must be >= 1")
        self.sysio = sysio
        self.streams = streams
        self._sessions: Dict[int, ParallelStreamConnection] = {}
        self._next_session = (hash(self.host.name) & 0xFFFF) << 16

    # -- server side -----------------------------------------------------------------
    def listen(self, port: int, on_incoming: Callable) -> None:
        def _accepted(sock: SysSocket) -> None:
            # The first bytes on each member socket carry the hello record.
            def _on_first_data(s: SysSocket) -> None:
                if s.available() < _HELLO.size:
                    return
                hello = s.read_available(_HELLO.size)
                session_id, index, total = _HELLO.unpack(hello)
                conn = self._sessions.get(session_id)
                if conn is None:
                    conn = ParallelStreamConnection(self, session_id, total, peer_name=s.peer_name)
                    self._sessions[session_id] = conn
                conn._attach_member(index, s)
                # surface the connection to VLink once every member arrived
                if conn.established and not getattr(conn, "_announced", False):
                    conn._announced = True
                    on_incoming(conn, None)

            sock.set_data_callback(_on_first_data)
            _on_first_data(sock)

        self.sysio.listen(port + self.PORT_OFFSET, _accepted)

    # -- client side ------------------------------------------------------------------
    def connect(self, dst_host: Host, port: int) -> SimEvent:
        return self._connect(dst_host, port, self.streams)

    def connect_with_params(
        self, dst_host: Host, port: int, params: Optional[Dict[str, float]] = None
    ) -> SimEvent:
        """Per-connection stream fan-out: the selector derives ``streams``
        from the measured loss / bandwidth-delay product of the pinned hop
        (a lossier or fatter pipe profits from more member sockets)."""
        streams = int((params or {}).get("streams", self.streams))
        return self._connect(dst_host, port, max(1, min(16, streams)))

    def _connect(self, dst_host: Host, port: int, streams: int) -> SimEvent:
        done = self.sim.event(name=f"pstream-connect({dst_host.name}:{port})")
        session_id = self._next_session
        self._next_session += 1
        conn = ParallelStreamConnection(self, session_id, streams, peer_name=dst_host.name)
        pending = {"count": 0}

        def _member_connected(index: int, ev) -> None:
            if not ev.ok:
                if not done.triggered:
                    done.fail(ev.value)
                return
            sock: SysSocket = ev.value
            sock.write(_HELLO.pack(session_id, index, streams))
            conn._attach_member(index, sock)
            pending["count"] += 1
            if pending["count"] == streams and not done.triggered:
                done.succeed(conn)

        for index in range(streams):
            self.sysio.connect(dst_host, port + self.PORT_OFFSET).add_callback(
                lambda ev, i=index: _member_connected(i, ev)
            )
        return done

    def reaches(self, dst_host: Host) -> bool:
        return any(
            net.paradigm == "distributed" for net in self.host.shares_network_with(dst_host)
        )
