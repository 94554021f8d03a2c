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
from operator import itemgetter
from typing import Callable, Dict, List, Optional

from repro.simnet.buffers import BufferedConnection, StreamBuffer
from repro.simnet.cost import MICROSECOND, split_even
from repro.simnet.engine import SimEvent
from repro.simnet.host import Host
from repro.arbitration.sysio import SysIO, SysSocket
from repro.abstraction.drivers import SysIOVLinkDriver
from repro.abstraction.records import no_body, read_hello, read_records

_HELLO = struct.Struct("!QHH")      # session id, stream index, total streams
_RECORD = struct.Struct("!QHI")     # record id, slice index, slice length
_slice_len = itemgetter(2)

#: striping / reassembly software cost per record and per side.
STRIPING_OVERHEAD = 1.5 * MICROSECOND


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
        self._next_record = 0
        #: record id -> its slices, until every member delivered its own
        self._slices: Dict[int, List] = {}
        #: batches of slices read off the members, not reassembled yet, and
        #: whether a member closed meanwhile (see _on_member_closed)
        self._reassembling = 0
        self._closed_meanwhile = False
        self.closed = False
        self.bytes_sent = 0

    # -- driver-connection interface ------------------------------------------------
    def write(self, data: bytes, done: Optional[SimEvent] = None) -> SimEvent:
        if self.closed:
            raise ConnectionError("write() on closed parallel-streams connection")
        if not self.established:
            raise ConnectionError("parallel-streams connection not fully established")
        record_id = self._next_record
        self._next_record += 1
        data = bytes(data)  # striping slices a contiguous record
        self.bytes_sent += len(data)
        events = []
        offset = 0
        for index, length in enumerate(split_even(len(data), self.total_streams)):
            frame = _RECORD.pack(record_id, index, length) + data[offset : offset + length]
            offset += length
            ev = self.sim.event(name=f"pstream-write({index})")
            self.sim.call_later(
                STRIPING_OVERHEAD, self._deferred_write, self.members[index], frame, ev
            )
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

    # -- receive path ------------------------------------------------------------------
    def _attach_member(self, index: int, sock: SysSocket) -> None:
        self.members[index] = sock
        sock.set_data_callback(self._on_member_data)
        sock.set_close_callback(self._on_member_closed)

    def _on_member_data(self, sock: SysSocket) -> None:
        slices = read_records(sock, _RECORD, _slice_len)
        if slices:
            self._reassembling += 1
            self.sim.call_later(STRIPING_OVERHEAD, self._reassemble, slices)

    def _on_member_closed(self, _sock: Optional[SysSocket] = None) -> None:
        """Nothing more arrives once every member closed: after the slices
        already read off them, the link's reads see the close."""
        if self._reassembling:
            self._closed_meanwhile = True  # _reassemble calls back
        elif all(m is not None and m.closed for m in self.members):
            self.buffer.close()

    def _reassemble(self, slices: list) -> None:
        """File each slice under its record and release a complete record.

        Records complete in order: every member carries its slices in record
        order, so record ``r``'s last slice is filed before ``r + 1``'s."""
        self._reassembling -= 1
        for (record_id, index, _length), payload in slices:
            parts = self._slices.setdefault(record_id, [None] * self.total_streams)
            parts[index] = payload
            if all(part is not None for part in parts):
                del self._slices[record_id]
                self.buffer.append(b"".join(map(bytes, parts)))
        if self._closed_meanwhile and not self._reassembling:
            self._closed_meanwhile = False
            self._on_member_closed()

    @property
    def established(self) -> bool:
        return all(m is not None for m in self.members)


class ParallelStreamsVLinkDriver(SysIOVLinkDriver):
    """The ``parallel_streams`` VLink driver (N SysIO sockets per link)."""

    name = "parallel_streams"
    PORT_OFFSET = 100000

    def __init__(self, sysio: SysIO, streams: int = 4):
        super().__init__(sysio)
        if streams < 1:
            raise ValueError("streams must be >= 1")
        self.streams = streams
        #: accepted sessions some of whose members have not attached yet
        self._sessions: Dict[int, ParallelStreamConnection] = {}
        self._next_session = (hash(self.host.name) & 0xFFFF) << 16

    # -- server side -----------------------------------------------------------------
    def _wrap(self, sock: SysSocket, ready: Callable, fail: Optional[Callable]) -> None:
        """The first bytes on each member socket are its hello; the
        connection surfaces once its last member attached."""

        def attach(s: SysSocket, hello: tuple, _body) -> None:
            session_id, index, total = hello
            conn = self._sessions.get(session_id)
            if conn is None:
                conn = ParallelStreamConnection(self, session_id, total, peer_name=s.peer_name)
                self._sessions[session_id] = conn
            conn._attach_member(index, s)
            if conn.established:
                del self._sessions[session_id]
                ready(conn)

        read_hello(sock, _HELLO, no_body, attach)

    # -- client side ------------------------------------------------------------------
    def connect(self, dst_host: Host, port: int, network=None) -> SimEvent:
        return self._connect(dst_host, port, self.streams, network)

    def connect_with_params(
        self, dst_host: Host, port: int, params: Optional[Dict[str, float]] = None, network=None
    ) -> SimEvent:
        """Per-connection stream fan-out: the selector derives ``streams``
        from the measured loss / bandwidth-delay product of the pinned hop
        (a lossier or fatter pipe profits from more member sockets)."""
        streams = int((params or {}).get("streams", self.streams))
        return self._connect(dst_host, port, max(1, min(16, streams)), network)

    def _connect(self, dst_host: Host, port: int, streams: int, network) -> SimEvent:
        done = self.sim.event(name=f"pstream-connect({dst_host.name}:{port})")
        session_id = self._next_session
        self._next_session += 1
        conn = ParallelStreamConnection(self, session_id, streams, peer_name=dst_host.name)

        def _member_connected(index: int, ev) -> None:
            if not ev.ok:
                if not done.triggered:
                    done.fail(ev.value)
                return
            sock: SysSocket = ev.value
            sock.write(_HELLO.pack(session_id, index, streams))
            conn._attach_member(index, sock)
            if conn.established and not done.triggered:
                done.succeed(conn)

        for index in range(streams):
            self._open(dst_host, port, network).add_callback(
                lambda ev, i=index: _member_connected(i, ev)
            )
        return done
