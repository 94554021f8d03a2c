"""VRP: the Variable Reliability Protocol (tunable loss tolerance).

"On slow WAN which suffer from high loss-rate, applications may prefer to
give up reliability against a better bandwidth, but not accept totally
uncontrollable losses.  Such a tunable tradeoff is implemented in VRP, a
protocol with a tunable loss tolerance." (§3.2)  §5 measures it on a
trans-continental link with 5–10 % loss: plain TCP gets 150 KB/s, VRP with a
10 % tolerated loss gets ≈500 KB/s.

Protocol structure reproduced here:

* a small TCP control connection carries connection setup, record
  descriptors and end-of-record summaries — metadata is always reliable;
* record payloads are sent as UDP-like datagrams (``transmit_datagram`` on
  the lossy network), paced at the path rate — losses do NOT trigger
  congestion back-off, which is exactly why VRP keeps its bandwidth where
  TCP collapses;
* when the observed loss for a record exceeds the tolerance, the missing
  fraction (beyond what is tolerated) is retransmitted until the delivered
  fraction meets the target; tolerated holes are zero-filled so the layer
  above still sees a stream of the right length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.simnet.buffers import BufferedConnection, StreamBuffer
from repro.simnet.cost import MICROSECOND
from repro.simnet.engine import SimEvent
from repro.simnet.host import Host
from repro.simnet.network import Delivery, Network
from repro.arbitration.sysio import SysIO, SysSocket
from repro.abstraction.drivers import SysIOVLinkDriver
from repro.abstraction.records import no_body, read_hello, read_records

_CTL_RECORD = struct.Struct("!BQII")   # kind, record id, total length, chunk size
_DATA_HEADER = struct.Struct("!QII")   # record id, offset, length
#: connection hello on the control socket: data channel id, tolerance (ppm).
#: Carrying the tolerance lets the selector tune it per connection from the
#: measured loss of the pinned hop; both directions apply the same value.
_VRP_HELLO = struct.Struct("!QI")

_CTL_NEW_RECORD = 1
_CTL_RECORD_SENT = 2
_CTL_RECORD_DONE = 3
_CTL_NACK = 4

VRP_CALL_OVERHEAD = 4.0 * MICROSECOND


@dataclass
class VrpStats:
    """Per-connection accounting of the reliability trade-off."""

    records: int = 0
    retransmissions: int = 0
    bytes_delivered: int = 0
    bytes_zero_filled: int = 0


class _RecordRx:
    """Receive-side state of one record."""

    def __init__(self, record_id: int, total: int):
        self.record_id = record_id
        self.total = total
        self.data = bytearray(total)
        self.received = 0
        self.sender_finished = False
        self._seen_offsets: set = set()

    def add(self, offset: int, chunk: bytes) -> None:
        self.data[offset : offset + len(chunk)] = chunk
        # retransmitted chunks must not be double-counted
        if offset not in self._seen_offsets:
            self._seen_offsets.add(offset)
            self.received += len(chunk)

    def grow(self, total: int) -> None:
        """The record is ``total`` bytes long (its holes zero-filled)."""
        self.total = total
        self.data.extend(bytes(max(0, total - len(self.data))))


class VrpConnection(BufferedConnection):
    """One VRP logical link (control over TCP, data over lossy datagrams)."""

    def __init__(self, driver: "VrpVLinkDriver", ctl: SysSocket, data_channel_id: int,
                 tolerance: float):
        self.driver = driver
        self.sim = driver.sim
        self.ctl = ctl
        self.network = network = ctl.network
        self.peer_host = ctl.conn.peer_host
        self.peer_name = self.peer_host.name
        self.data_channel_id = data_channel_id
        self.tolerance = tolerance
        self.chunk_size = min(network.mtu, 1400)
        self.buffer = StreamBuffer(driver.sim)
        self.stats = VrpStats()
        self._records_rx: Dict[int, _RecordRx] = {}
        # accepted records held until every earlier record was released: a
        # record delayed by retransmission must not be overtaken by a later
        # record that completed cleanly (VRP is a stream, not a datagram
        # service — same ordering family as the AdOC/GSI codec fixes).
        self._accepted_rx: Dict[int, bytes] = {}
        self._release_next = 0
        self._records_tx: Dict[int, bytes] = {}
        self._pending_writes: Dict[int, SimEvent] = {}
        self._next_record = 0
        self.closed = False
        ctl.set_data_callback(self._on_ctl_data)
        driver._register_data_sink(data_channel_id, self)

    # -- driver-connection interface --------------------------------------------------
    def write(self, data: bytes, done: Optional[SimEvent] = None) -> SimEvent:
        if self.closed:
            raise ConnectionError("write() on closed VRP connection")
        record_id = self._next_record
        self._next_record += 1
        data = bytes(data)
        self._records_tx[record_id] = data
        self.stats.records += 1
        if done is None:
            done = self.sim.event(name="vrp-write")
        self._pending_writes[record_id] = done
        # reliable descriptor first, then paced datagrams
        self.ctl.write(_CTL_RECORD.pack(_CTL_NEW_RECORD, record_id, len(data), self.chunk_size))
        self.sim.call_later(VRP_CALL_OVERHEAD, self._pump_record, record_id, 0)
        return done

    def close(self) -> None:
        self.closed = True
        self.ctl.close()
        self.buffer.close()

    # -- sender side --------------------------------------------------------------------
    def _pump_record(self, record_id: int, offset: int) -> None:
        """Send the next datagram of the record, paced at the path rate."""
        if self.closed:
            return
        data = self._records_tx.get(record_id)
        if data is None:
            return
        if offset >= len(data):
            self.ctl.write(
                _CTL_RECORD.pack(_CTL_RECORD_SENT, record_id, len(data), self.chunk_size)
            )
            return
        chunk = data[offset : offset + self.chunk_size]
        header = _DATA_HEADER.pack(record_id, offset, len(chunk))
        self.network.transmit_datagram(
            self.driver.host,
            self.peer_host,
            header + chunk,
            channel=("vrp-data", self.data_channel_id),
            send_cost=VRP_CALL_OVERHEAD,
        )
        # pace at the wire rate: next datagram when this one has been serialised
        pace = self.network.serialization_time(len(chunk) + _DATA_HEADER.size)
        self.sim.call_later(pace, self._pump_record, record_id, offset + len(chunk))

    def _retransmit(self, record_id: int, missing_bytes: int) -> None:
        """Resend the first ``missing_bytes`` worth of chunks of the record."""
        data = self._records_tx.get(record_id)
        if data is None or missing_bytes <= 0:
            return
        self.stats.retransmissions += 1
        # Simplified selective repeat: resend from the start of the record up
        # to the missing amount (the receiver fills whatever is still absent).
        self.sim.call_later(0.0, self._pump_record, record_id, 0)

    # -- receiver side -----------------------------------------------------------------------
    def _on_datagram(self, delivery: Delivery) -> None:
        payload = delivery.payload
        record_id, offset, length = _DATA_HEADER.unpack_from(payload, 0)
        chunk = payload[_DATA_HEADER.size : _DATA_HEADER.size + length]
        record = self._records_rx.get(record_id)
        if record is None:
            # descriptor may still be in flight on the control connection;
            # create a placeholder sized by what we know so far.
            record = _RecordRx(record_id, offset + length)
            self._records_rx[record_id] = record
        if offset + length > record.total:
            record.grow(offset + length)
        record.add(offset, chunk)
        if record.sender_finished:
            self._maybe_complete(record)

    def _on_ctl_data(self, ctl: SysSocket) -> None:
        for (kind, record_id, total, _chunk_size), _ in read_records(ctl, _CTL_RECORD, no_body):
            if kind == _CTL_NEW_RECORD:
                record = self._records_rx.get(record_id)
                if record is None:
                    self._records_rx[record_id] = _RecordRx(record_id, total)
                else:
                    record.grow(total)
            elif kind == _CTL_RECORD_SENT:
                record = self._records_rx.setdefault(record_id, _RecordRx(record_id, total))
                record.sender_finished = True
                self._maybe_complete(record)
            elif kind == _CTL_NACK:
                self._retransmit(record_id, total)
            elif kind == _CTL_RECORD_DONE:
                done = self._pending_writes.pop(record_id, None)
                self._records_tx.pop(record_id, None)
                if done is not None and not done.triggered:
                    done.succeed(total)

    def _maybe_complete(self, record: _RecordRx) -> None:
        if not record.sender_finished:
            return
        missing = record.total - record.received
        if missing <= record.total * self.tolerance:
            # accept the record: tolerated holes stay zero-filled.  The
            # acknowledgement goes out now (the sender may free its copy),
            # but the payload is only released to the stream in record
            # order.
            self.stats.bytes_delivered += record.received
            self.stats.bytes_zero_filled += missing
            self._accepted_rx[record.record_id] = bytes(record.data[: record.total])
            self._records_rx.pop(record.record_id, None)
            self.ctl.write(
                _CTL_RECORD.pack(_CTL_RECORD_DONE, record.record_id, record.total, 0)
            )
            while self._release_next in self._accepted_rx:
                self.buffer.append(self._accepted_rx.pop(self._release_next))
                self._release_next += 1
        else:
            # too many losses: ask the sender to resend (reliable part of VRP)
            record.sender_finished = False
            self.ctl.write(_CTL_RECORD.pack(_CTL_NACK, record.record_id, missing, 0))


class VrpVLinkDriver(SysIOVLinkDriver):
    """The ``vrp`` VLink driver."""

    name = "vrp"
    PORT_OFFSET = 120000

    def __init__(self, sysio: SysIO, tolerance: float = 0.10):
        super().__init__(sysio)
        if not (0.0 <= tolerance < 1.0):
            raise ValueError("tolerance must be in [0, 1)")
        self.tolerance = tolerance
        self._sinks: Dict[int, VrpConnection] = {}
        self._next_channel = (hash(self.host.name) & 0xFFF) << 16
        self._datagram_handler_installed: Dict[str, bool] = {}

    @property
    def reliable(self) -> bool:
        """Only a zero-tolerance VRP keeps every byte; adaptive rails and
        gateway relays must not ride a driver that surrenders data."""
        return self.tolerance == 0.0

    # -- datagram demultiplexing -------------------------------------------------------
    def _register_data_sink(self, channel_id: int, conn: VrpConnection) -> None:
        self._sinks[channel_id] = conn
        self._install_datagram_tap(conn.network)

    def _install_datagram_tap(self, network: Network) -> None:
        """VRP data rides the same NIC the TCP stack owns; tap its handler."""
        if self._datagram_handler_installed.get(network.name):
            return
        nic = network.nic_of(self.host)
        tcp_handler = nic._receive_handler

        def _handler(delivery: Delivery) -> None:
            channel = delivery.frame.channel
            if isinstance(channel, tuple) and channel and channel[0] == "vrp-data":
                sink = self._sinks.get(channel[1])
                if sink is not None:
                    sink._on_datagram(delivery)
                return
            if tcp_handler is not None:
                tcp_handler(delivery)

        nic.set_receive_handler(_handler, owner=nic.owner or "os-tcp")
        self._datagram_handler_installed[network.name] = True

    # -- connection setup -----------------------------------------------------------------
    def _wrap(self, sock: SysSocket, ready: Callable, fail: Optional[Callable]) -> None:
        """The accepting side: the control socket's hello names the data
        channel and the tolerance."""

        def accepted(ctl: SysSocket, hello: tuple, _body) -> None:
            channel_id, tolerance_ppm = hello
            ready(VrpConnection(self, ctl, channel_id, tolerance_ppm / 1e6))

        read_hello(sock, _VRP_HELLO, no_body, accepted)

    def connect(self, dst_host: Host, port: int, network=None) -> SimEvent:
        return self._connect(dst_host, port, self.tolerance, network)

    def connect_with_params(
        self, dst_host: Host, port: int, params: Optional[Dict[str, float]] = None, network=None
    ) -> SimEvent:
        """Per-connection loss tolerance: the selector derives it from the
        measured loss rate of the pinned hop (relay and adaptive legs always
        pin zero — they carry somebody else's framed stream)."""
        tolerance = float((params or {}).get("tolerance", self.tolerance))
        return self._connect(dst_host, port, max(0.0, min(0.5, tolerance)), network)

    def _connect(self, dst_host: Host, port: int, tolerance: float, network) -> SimEvent:
        done = self.sim.event(name=f"vrp-connect({dst_host.name}:{port})")
        channel_id = self._next_channel
        self._next_channel += 1

        def _connected(ev) -> None:
            if not ev.ok:
                done.fail(ev.value)
                return
            ctl_sock: SysSocket = ev.value
            ctl_sock.write(_VRP_HELLO.pack(channel_id, int(round(tolerance * 1e6))))
            done.succeed(VrpConnection(self, ctl_sock, channel_id, tolerance))

        self._open(dst_host, port, network).add_callback(_connected)
        return done
