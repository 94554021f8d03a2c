"""AdOC-style adaptive online compression.

"On slow networks, it may be worth compressing data to speed-up the
transfers.  AdOC implements an adaptive online compression mechanism."
(§3.2, citing Jeannot, Knutsson & Bjorkmann)

The driver wraps a single SysIO socket.  Every ``write`` becomes a framed
*block*; before sending, the codec decides — per block, adaptively — whether
to compress it: it compresses a sample of the block and only keeps the
compressed form when the achieved ratio beats a threshold (so incompressible
data, e.g. already-compressed scientific payloads, is passed through without
wasting CPU).  Compression is real ``zlib``; the CPU time it would take on
the paper's Pentium III is charged to the virtual clock.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.simnet.buffers import ByteRing
from repro.simnet.cost import MB
from repro.simnet.engine import SimEvent
from repro.simnet.host import Host
from repro.arbitration.sysio import SysIO, SysSocket
from repro.abstraction.drivers import BufferedConnection, StreamBuffer, VLinkDriver

_BLOCK = struct.Struct("!BII")  # flags, original length, wire length
_FLAG_COMPRESSED = 0x01


@dataclass
class AdocCodec:
    """The adaptive compression policy and its CPU cost model."""

    level: int = 6
    #: only keep the compressed form when it is at least this much smaller.
    min_gain: float = 0.10
    #: bytes of the block sampled to estimate compressibility.
    sample_size: int = 4096
    #: zlib throughput on a PIII-1GHz class machine (compress / decompress).
    compress_bandwidth: float = 18.0 * MB
    decompress_bandwidth: float = 60.0 * MB

    def should_compress(self, block: bytes) -> bool:
        if len(block) < 256:
            return False
        sample = block[: self.sample_size]
        compressed = zlib.compress(sample, self.level)
        return len(compressed) <= len(sample) * (1.0 - self.min_gain)

    def encode(self, block: bytes) -> tuple:
        """Return ``(flags, wire_bytes, cpu_seconds)`` for one block."""
        if self.should_compress(block):
            wire = zlib.compress(block, self.level)
            if len(wire) < len(block):
                return _FLAG_COMPRESSED, wire, len(block) / self.compress_bandwidth
        return 0, block, len(block) / (self.compress_bandwidth * 20)

    def decode(self, flags: int, wire: bytes, original_length: int) -> tuple:
        """Return ``(block, cpu_seconds)`` for one received block."""
        if flags & _FLAG_COMPRESSED:
            block = zlib.decompress(wire)
            if len(block) != original_length:
                raise ValueError("AdOC block length mismatch after decompression")
            return block, original_length / self.decompress_bandwidth
        return wire, len(wire) / (self.decompress_bandwidth * 20)


class AdocConnection(BufferedConnection):
    """A compressed byte-stream over one SysIO socket."""

    def __init__(self, driver: "AdocVLinkDriver", sock: SysSocket):
        self.driver = driver
        self.sim = driver.sim
        self.codec = driver.codec
        self.sock = sock
        self.peer_name = sock.peer_name
        self.buffer = StreamBuffer(driver.sim)
        self._rx = ByteRing()
        self.closed = False
        self.blocks_sent = 0
        self.blocks_compressed = 0
        self.bytes_in = 0
        self.bytes_on_wire = 0
        # per-direction cursors serializing the size-dependent codec delays:
        # a small block's cheaper (de)compression must never let it overtake
        # an earlier large one — this is a byte stream.
        self._next_write_at = 0.0
        self._next_append_at = 0.0
        sock.set_data_callback(self._on_data)

    # -- driver-connection interface --------------------------------------------------
    def write(self, data: bytes, done: Optional[SimEvent] = None) -> SimEvent:
        if self.closed:
            raise ConnectionError("write() on closed AdOC connection")
        flags, wire, cpu = self.codec.encode(bytes(data))
        self.blocks_sent += 1
        if flags & _FLAG_COMPRESSED:
            self.blocks_compressed += 1
        self.bytes_in += len(data)
        self.bytes_on_wire += len(wire)
        frame = _BLOCK.pack(flags, len(data), len(wire)) + wire
        if done is None:
            done = self.sim.event(name="adoc-write")
        ready = max(self.sim.now + cpu, self._next_write_at)
        self._next_write_at = ready
        self.sim.call_later(ready - self.sim.now, self.sock.write, frame, done)
        return done

    def close(self) -> None:
        self.closed = True
        self.sock.close()
        self.buffer.close()

    @property
    def compression_ratio(self) -> float:
        """Wire bytes / input bytes for everything written so far."""
        if self.bytes_in == 0:
            return 1.0
        return self.bytes_on_wire / self.bytes_in

    # -- receive path ---------------------------------------------------------------------
    def _on_data(self, sock: SysSocket) -> None:
        rx = self._rx
        rx.append(sock.read_available())
        while True:
            if len(rx) < _BLOCK.size:
                return
            flags, original, wire_len = _BLOCK.unpack(rx.peek(_BLOCK.size))
            if len(rx) < _BLOCK.size + wire_len:
                return
            rx.skip(_BLOCK.size)
            wire = rx.take(wire_len)
            block, cpu = self.codec.decode(flags, wire, original)
            ready = max(self.sim.now + cpu, self._next_append_at)
            self._next_append_at = ready
            self.sim.call_later(ready - self.sim.now, self.buffer.append, block)


class AdocVLinkDriver(VLinkDriver):
    """The ``adoc`` VLink driver: SysIO + adaptive online compression."""

    name = "adoc"

    #: the driver listens on its own SysIO port range so that several
    #: VLink drivers can serve the same logical VLink port side by side.
    PORT_OFFSET = 110000

    def __init__(self, sysio: SysIO, codec: Optional[AdocCodec] = None):
        super().__init__(sysio.host)
        self.sysio = sysio
        self.codec = codec or AdocCodec()

    def listen(self, port: int, on_incoming: Callable) -> None:
        self.sysio.listen(
            port + self.PORT_OFFSET,
            lambda sock: on_incoming(AdocConnection(self, sock), sock.conn.peer_host),
        )

    def connect(self, dst_host: Host, port: int) -> SimEvent:
        done = self.sim.event(name=f"adoc-connect({dst_host.name}:{port})")

        def _connected(ev) -> None:
            if ev.ok:
                done.succeed(AdocConnection(self, ev.value))
            else:
                done.fail(ev.value)

        self.sysio.connect(dst_host, port + self.PORT_OFFSET).add_callback(_connected)
        return done

    def reaches(self, dst_host: Host) -> bool:
        return any(
            net.paradigm == "distributed" for net in self.host.shares_network_with(dst_host)
        )
