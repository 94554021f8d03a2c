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
from operator import itemgetter
from typing import Callable, Optional

from repro.simnet.cost import MB
from repro.arbitration.sysio import SysIO, SysSocket
from repro.abstraction.drivers import SysIOVLinkDriver
from repro.abstraction.records import CodecConnection

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


class AdocConnection(CodecConnection):
    """A compressed byte stream over one SysIO socket: each write is one block."""

    RECORD = _BLOCK

    def __init__(self, driver: "AdocVLinkDriver", sock: SysSocket):
        self.codec = driver.codec
        self.blocks_sent = 0
        self.blocks_compressed = 0
        self.bytes_in = 0
        self.bytes_on_wire = 0
        super().__init__(driver.sim, sock)

    @property
    def compression_ratio(self) -> float:
        """Wire bytes / input bytes for everything written so far."""
        if self.bytes_in == 0:
            return 1.0
        return self.bytes_on_wire / self.bytes_in

    def _encode(self, data: bytes) -> tuple:
        flags, wire, cpu = self.codec.encode(data)
        self.blocks_sent += 1
        if flags & _FLAG_COMPRESSED:
            self.blocks_compressed += 1
        self.bytes_in += len(data)
        self.bytes_on_wire += len(wire)
        return _BLOCK.pack(flags, len(data), len(wire)), wire, cpu

    _body_len = itemgetter(2)  # the wire length

    def _decode(self, fields: tuple, wire: bytes) -> tuple:
        flags, original, _wire_len = fields
        return self.codec.decode(flags, wire, original)


class AdocVLinkDriver(SysIOVLinkDriver):
    """The ``adoc`` VLink driver: SysIO + adaptive online compression."""

    name = "adoc"
    PORT_OFFSET = 110000

    def __init__(self, sysio: SysIO, codec: Optional[AdocCodec] = None):
        super().__init__(sysio)
        self.codec = codec or AdocCodec()

    def _wrap(self, sock: SysSocket, ready: Callable, fail: Optional[Callable]) -> None:
        ready(AdocConnection(self, sock))
