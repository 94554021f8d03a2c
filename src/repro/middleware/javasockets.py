"""The JVM socket layer (Kaffe-style Java sockets over SysWrap).

§4.3: "A Java virtual machine (Kaffe 1.0.7) has been slightly modified for
use within PadicoTM".  What the paper measures (Figure 3, Table 1 "Java
socket") is the cost of ``java.net.Socket`` + ``DataInput/OutputStream``
traffic once the JVM's socket natives are redirected onto the framework: the
bandwidth stays near the wire plateau (≈238 MB/s) but each call pays a much
higher per-operation price (~40 µs one-way), coming from the JVM's socket
object machinery and JNI crossings.

This module reproduces that layer: :class:`JavaSocket` /
:class:`JavaServerSocket` mimic the java.net API surface;
:class:`DataOutputStream` / :class:`DataInputStream` provide the typed
read/write helpers used by the examples and benchmarks.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.simnet.buffers import immutable
from repro.simnet.cost import MB, MICROSECOND
from repro.personalities.syswrap import SysWrap, SysWrapSocket


@dataclass(frozen=True)
class JvmProfile:
    """Cost model of the JVM socket path (interpreter + JNI + stream objects)."""

    name: str = "Kaffe-1.0.7"
    #: per socket operation (read or write call), per side.
    per_call_overhead: float = 14.9 * MICROSECOND
    #: per-byte handling (stream buffer management, JNI array pinning).
    copy_bandwidth: float = 71_000.0 * MB


class JavaSocketError(OSError):
    """java.net.SocketException equivalent."""


class JavaSocket:
    """A ``java.net.Socket`` equivalent bound to the SysWrap personality."""

    def __init__(self, syswrap: SysWrap, profile: Optional[JvmProfile] = None,
                 _accepted: Optional[SysWrapSocket] = None):
        self.syswrap = syswrap
        self.sim = syswrap.sim
        self.profile = profile or JvmProfile()
        self._sock = _accepted if _accepted is not None else syswrap.socket()
        self.bytes_read = 0

    # -- connection management ----------------------------------------------------
    def connect(self, peer, port: int):
        """Connect to ``peer:port`` (generator completing with self)."""
        yield self.sim.timeout(self.profile.per_call_overhead)
        yield self._sock.connect((peer, port))
        return self

    def close(self) -> None:
        self._sock.close()

    # -- raw stream I/O --------------------------------------------------------------
    def write(self, data: bytes):
        """OutputStream.write: generator completing when the bytes are sent."""
        data = immutable(data)  # the caller's array is released before the JNI delay
        cost = self.profile.per_call_overhead + len(data) / self.profile.copy_bandwidth
        yield self.sim.timeout(cost)
        yield self._sock.send(data)
        return len(data)

    def read(self, nbytes: int):
        """InputStream.read (fully): generator returning exactly ``nbytes``."""
        data = yield self._sock.recv_exact(nbytes)
        cost = self.profile.per_call_overhead + len(data) / self.profile.copy_bandwidth
        yield self.sim.timeout(cost)
        self.bytes_read += len(data)
        return data

    @property
    def driver_name(self) -> Optional[str]:
        return self._sock.driver_name


class JavaServerSocket:
    """A ``java.net.ServerSocket`` equivalent."""

    def __init__(self, syswrap: SysWrap, port: int, profile: Optional[JvmProfile] = None):
        self.syswrap = syswrap
        self.sim = syswrap.sim
        self.port = port
        self.profile = profile or JvmProfile()
        self._sock = syswrap.socket()
        self._sock.bind((syswrap.host.name, port))
        self._sock.listen()

    def accept(self):
        """Generator completing with a connected :class:`JavaSocket`."""
        child, _peer = yield self._sock.accept()
        yield self.sim.timeout(self.profile.per_call_overhead)
        return JavaSocket(self.syswrap, self.profile, _accepted=child)


class DataOutputStream:
    """``java.io.DataOutputStream`` over a :class:`JavaSocket`."""

    def __init__(self, socket: JavaSocket):
        self.socket = socket

    def write_int(self, value: int):
        return self.socket.write(struct.pack("!i", value))

    def write_long(self, value: int):
        return self.socket.write(struct.pack("!q", value))

    def write_double(self, value: float):
        return self.socket.write(struct.pack("!d", value))

    def write_utf(self, value: str):
        raw = value.encode("utf-8")
        return self.socket.write(struct.pack("!H", len(raw)) + raw)

    def write_fully(self, data: bytes):
        return self.socket.write(data)


class DataInputStream:
    """``java.io.DataInputStream`` over a :class:`JavaSocket`."""

    def __init__(self, socket: JavaSocket):
        self.socket = socket
        self.sim = socket.sim

    def read_int(self):
        raw = yield from self.socket.read(4)
        return struct.unpack("!i", raw)[0]

    def read_long(self):
        raw = yield from self.socket.read(8)
        return struct.unpack("!q", raw)[0]

    def read_double(self):
        raw = yield from self.socket.read(8)
        return struct.unpack("!d", raw)[0]

    def read_utf(self):
        raw = yield from self.socket.read(2)
        (length,) = struct.unpack("!H", raw)
        data = yield from self.socket.read(length)
        return data.decode("utf-8")

    def read_fully(self, nbytes: int):
        data = yield from self.socket.read(nbytes)
        return data


class JavaSocketLayer:
    """The per-node entry point of the JVM socket layer."""

    def __init__(
        self, node, profile: Optional[JvmProfile] = None, forced_method: Optional[str] = None
    ):
        self.node = node
        self.sim = node.sim
        self.profile = profile or JvmProfile()
        self.syswrap = SysWrap(node.vlink, forced_method=forced_method)

    def socket(self) -> JavaSocket:
        return JavaSocket(self.syswrap, self.profile)

    def server_socket(self, port: int) -> JavaServerSocket:
        return JavaServerSocket(self.syswrap, port, self.profile)
