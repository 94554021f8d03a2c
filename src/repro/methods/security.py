"""GSI-style security method: authentication + ciphering between sites.

§2.1: "they should adapt their security requirements to the characteristics
of the underlying network, eg. if the network is secure, it is useless to
cipher data"; §3.2 lists encryption/authentication through a protocol
plug-in (GSI or IPsec) among the alternate methods, and §7 leaves a full
treatment to future work.  Accordingly this driver implements the plug-in
mechanics — a credential handshake at connect time, per-record ciphering and
integrity tags, a CPU cost model — rather than production cryptography
(the cipher is an HMAC-derived keystream, the point being the framework
integration and the cost, not cryptanalysis resistance).
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import Callable, Optional

from repro.simnet.buffers import ByteRing
from repro.simnet.cost import MB, MICROSECOND
from repro.simnet.engine import SimEvent
from repro.simnet.host import Host
from repro.arbitration.sysio import SysIO, SysSocket
from repro.abstraction.drivers import BufferedConnection, StreamBuffer, VLinkDriver

_RECORD = struct.Struct("!I32s")  # ciphertext length, auth tag


class SecurityError(ConnectionError):
    """Authentication or integrity failures."""


@dataclass(frozen=True)
class SiteCredential:
    """A (very) simplified GSI credential: site name + shared secret."""

    site: str
    secret: bytes = b"repro-grid-ca"

    def token(self) -> bytes:
        return hmac.new(self.secret, self.site.encode("utf-8"), hashlib.sha256).digest()

    def verify(self, site: str, token: bytes) -> bool:
        expected = hmac.new(self.secret, site.encode("utf-8"), hashlib.sha256).digest()
        return hmac.compare_digest(expected, token)


def _keystream(key: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(key + counter.to_bytes(8, "big")).digest()
        counter += 1
    return bytes(out[:length])


def _cipher(key: bytes, data: bytes) -> bytes:
    stream = _keystream(key, len(data))
    return bytes(a ^ b for a, b in zip(data, stream))


class SecureConnection(BufferedConnection):
    """An authenticated, ciphered byte-stream over one SysIO socket."""

    #: symmetric-cipher throughput on the paper's CPU class (3DES-era).
    CIPHER_BANDWIDTH = 15.0 * MB
    HANDSHAKE_OVERHEAD = 150.0 * MICROSECOND

    def __init__(self, driver: "SecureVLinkDriver", sock: SysSocket, session_key: bytes):
        self.driver = driver
        self.sim = driver.sim
        self.sock = sock
        self.peer_name = sock.peer_name
        self.session_key = session_key
        self.buffer = StreamBuffer(driver.sim)
        self._rx = ByteRing()
        self.closed = False
        self.records_rejected = 0
        # per-direction cursors serializing the size-dependent cipher delays:
        # a small record's cheaper crypto must never let it overtake an
        # earlier large one — this is a byte stream.
        self._next_write_at = 0.0
        self._next_append_at = 0.0
        sock.set_data_callback(self._on_data)

    # -- driver-connection interface ------------------------------------------------
    def write(self, data: bytes, done: Optional[SimEvent] = None) -> SimEvent:
        if self.closed:
            raise ConnectionError("write() on closed secure connection")
        ciphertext = _cipher(self.session_key, bytes(data))
        tag = hmac.new(self.session_key, ciphertext, hashlib.sha256).digest()
        frame = _RECORD.pack(len(ciphertext), tag) + ciphertext
        cpu = len(data) / self.CIPHER_BANDWIDTH
        if done is None:
            done = self.sim.event(name="gsi-write")
        ready = max(self.sim.now + cpu, self._next_write_at)
        self._next_write_at = ready
        self.sim.call_later(ready - self.sim.now, self.sock.write, frame, done)
        return done

    def close(self) -> None:
        self.closed = True
        self.sock.close()
        self.buffer.close()

    # -- receive path ------------------------------------------------------------------
    def _on_data(self, sock: SysSocket) -> None:
        rx = self._rx
        rx.append(sock.read_available())
        while True:
            if len(rx) < _RECORD.size:
                return
            length, tag = _RECORD.unpack(rx.peek(_RECORD.size))
            if len(rx) < _RECORD.size + length:
                return
            rx.skip(_RECORD.size)
            ciphertext = rx.take(length)
            expected = hmac.new(self.session_key, ciphertext, hashlib.sha256).digest()
            if not hmac.compare_digest(expected, tag):
                self.records_rejected += 1
                continue
            plaintext = _cipher(self.session_key, ciphertext)
            cpu = len(plaintext) / self.CIPHER_BANDWIDTH
            ready = max(self.sim.now + cpu, self._next_append_at)
            self._next_append_at = ready
            self.sim.call_later(ready - self.sim.now, self.buffer.append, plaintext)


class SecureVLinkDriver(VLinkDriver):
    """The ``gsi`` VLink driver: credential handshake + ciphered records."""

    name = "gsi"

    #: the driver listens on its own SysIO port range so that several
    #: VLink drivers can serve the same logical VLink port side by side.
    PORT_OFFSET = 130000

    def __init__(self, sysio: SysIO, credential: Optional[SiteCredential] = None):
        super().__init__(sysio.host)
        self.sysio = sysio
        self.credential = credential or SiteCredential(self.host.site)

    def _session_key(self, peer_site: str) -> bytes:
        sites = sorted([self.credential.site, peer_site])
        return hashlib.sha256(self.credential.secret + "|".join(sites).encode()).digest()

    def listen(self, port: int, on_incoming: Callable) -> None:
        def _accepted(sock: SysSocket) -> None:
            state = {"hello": bytearray()}

            def _on_hello(s: SysSocket) -> None:
                state["hello"] += s.read_available()
                buf = state["hello"]
                if len(buf) < 2:
                    return
                site_len = struct.unpack("!H", buf[:2])[0]
                if len(buf) < 2 + site_len + 32:
                    return
                site = bytes(buf[2 : 2 + site_len]).decode("utf-8")
                token = bytes(buf[2 + site_len : 2 + site_len + 32])
                del buf[: 2 + site_len + 32]
                if not self.credential.verify(site, token):
                    s.close()
                    return
                s.set_data_callback(None)
                # reply with our own credential so the client authenticates us too
                own = self.credential.site.encode("utf-8")
                s.write(struct.pack("!H", len(own)) + own + self.credential.token())
                conn = SecureConnection(self, s, self._session_key(site))
                self.sim.call_later(
                    SecureConnection.HANDSHAKE_OVERHEAD, on_incoming, conn, s.conn.peer_host
                )

            sock.set_data_callback(_on_hello)
            _on_hello(sock)

        self.sysio.listen(port + self.PORT_OFFSET, _accepted)

    def connect(self, dst_host: Host, port: int) -> SimEvent:
        done = self.sim.event(name=f"gsi-connect({dst_host.name}:{port})")

        def _connected(ev) -> None:
            if not ev.ok:
                done.fail(ev.value)
                return
            sock: SysSocket = ev.value
            own = self.credential.site.encode("utf-8")
            sock.write(struct.pack("!H", len(own)) + own + self.credential.token())
            state = {"hello": bytearray()}

            def _on_reply(s: SysSocket) -> None:
                state["hello"] += s.read_available()
                buf = state["hello"]
                if len(buf) < 2:
                    return
                site_len = struct.unpack("!H", buf[:2])[0]
                if len(buf) < 2 + site_len + 32:
                    return
                site = bytes(buf[2 : 2 + site_len]).decode("utf-8")
                token = bytes(buf[2 + site_len : 2 + site_len + 32])
                del buf[: 2 + site_len + 32]
                if not self.credential.verify(site, token):
                    if not done.triggered:
                        done.fail(SecurityError(f"peer site {site!r} failed authentication"))
                    return
                s.set_data_callback(None)
                conn = SecureConnection(self, s, self._session_key(site))
                if not done.triggered:
                    done.succeed(conn, delay=SecureConnection.HANDSHAKE_OVERHEAD)

            sock.set_data_callback(_on_reply)

        self.sysio.connect(dst_host, port + self.PORT_OFFSET).add_callback(_connected)
        return done

    def reaches(self, dst_host: Host) -> bool:
        return any(
            net.paradigm == "distributed" for net in self.host.shares_network_with(dst_host)
        )
