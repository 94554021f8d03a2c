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
from operator import itemgetter
from typing import Callable, Optional

from repro.simnet.buffers import Gather
from repro.simnet.cost import MB, MICROSECOND
from repro.arbitration.sysio import SysIO, SysSocket
from repro.abstraction.drivers import SysIOVLinkDriver
from repro.abstraction.records import CodecConnection, read_hello

_RECORD = struct.Struct("!I32s")  # ciphertext length, auth tag
_HELLO = struct.Struct("!H")  # site-name length; the name and the token follow
_TOKEN_SIZE = 32


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
        return hmac.compare_digest(SiteCredential(site, self.secret).token(), token)


def _keystream(key: bytes, length: int) -> bytes:
    blocks = range(-(-length // 32))  # 32-byte SHA-256 blocks, rounded up
    return b"".join(hashlib.sha256(key + i.to_bytes(8, "big")).digest() for i in blocks)[:length]


def _cipher(key: bytes, data: bytes) -> bytes:
    """XOR ``data`` with the keystream, as one integer operation."""
    stream = _keystream(key, len(data))
    return (int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")).to_bytes(
        len(data), "big"
    )


class SecureConnection(CodecConnection):
    """An authenticated, ciphered byte stream over one SysIO socket."""

    #: symmetric-cipher throughput on the paper's CPU class (3DES-era).
    CIPHER_BANDWIDTH = 15.0 * MB
    HANDSHAKE_OVERHEAD = 150.0 * MICROSECOND
    RECORD = _RECORD

    def __init__(self, driver: "SecureVLinkDriver", sock: SysSocket, session_key: bytes):
        self.session_key = session_key
        super().__init__(driver.sim, sock)

    def _encode(self, data: bytes) -> tuple:
        ciphertext = _cipher(self.session_key, data)
        tag = hmac.new(self.session_key, ciphertext, hashlib.sha256).digest()
        return _RECORD.pack(len(ciphertext), tag), ciphertext, len(data) / self.CIPHER_BANDWIDTH

    _body_len = itemgetter(0)  # the ciphertext length

    def _decode(self, fields: tuple, ciphertext: bytes) -> tuple:
        expected = hmac.new(self.session_key, ciphertext, hashlib.sha256).digest()
        if not hmac.compare_digest(expected, fields[1]):
            return None, 0.0  # a record failing its integrity tag is dropped
        plaintext = _cipher(self.session_key, ciphertext)
        return plaintext, len(plaintext) / self.CIPHER_BANDWIDTH


class SecureVLinkDriver(SysIOVLinkDriver):
    """The ``gsi`` VLink driver: credential handshake + ciphered records."""

    name = "gsi"
    PORT_OFFSET = 130000

    def __init__(self, sysio: SysIO, credential: Optional[SiteCredential] = None):
        super().__init__(sysio)
        self.credential = credential or SiteCredential(self.host.site)

    def _session_key(self, peer_site: str) -> bytes:
        sites = sorted([self.credential.site, peer_site])
        return hashlib.sha256(self.credential.secret + "|".join(sites).encode()).digest()

    def _hello(self) -> Gather:
        own = self.credential.site.encode("utf-8")
        return Gather((_HELLO.pack(len(own)), own, self.credential.token()))

    def _wrap(self, sock: SysSocket, ready: Callable, fail: Optional[Callable]) -> None:
        """The handshake: the connecting side sends its credential first, the
        accepting side answers with its own once the peer's verified; each
        side checks the other's before the stream opens."""
        connecting = fail is not None
        if connecting:
            sock.write(self._hello())

        def verify(s: SysSocket, _fields: tuple, body) -> None:
            body = bytes(body)
            site = body[:-_TOKEN_SIZE].decode("utf-8")
            if not self.credential.verify(site, body[-_TOKEN_SIZE:]):
                if connecting:
                    fail(SecurityError(f"peer site {site!r} failed authentication"))
                else:
                    s.close()
                return
            if not connecting:
                s.write(self._hello())
            conn = SecureConnection(self, s, self._session_key(site))
            ready(conn, SecureConnection.HANDSHAKE_OVERHEAD)

        def closed(_s: SysSocket) -> None:
            fail(SecurityError("the peer closed the GSI handshake"))

        read_hello(sock, _HELLO, lambda fields: fields[0] + _TOKEN_SIZE, verify,
                   closed if connecting else None)
