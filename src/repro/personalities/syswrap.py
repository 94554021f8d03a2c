"""SysWrap: the 100 % BSD-socket-compliant personality.

"SysWrap supplies a 100 % socket-compliant API through wrapping at link
stage for direct use within C, C++ or FORTRAN legacy codes without even
recompiling.  Thus, legacy applications are able to transparently use all
PadicoTM communication methods without losing interoperability with
PadicoTM-unaware applications on plain sockets." (§4.3)

The Python equivalent of "wrapping at link stage" is handing legacy
middleware an object whose surface mimics the classic blocking socket API —
``socket() / bind / listen / accept / connect / send / recv / sendall /
close`` keyed by file-descriptor-like integers.  The middleware systems in
:mod:`repro.middleware` (the CORBA ORBs, gSOAP, the JVM socket layer, HLA)
are written against this facade exactly as their real counterparts are
written against libc sockets; swapping the VLink driver underneath (SysIO on
Ethernet, MadIO on Myrinet, parallel streams on a WAN) requires no change in
their code, which is the paper's central claim.  Message-framed middleware
(GIOP, the RTI) takes its messages as records (:meth:`SysWrapSocket.on_records`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, TYPE_CHECKING

from repro.abstraction.records import read_records
from repro.abstraction.vlink import VLink, VLinkListener, VLinkManager

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.host import Host


class SocketError(OSError):
    """Errno-style failures surfaced by the SysWrap facade."""


class SysWrapSocket:
    """A socket descriptor as seen by legacy middleware.

    All potentially blocking calls return simulation events; legacy-style
    code simply ``yield``s them, which mirrors a blocking libc call inside a
    user-level thread of the real PadicoTM.
    """

    def __init__(self, syswrap: "SysWrap", fd: int):
        self.syswrap = syswrap
        self.fd = fd
        self.sim = syswrap.sim
        self._listener: Optional[VLinkListener] = None
        self._link: Optional[VLink] = None
        self._bound_port: Optional[int] = None
        self._closed = False

    # -- BSD API ----------------------------------------------------------------
    def bind(self, address) -> None:
        """``bind((host, port))`` — the host part is ignored (local node)."""
        _, port = address
        self._bound_port = int(port)

    def listen(self, backlog: int = 16) -> None:
        if self._bound_port is None:
            raise SocketError("listen() before bind()")
        self._listener = self.syswrap.manager.listen(self._bound_port)

    def accept(self):
        """Returns an event completing with ``(SysWrapSocket, peer_address)``."""
        if self._listener is None:
            raise SocketError("accept() on a non-listening socket")
        done = self.sim.event(name=f"syswrap-accept(fd={self.fd})")

        def _accepted(op) -> None:
            if op.ok:
                link: VLink = op.value
                child = self.syswrap.socket()
                child._link = link
                done.succeed((child, (link.peer_name, self._bound_port)))
            else:
                done.fail(op.value)

        self._listener.accept().set_handler(_accepted)
        return done

    def connect(self, address):
        """``connect((host_name_or_Host, port))`` — returns a completion event."""
        peer, port = address
        host = self.syswrap.resolve(peer)
        done = self.sim.event(name=f"syswrap-connect(fd={self.fd})")

        def _connected(op) -> None:
            if op.ok:
                self._link = op.value
                done.succeed(self)
            else:
                done.fail(op.value)

        attempt = self.syswrap.manager.connect(host, int(port), method=self.syswrap.forced_method)
        attempt.set_handler(
            _connected
        )
        return done

    def send(self, data: bytes):
        """Returns the link's write operation: it completes, with the byte
        count the driver reports, once the peer holds all of ``data`` (no
        partial writes).

        ``data`` may be a :class:`~repro.simnet.buffers.Gather` (``writev``):
        header and payload parts go down as one write, uncopied.
        """
        return self._require_link("send").write(data)

    def sendall(self, data: bytes):
        """Identical to :meth:`send` for this facade (no partial writes)."""
        return self.send(data)

    def recv(self, nbytes: int):
        """Returns an event completing with up to ``nbytes`` bytes."""
        return self._require_link("recv").read(nbytes, exact=False)

    def recv_exact(self, nbytes: int, gather: bool = False, charge=None):
        """Extension used by SOAP-over-HTTP and the JVM layer; ``gather`` and
        ``charge`` (the read's own cost) as for ``VLink.read``."""
        return self._require_link("recv_exact").read(nbytes, True, None, gather, charge)

    def on_records(self, header, body_len, on_record, on_close=None) -> None:
        """``on_record(self, fields, body)`` for each ``header``-framed record
        as soon as all of it is buffered (``records.read_records`` over the
        link, in its readiness callback: no read is posted), ``on_close(self)``
        once the stream closes."""
        link = self._require_link("on_records")

        def _on_data(stream) -> None:
            for fields, body in read_records(stream, header, body_len):
                on_record(self, fields, body)

        link.set_close_callback(None if on_close is None else lambda _link: on_close(self))
        link.set_data_callback(_on_data)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._link is not None:
            self._link.close()
        if self._listener is not None:
            self._listener.close()
        self.syswrap._forget(self)

    # -- inspection --------------------------------------------------------------------
    def fileno(self) -> int:
        return self.fd

    def getpeername(self):
        link = self._require_link("getpeername")
        return (link.peer_name, self._bound_port or 0)

    @property
    def connected(self) -> bool:
        return self._link is not None

    @property
    def driver_name(self) -> Optional[str]:
        """Which VLink driver carries this socket (diagnostics only — legacy
        code does not look at this, which is precisely the point)."""
        return self._link.driver_name if self._link is not None else None

    def _require_link(self, opname: str) -> VLink:
        if self._link is None:
            raise SocketError(f"{opname}() on unconnected socket fd={self.fd}")
        if self._closed:
            raise SocketError(f"{opname}() on closed socket fd={self.fd}")
        return self._link

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "listening" if self._listener else ("connected" if self._link else "idle")
        return f"<SysWrapSocket fd={self.fd} {state}>"


class SysWrap:
    """Per-host socket-API facade handed to legacy middleware."""

    def __init__(self, manager: VLinkManager, forced_method: Optional[str] = None):
        self.manager = manager
        self.sim = manager.sim
        self.host = manager.host
        #: when set, every connect() uses this VLink method (used by the
        #: benchmarks to pin a middleware onto a given driver); by default the
        #: selector decides per link, invisibly to the middleware.
        self.forced_method = forced_method
        self._fds = itertools.count(3)
        self._sockets: Dict[int, SysWrapSocket] = {}

    def socket(self) -> SysWrapSocket:
        """The ``socket(AF_INET, SOCK_STREAM)`` equivalent."""
        sock = SysWrapSocket(self, next(self._fds))
        self._sockets[sock.fd] = sock
        return sock

    def resolve(self, peer) -> "Host":
        """Name resolution: accepts a Host, a PadicoNode-ish or a host name."""
        if hasattr(peer, "nics"):
            return peer
        if hasattr(peer, "host"):
            return peer.host
        topology = self.manager.selector.topology if self.manager.selector else None
        if topology is None:
            raise SocketError(f"cannot resolve {peer!r} without a topology knowledge base")
        return topology.host_by_name(str(peer))

    def open_fds(self):
        return sorted(self._sockets)

    def _forget(self, sock: SysWrapSocket) -> None:
        self._sockets.pop(sock.fd, None)
