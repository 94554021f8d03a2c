"""Vio: the explicit socket-like personality over VLink.

Vio is the personality a PadicoTM-aware application or middleware uses when
it *knows* it is running inside the framework: the API looks like sockets
(socket / bind / listen / accept / connect / send / recv / close) but the
calls explicitly return asynchronous operations, so both blocking
(``yield``-based) and callback styles are possible.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.abstraction.vlink import VLink, VLinkListener, VLinkManager, VLinkOperation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.host import Host


class VioError(RuntimeError):
    """Socket-style errors raised by the Vio personality."""


class VioSocket:
    """A Vio socket: either a passive (listening) or active (connected) endpoint."""

    def __init__(self, vio: "Vio"):
        self.vio = vio
        self.sim = vio.sim
        self._listener: Optional[VLinkListener] = None
        self._link: Optional[VLink] = None
        self._port: Optional[int] = None

    # -- passive side ----------------------------------------------------------
    def bind(self, port: int) -> "VioSocket":
        if self._listener is not None or self._link is not None:
            raise VioError("socket already bound or connected")
        self._port = port
        return self

    def listen(self, backlog: int = 16) -> "VioSocket":
        if self._port is None:
            raise VioError("listen() before bind()")
        self._listener = self.vio.manager.listen(self._port)
        return self

    def accept(self) -> VLinkOperation:
        """Post an accept; the operation completes with a connected VioSocket."""
        if self._listener is None:
            raise VioError("accept() on a non-listening socket")
        op = VLinkOperation(self.sim, "vio-accept")

        def _accepted(inner_op: VLinkOperation) -> None:
            if inner_op.ok:
                sock = VioSocket(self.vio)
                sock._link = inner_op.value
                op.succeed(sock)
            else:
                op.fail(inner_op.value)

        self._listener.accept().set_handler(_accepted)
        return op

    # -- active side -----------------------------------------------------------------
    def connect(self, host: "Host", port: int, method: Optional[str] = None) -> VLinkOperation:
        """Post a connect; the operation completes with this socket itself."""
        if self._link is not None or self._listener is not None:
            raise VioError("socket already connected or listening")
        op = VLinkOperation(self.sim, "vio-connect")

        def _connected(inner_op: VLinkOperation) -> None:
            if inner_op.ok:
                self._link = inner_op.value
                op.succeed(self)
            else:
                op.fail(inner_op.value)

        self.vio.manager.connect(host, port, method=method).set_handler(_connected)
        return op

    # -- data transfer -----------------------------------------------------------------
    def send(self, data: bytes) -> VLinkOperation:
        return self._require_link("send").write(data)

    def recv(self, nbytes: int) -> VLinkOperation:
        """Receive up to ``nbytes`` (completes as soon as any data is there)."""
        return self._require_link("recv").read(nbytes, exact=False)

    def recv_exact(self, nbytes: int, gather: bool = False) -> VLinkOperation:
        """Receive exactly ``nbytes`` (message-framing helper); ``gather=True``
        (the reader parses over parts) as for ``VLink.read``."""
        return self._require_link("recv_exact").read(nbytes, True, None, gather)

    def close(self) -> None:
        if self._link is not None:
            self._link.close()
        if self._listener is not None:
            self._listener.close()
        self.vio._sockets.pop(id(self), None)

    # -- introspection ------------------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._link is not None

    @property
    def link(self) -> Optional[VLink]:
        return self._link

    @property
    def driver_name(self) -> Optional[str]:
        return self._link.driver_name if self._link is not None else None

    def _require_link(self, opname: str) -> VLink:
        if self._link is None:
            raise VioError(f"{opname}() on a socket that is not connected")
        return self._link

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._listener is not None:
            return f"<VioSocket listening :{self._port}>"
        if self._link is not None:
            return f"<VioSocket connected via {self._link.driver_name}>"
        return "<VioSocket idle>"


class Vio:
    """Per-host factory of Vio sockets."""

    def __init__(self, manager: VLinkManager):
        self.manager = manager
        self.sim = manager.sim
        self.host = manager.host
        self._sockets: Dict[int, VioSocket] = {}

    def socket(self) -> VioSocket:
        sock = VioSocket(self)
        self._sockets[id(sock)] = sock
        return sock

    def open_sockets(self) -> int:
        return len(self._sockets)
