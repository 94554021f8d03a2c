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
their code, which is the paper's central claim.  The middleware takes its
connections and bytes in callbacks (:meth:`SysWrapSocket.on_ready`), and a
cost that precedes a send delays the send (``call_later(cost, sock.send,
data, done)``, or :meth:`SysWrapSocket.post` when nothing waits on it).

The request/reply middleware (the ORB, gSOAP, the RTI) shares one client,
:class:`RequestSession`, and one server, :class:`ReplyQueue`.  A session
connects lazily: a call that finds no connection pays its charge, connects,
then posts; every other call posts its charge later.  Replies are matched to
their calls by request id or in order, and a close fails the calls waiting
on that connection with :class:`ConnectionError` and drops it, so the next
call reopens one.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from types import GeneratorType
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.abstraction.common import AbstractionError
from repro.abstraction.records import Serializer, read_records
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
                done.succeed((self._adopt(op.value), (op.value.peer_name, self._bound_port)))
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
        attempt.set_handler(_connected)
        return done

    def send(self, data: bytes, done=None):
        """Returns the link's write operation: it completes, with the byte
        count the driver reports, once the peer holds all of ``data`` (no
        partial writes).

        ``data`` may be a :class:`~repro.simnet.buffers.Gather` (``writev``):
        header and payload parts go down as one write, uncopied.  ``done``
        as for ``VLink.write``; a write that cannot be posted (the socket
        closed during a charge) fails it rather than raising out of the run.
        """
        try:
            return self._require_link("send").write(data, done)
        except (OSError, AbstractionError) as exc:
            if done is None:
                raise
            return done.fail(exc)

    def post(self, data, failed=None) -> bool:
        """:meth:`send` from a callback or a timer, no completion awaited:
        False, with ``failed`` (an event, if any) failed, when the write
        cannot be posted, rather than an exception out of the run."""
        try:
            self._require_link("send").write(data)
        except (OSError, AbstractionError) as exc:
            if failed is not None:
                failed.fail(exc)
            return False
        return True

    sendall = send  # identical for this facade: no partial writes

    def recv(self, nbytes: int):
        """Returns an event completing with up to ``nbytes`` bytes."""
        return self._require_link("recv").read(nbytes, exact=False)

    def recv_exact(self, nbytes: int, gather: bool = False, charge=None):
        """Extension used by the JVM layer; ``gather`` and
        ``charge`` (the read's own cost) as for ``VLink.read``."""
        return self._require_link("recv_exact").read(nbytes, True, None, gather, charge)

    def on_ready(self, on_data: Callable, on_close: Optional[Callable] = None) -> None:
        """``select()`` as callbacks: ``on_data(child)`` for each connection a
        listening socket accepts; on a connected one, ``on_data(stream)`` as
        bytes arrive (its link, a record-layer stream: no read is posted)
        and ``on_close(self)`` once it closes."""
        if self._listener is not None:
            self._listener.set_accept_callback(lambda link: on_data(self._adopt(link)))
            return
        link = self._require_link("on_ready")
        link.set_close_callback(None if on_close is None else lambda _link: on_close(self))
        link.set_data_callback(on_data)

    def on_records(self, header, body_len, on_record, on_close=None) -> None:
        """``on_record(self, fields, body)`` for each ``header``-framed record
        as soon as all of it is buffered (``records.read_records`` in the
        :meth:`on_ready` callback), ``on_close(self)`` once the stream
        closes."""

        def _on_data(stream) -> None:
            for fields, body in read_records(stream, header, body_len):
                on_record(self, fields, body)

        self.on_ready(_on_data, on_close)

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

    def _adopt(self, link: VLink) -> "SysWrapSocket":
        child = self.syswrap.socket()
        child._link = link
        return child

    def _require_link(self, opname: str) -> VLink:
        if self._link is None:
            raise SocketError(f"{opname}() on unconnected socket fd={self.fd}")
        if self._closed:
            raise SocketError(f"{opname}() on closed socket fd={self.fd}")
        return self._link


class ReplyQueue(Serializer):
    """A server connection's answers, in request order.  The middleware
    supplies ``handler(request) -> (context, result)``, ``reply(context,
    result)`` and ``fault(request, exc)``, each encoder ``(seconds, wire)``
    or None (no reply).  :meth:`request` runs the handler ``delay`` seconds
    later; a result that is a generator (the handler makes calls of its
    own) runs as a process, and its return value is the result; an
    exception is answered by ``fault``.  ``wire`` leaves ``seconds`` after
    it is encoded, and after every earlier request's reply."""

    def __init__(self, sock: SysWrapSocket, handler: Callable, reply: Callable, fault: Callable):
        super().__init__(sock.sim)
        self.sock = sock
        self.handler, self.reply, self.fault = handler, reply, fault
        #: per request, in order: [] until its reply is encoded, then [wire or None]
        self._slots = deque()

    def request(self, delay: float, request) -> None:
        """Answer ``request`` ``delay`` seconds from now, or after the one before."""
        self.after(delay, self._answer, request)

    def _answer(self, request) -> None:
        slot = []
        self._slots.append(slot)
        try:
            context, result = self.handler(request)
            if isinstance(result, GeneratorType):
                nested = self.sim.process(self._nested(request, context, result))
                return nested.add_callback(lambda done: self._encoded(slot, done.value))
            answer = self.reply(context, result)
        except Exception as exc:  # noqa: BLE001 - answered with the middleware's fault
            answer = self.fault(request, exc)
        self._encoded(slot, answer)

    def _nested(self, request, context, handler):
        try:
            return self.reply(context, (yield from handler))
        except Exception as exc:  # noqa: BLE001 - answered with the middleware's fault
            return self.fault(request, exc)

    def _encoded(self, slot: list, answer) -> None:
        if answer is None:
            self._ready(slot, None)
        else:
            self.sim.call_later(answer[0], self._ready, slot, answer[1])

    def _ready(self, slot: list, wire) -> None:
        slot.append(wire)
        slots = self._slots
        while slots and slots[0]:
            wire = slots.popleft()[0]
            if wire is not None:
                self.sock.post(wire)  # the client may have closed meanwhile


#: the ``key`` of a call nothing answers: its ``reply`` completes with the send
ONEWAY = object()


class RequestSession:
    """A client's calls to the server at ``address``, one connection at a
    time.  ``framing(sock, on_message, on_close)`` installs the middleware's
    parser on a connection (:meth:`SysWrapSocket.on_records`, gSOAP's HTTP).
    ``match(*message)`` is ``(key, value, delay)`` for a reply: the call made
    with ``key`` (None: the oldest) gets ``value`` ``delay`` seconds later.
    It is None for a message that is not a reply (handled or dropped)."""

    def __init__(self, syswrap: "SysWrap", address, framing: Callable, match: Callable):
        self.syswrap, self.sim, self.address = syswrap, syswrap.sim, address
        self.framing, self.match = framing, match
        #: the connection calls are posted on, None until one connects or once it closes
        self.sock: Optional[SysWrapSocket] = None
        #: the calls awaiting their reply on ``sock``, by key, oldest first
        self.waiters: dict = {}

    def call(self, cost: float, wire, reply, key=None) -> None:
        """Post ``wire`` ``cost`` seconds from now; ``reply`` completes with
        its answer (with the send, for ``key`` :data:`ONEWAY`) or fails.
        A call that finds no connection connects once its charge is paid."""
        if self.sock is None:
            self.sim.call_later(cost, self._connect, wire, reply, key)
        else:
            self.sim.call_later(cost, self._post, self.sock, self.waiters, wire, reply, key)

    def _connect(self, wire, reply, key) -> None:
        sock = self.syswrap.socket()

        def connected(attempt) -> None:
            if not attempt.ok:
                sock.close()
                return reply.fail(attempt.value)
            # each connection answers the calls it carries, so calls that
            # race to connect are each answered on their own
            waiters = {}
            self.sock, self.waiters = sock, waiters
            self.framing(sock, partial(self._reply, sock, waiters), partial(self._closed, waiters))
            self._post(sock, waiters, wire, reply, key)

        sock.connect(self.address).add_callback(connected)

    @staticmethod
    def _post(sock: SysWrapSocket, waiters: dict, wire, reply, key) -> None:
        if key is ONEWAY:
            sock.send(wire, reply)
        elif sock.post(wire, reply):
            waiters[reply if key is None else key] = reply

    def _reply(self, sock: SysWrapSocket, waiters: dict, *message) -> None:
        answer = self.match(*message)
        if answer is not None:
            key, value, delay = answer
            waiter = waiters.pop(next(iter(waiters), None) if key is None else key, None)
            if waiter is not None:
                waiter.succeed(value, delay)
            if not waiters and sock is not self.sock:  # it lost a race to connect
                sock.close()

    def _closed(self, waiters: dict, sock: SysWrapSocket) -> None:
        if self.sock is sock:
            self.sock = None
        for waiter in waiters.values():
            waiter.fail(ConnectionError("the server closed the connection"))
        waiters.clear()
        sock.close()


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
