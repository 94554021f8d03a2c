"""The ORB engine: object adapter, client stubs, GIOP over SysWrap sockets.

One :class:`ORB` instance per node plays both roles:

* **server** (POA): servants are activated with an object key; the ORB
  listens on its port through the SysWrap personality and dispatches
  incoming GIOP Requests onto servant methods;
* **client**: :class:`Proxy` objects marshal invocations with CDR, frame
  them in GIOP and send them over a (cached) SysWrap connection.

The ORB never talks to the network directly: everything goes through the
SysWrap socket facade, so the same ORB code runs over Ethernet (SysIO
driver), Myrinet (MadIO driver) or any WAN method — the virtualisation claim
the paper makes for the real omniORB/Mico/ORBacus binaries.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.personalities.syswrap import SysWrap, SysWrapSocket
from repro.middleware.corba.cdr import CdrInputStream, CdrOutputStream
from repro.middleware.corba.giop import (
    GIOP_HEADER_SIZE,
    GiopMessage,
    MSG_REPLY,
    MSG_REQUEST,
    REPLY_OK,
    REPLY_SYSTEM_EXCEPTION,
    make_reply,
    make_request,
)
from repro.middleware.corba.idl import Interface
from repro.middleware.corba.profiles import OrbProfile, OMNIORB_4


#: a GIOP body this long is read as a gather (its octet sequence reaches the
#: servant uncopied); joining a shorter one costs less than walking its parts
GATHER_MIN = 4096


class CorbaError(RuntimeError):
    """ORB-level failures (unknown object key, system exceptions, ...)."""


class ObjectReference:
    """A stringifiable object reference (corbaloc-style IOR)."""

    def __init__(self, host_name: str, port: int, object_key: bytes, repo_id: str):
        self.host_name = host_name
        self.port = port
        self.object_key = object_key
        self.repo_id = repo_id

    def to_string(self) -> str:
        return f"corbaloc::{self.host_name}:{self.port}/{self.object_key.decode('utf-8')}#{self.repo_id}"

    @classmethod
    def from_string(cls, ior: str) -> "ObjectReference":
        if not ior.startswith("corbaloc::"):
            raise CorbaError(f"unsupported IOR format: {ior!r}")
        rest = ior[len("corbaloc::"):]
        addr, _, tail = rest.partition("/")
        host, _, port = addr.partition(":")
        key, _, repo_id = tail.partition("#")
        return cls(host, int(port), key.encode("utf-8"), repo_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ObjectReference {self.to_string()}>"


class Servant:
    """Base class for object implementations: methods named after operations."""

    def _dispatch(self, operation: str, args):
        method = getattr(self, operation, None)
        if method is None:
            raise CorbaError(f"servant {type(self).__name__} does not implement {operation!r}")
        return method(*args)


class _ClientConnection:
    """One cached client-side GIOP connection with a reply-matching reader."""

    def __init__(self, orb: "ORB", sock: SysWrapSocket):
        self.orb = orb
        self.sim = orb.sim
        self.sock = sock
        self._pending: Dict[int, object] = {}
        self._reader = self.sim.process(self._read_loop(), name="giop-client-reader")

    def send_request(self, message: GiopMessage, expect_reply: bool):
        """The event a caller waits on: the matched reply, or — oneway — the
        request's own send completion."""
        sent = self.sock.send(message.encode())
        if not expect_reply:
            return sent
        ev = self._pending[message.request_id] = self.sim.event(name="giop-reply")
        return ev

    def _read_loop(self):
        while True:
            try:
                header = yield self.sock.recv_exact(GIOP_HEADER_SIZE)
                _msg_type, size, _version = GiopMessage.parse_header(header)
                payload = (yield self.sock.recv_exact(size, size >= GATHER_MIN)) if size else b""
            except (ConnectionError, OSError):
                return
            reply = GiopMessage.decode(header, payload)
            if reply.msg_type != MSG_REPLY:
                continue
            ev = self._pending.pop(reply.request_id, None)
            if ev is None:
                continue
            # Demarshalling cost of the reply on the client side.
            cost = self.orb.message_cost(len(reply.body))
            ev.succeed(reply, delay=cost)


class Proxy:
    """Client stub for a remote object."""

    def __init__(self, orb: "ORB", reference: ObjectReference, interface: Interface):
        self.orb = orb
        self.sim = orb.sim
        self.reference = reference
        self.interface = interface

    def invoke(self, operation: str, *args):
        """Invoke ``operation(*args)`` on the remote object (generator)."""
        op = self.interface.operation(operation)
        out = CdrOutputStream()
        op.encode_args(out, args)
        body = out.getvalue()
        request = make_request(
            self.orb.next_request_id(), self.reference.object_key, operation, body
        )
        # Marshalling + stub cost on the client side delays the send.
        yield self.sim.timeout(self.orb.message_cost(len(body)))
        conn = yield from self.orb._client_connection(self.reference)
        reply_ev = conn.send_request(request, expect_reply=not op.oneway)
        if op.oneway:
            yield reply_ev
            return None
        reply: GiopMessage = yield reply_ev
        if reply.reply_status != REPLY_OK:
            raise CorbaError(
                f"system exception from {operation!r}: {str(bytes(reply.body), 'utf-8', 'replace')}"
            )
        return op.decode_result(CdrInputStream(reply.body))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Proxy {self.interface.repo_id} @ {self.reference.to_string()}>"


class ORB:
    """One CORBA ORB instance (client + server roles) on a node."""

    _port_allocator = itertools.count(14000)

    def __init__(
        self,
        node,
        profile: OrbProfile = OMNIORB_4,
        *,
        port: Optional[int] = None,
        forced_method: Optional[str] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.profile = profile
        self.port = port if port is not None else next(self._port_allocator)
        self.syswrap = SysWrap(node.vlink, forced_method=forced_method)
        self._servants: Dict[bytes, Tuple[Servant, Interface]] = {}
        self._request_ids = itertools.count(1)
        self._listening = False
        self._client_conns: Dict[Tuple[str, int], _ClientConnection] = {}
        self.requests_served = 0

    # -- cost model -------------------------------------------------------------
    def message_cost(self, body_bytes: int) -> float:
        """Software cost of producing or consuming one GIOP message side."""
        return self.profile.per_call_overhead + body_bytes / self.profile.marshal_bandwidth

    def next_request_id(self) -> int:
        return next(self._request_ids)

    # -- server side (object adapter) -----------------------------------------------
    def activate_object(
        self, servant: Servant, interface: Interface, key: Optional[str] = None
    ) -> ObjectReference:
        """Register a servant and return its object reference."""
        object_key = (key or f"obj{len(self._servants)}").encode("utf-8")
        if object_key in self._servants:
            raise CorbaError(f"object key {object_key!r} already activated")
        self._servants[object_key] = (servant, interface)
        self._ensure_listening()
        return ObjectReference(self.node.host.name, self.port, object_key, interface.repo_id)

    def _ensure_listening(self) -> None:
        if self._listening:
            return
        self._listening = True
        listener_sock = self.syswrap.socket()
        listener_sock.bind((self.node.host.name, self.port))
        listener_sock.listen()
        self.sim.process(self._accept_loop(listener_sock), name=f"giop-accept-{self.port}")

    def _accept_loop(self, listener_sock: SysWrapSocket):
        while True:
            sock, _peer = yield listener_sock.accept()
            self.sim.process(self._serve_connection(sock), name="giop-server-conn")

    def _serve_connection(self, sock: SysWrapSocket):
        while True:
            try:
                header = yield sock.recv_exact(GIOP_HEADER_SIZE)
                msg_type, size, _version = GiopMessage.parse_header(header)
                payload = (yield sock.recv_exact(size, size >= GATHER_MIN)) if size else b""
            except (ConnectionError, OSError):
                return
            if msg_type != MSG_REQUEST:
                continue
            request = GiopMessage.decode(header, payload)
            # Demarshalling + POA dispatch cost on the server side.
            yield self.sim.timeout(self.message_cost(len(request.body)))
            reply = yield from self._dispatch(request)
            if reply is None:
                continue  # oneway
            # Marshalling cost of the reply on the server side.
            yield self.sim.timeout(self.message_cost(len(reply.body)))
            yield sock.send(reply.encode())

    def _dispatch(self, request: GiopMessage):
        entry = self._servants.get(request.object_key)
        if entry is None:
            return make_reply(
                request.request_id,
                f"unknown object key {request.object_key!r}".encode("utf-8"),
                status=REPLY_SYSTEM_EXCEPTION,
            )
        servant, interface = entry
        try:
            op = interface.operation(request.operation)
            args = op.decode_args(CdrInputStream(request.body))
            result = servant._dispatch(request.operation, args)
            if hasattr(result, "send") and hasattr(result, "throw"):
                # servant method is itself a generator (it performs nested
                # communication); run it to completion inside this process.
                result = yield from result
            self.requests_served += 1
            if op.oneway:
                return None
            out = CdrOutputStream()
            op.encode_result(out, result)
            return make_reply(request.request_id, out.getvalue())
        except Exception as exc:  # noqa: BLE001 - converted to a GIOP system exception
            return make_reply(
                request.request_id, str(exc).encode("utf-8"), status=REPLY_SYSTEM_EXCEPTION
            )

    # -- client side --------------------------------------------------------------------
    def string_to_object(self, ior: str, interface: Interface) -> Proxy:
        return Proxy(self, ObjectReference.from_string(ior), interface)

    def object_to_proxy(self, reference: ObjectReference, interface: Interface) -> Proxy:
        return Proxy(self, reference, interface)

    def _client_connection(self, reference: ObjectReference):
        key = (reference.host_name, reference.port)
        conn = self._client_conns.get(key)
        if conn is not None:
            return conn
        sock = self.syswrap.socket()
        yield sock.connect((reference.host_name, reference.port))
        conn = _ClientConnection(self, sock)
        self._client_conns[key] = conn
        return conn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ORB {self.profile.name} on {self.node.host.name}:{self.port}>"
