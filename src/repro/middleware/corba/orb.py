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

from repro.personalities.syswrap import ReplyQueue, SysWrap, SysWrapSocket
from repro.middleware.corba.cdr import CdrInputStream, CdrOutputStream
from repro.middleware.corba.giop import (
    GIOP_HEADER,
    GiopMessage,
    MSG_REPLY,
    MSG_REQUEST,
    REPLY_OK,
    REPLY_SYSTEM_EXCEPTION,
    body_size,
    make_reply,
    make_request,
)
from repro.middleware.corba.idl import Interface
from repro.middleware.corba.profiles import OrbProfile, OMNIORB_4


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
    """One cached client-side GIOP connection: replies are matched to their
    callers by request id as they arrive; a close fails every call still
    waiting for its reply."""

    def __init__(self, orb: "ORB", sock: SysWrapSocket):
        self.orb = orb
        self.sim = orb.sim
        self.sock = sock
        self._pending: Dict[int, object] = {}
        sock.on_records(GIOP_HEADER, body_size, self._on_reply, self._on_close)

    def send_request(self, message: GiopMessage, ev, oneway: bool) -> None:
        """Send ``message``: its caller's ``ev`` completes with the matched
        reply or, oneway, with the send."""
        if oneway:
            self.sock.send(message.encode(), ev)
        elif self.sock.post(message.encode(), ev):
            self._pending[message.request_id] = ev

    def _on_reply(self, _sock, fields, payload) -> None:
        reply = GiopMessage.decode(fields, payload)
        ev = self._pending.pop(reply.request_id, None) if reply.msg_type == MSG_REPLY else None
        if ev is not None:
            # Demarshalling cost of the reply on the client side.
            ev.succeed(reply, delay=self.orb.message_cost(len(reply.body)))

    def _on_close(self, _sock) -> None:
        pending, self._pending = self._pending, {}
        for ev in pending.values():
            ev.fail(ConnectionError("ORB server closed the connection"))


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
        cost = self.orb.message_cost(len(body))
        ev = self.sim.event(name="giop-call")
        conn = self.orb._client_conns.get((self.reference.host_name, self.reference.port))
        if conn is None:  # the first call connects once it is marshalled
            yield self.sim.timeout(cost)
            conn = yield from self.orb._connect(self.reference)
            conn.send_request(request, ev, op.oneway)
        else:
            self.sim.call_later(cost, conn.send_request, request, ev, op.oneway)
        reply: GiopMessage = yield ev
        if op.oneway:
            return None
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
        listener_sock.on_ready(self._serve_connection)

    def _serve_connection(self, sock: SysWrapSocket) -> None:
        """Answer the requests ``sock`` brings: a request's servant method is
        called once its demarshalling cost has elapsed, in arrival order; its
        reply, once marshalled, leaves after every earlier request's — a
        method that is a generator (it makes nested invocations) runs as a
        process of its own and holds back the replies behind it."""
        replies = ReplyQueue(sock, self._dispatch)

        def on_request(_sock, fields, payload) -> None:
            request = GiopMessage.decode(fields, payload)
            if request.msg_type == MSG_REQUEST:
                replies.request(self.message_cost(len(request.body)), request)

        sock.on_records(GIOP_HEADER, body_size, on_request)

    def _dispatch(self, request: GiopMessage):
        """The reply to ``request`` as ``(marshalling seconds, wire)`` (None
        for a oneway), or a generator returning it when the servant method is
        one (it makes nested invocations)."""
        try:
            entry = self._servants.get(request.object_key)
            if entry is None:
                raise CorbaError(f"unknown object key {request.object_key!r}")
            servant, interface = entry
            op = interface.operation(request.operation)
            args = op.decode_args(CdrInputStream(request.body))
            result = servant._dispatch(request.operation, args)
            if hasattr(result, "send") and hasattr(result, "throw"):
                return self._nested(request, op, result)
            return self._reply(request, op, result)
        except Exception as exc:  # noqa: BLE001 - converted to a GIOP system exception
            return self._system_exception(request, exc)

    def _nested(self, request: GiopMessage, op, method):
        try:
            return self._reply(request, op, (yield from method))
        except Exception as exc:  # noqa: BLE001 - converted to a GIOP system exception
            return self._system_exception(request, exc)

    def _reply(self, request: GiopMessage, op, result):
        self.requests_served += 1
        if op.oneway:
            return None
        out = CdrOutputStream()
        op.encode_result(out, result)
        body = out.getvalue()
        return self.message_cost(len(body)), make_reply(request.request_id, body).encode()

    def _system_exception(self, request: GiopMessage, exc: Exception):
        body = str(exc).encode()
        reply = make_reply(request.request_id, body, status=REPLY_SYSTEM_EXCEPTION)
        return self.message_cost(len(body)), reply.encode()

    # -- client side --------------------------------------------------------------------
    def string_to_object(self, ior: str, interface: Interface) -> Proxy:
        return Proxy(self, ObjectReference.from_string(ior), interface)

    def object_to_proxy(self, reference: ObjectReference, interface: Interface) -> Proxy:
        return Proxy(self, reference, interface)

    def _connect(self, reference: ObjectReference):
        """Open and cache the connection to ``reference``'s server (generator)."""
        sock = self.syswrap.socket()
        yield sock.connect((reference.host_name, reference.port))
        conn = _ClientConnection(self, sock)
        self._client_conns[(reference.host_name, reference.port)] = conn
        return conn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ORB {self.profile.name} on {self.node.host.name}:{self.port}>"
