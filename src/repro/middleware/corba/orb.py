"""The ORB engine: object adapter, client stubs, GIOP over SysWrap sockets.

One :class:`ORB` instance per node plays both roles:

* **server** (POA): servants are activated with an object key; the ORB
  listens on its port through the SysWrap personality and dispatches
  incoming GIOP Requests onto servant methods;
* **client**: :class:`Proxy` objects marshal invocations with CDR, frame
  them in GIOP and send them through one client session per server.

The ORB never talks to the network directly: everything goes through the
SysWrap socket facade, so the same ORB code runs over Ethernet (SysIO
driver), Myrinet (MadIO driver) or any WAN method — the virtualisation claim
the paper makes for the real omniORB/Mico/ORBacus binaries.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from repro.personalities.syswrap import ONEWAY, ReplyQueue, RequestSession, SysWrap, SysWrapSocket
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


class Servant:
    """Base class for object implementations: methods named after operations."""


class Proxy:
    """Client stub for a remote object."""

    def __init__(self, orb: "ORB", reference: ObjectReference, interface: Interface):
        self.orb = orb
        self.sim = orb.sim
        self.reference = reference
        self.interface = interface
        address = (reference.host_name, reference.port)
        if address not in orb._sessions:  # one session per server, shared by its proxies
            orb._sessions[address] = RequestSession(orb.syswrap, address,
                lambda sock, *on: sock.on_records(GIOP_HEADER, body_size, *on), orb._match)
        self.session = orb._sessions[address]

    def invoke(self, operation: str, *args):
        """Invoke ``operation(*args)`` on the remote object (generator)."""
        op = self.interface.operation(operation)
        out = CdrOutputStream()
        op.encode_args(out, args)
        body = out.getvalue()
        orb = self.orb
        request = make_request(next(orb._request_ids), self.reference.object_key, operation, body)
        ev = self.sim.event(name="giop-call")
        # marshalling + stub cost on the client side delays the send; a
        # oneway call completes with its send
        self.session.call(orb.message_cost(len(body)), request.encode(), ev,
                          ONEWAY if op.oneway else request.request_id)
        yield ev
        if op.oneway:
            return None
        reply: GiopMessage = ev.value
        if reply.reply_status != REPLY_OK:
            raise CorbaError(
                f"system exception from {operation!r}: {str(bytes(reply.body), 'utf-8', 'replace')}"
            )
        return op.decode_result(CdrInputStream(reply.body))


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
        #: the client session to each server ``(host, port)``
        self._sessions: Dict[Tuple[str, int], RequestSession] = {}
        self.requests_served = 0

    # -- cost model -------------------------------------------------------------
    def message_cost(self, body_bytes: int) -> float:
        """Software cost of producing or consuming one GIOP message side."""
        return self.profile.per_call_overhead + body_bytes / self.profile.marshal_bandwidth

    # -- server side (object adapter) -----------------------------------------------
    def activate_object(
        self, servant: Servant, interface: Interface, key: Optional[str] = None
    ) -> ObjectReference:
        """Register a servant and return its object reference."""
        object_key = (key or f"obj{len(self._servants)}").encode("utf-8")
        if object_key in self._servants:
            raise CorbaError(f"object key {object_key!r} already activated")
        if not self._servants:  # the first servant opens the ORB's port
            listener = self.syswrap.socket()
            listener.bind((self.node.host.name, self.port))
            listener.listen()
            listener.on_ready(self._serve_connection)
        self._servants[object_key] = (servant, interface)
        return ObjectReference(self.node.host.name, self.port, object_key, interface.repo_id)

    def _serve_connection(self, sock: SysWrapSocket) -> None:
        """Answer the requests ``sock`` brings: a request's servant method is
        called once its demarshalling cost has elapsed, in arrival order; its
        reply, once marshalled, leaves after every earlier request's."""
        replies = ReplyQueue(sock, self._invoke, self._reply, self._fault)

        def on_request(_sock, fields, payload) -> None:
            request = GiopMessage.decode(fields, payload)
            if request.msg_type == MSG_REQUEST:
                replies.request(self.message_cost(len(request.body)), request)

        sock.on_records(GIOP_HEADER, body_size, on_request)

    def _invoke(self, request: GiopMessage):
        """``((request id, operation), the servant method's result)``."""
        entry = self._servants.get(request.object_key)
        if entry is None:
            raise CorbaError(f"unknown object key {request.object_key!r}")
        servant, interface = entry
        op = interface.operation(request.operation)
        args = op.decode_args(CdrInputStream(request.body))
        return (request.request_id, op), getattr(servant, request.operation)(*args)

    def _reply(self, call, result):
        """``(marshalling seconds, wire)`` of a result, None for a oneway."""
        request_id, op = call
        self.requests_served += 1
        if op.oneway:
            return None
        out = CdrOutputStream()
        op.encode_result(out, result)
        body = out.getvalue()
        return self.message_cost(len(body)), make_reply(request_id, body).encode()

    def _fault(self, request: GiopMessage, exc: Exception):
        """An exception, answered as a GIOP system exception."""
        body = str(exc).encode()
        reply = make_reply(request.request_id, body, status=REPLY_SYSTEM_EXCEPTION)
        return self.message_cost(len(body)), reply.encode()

    def _match(self, _sock, fields, payload):
        """The session's matcher: a GIOP Reply, by request id, once its
        demarshalling cost has elapsed; other messages are dropped."""
        reply = GiopMessage.decode(fields, payload)
        if reply.msg_type == MSG_REPLY:
            return reply.request_id, reply, self.message_cost(len(reply.body))

    # -- client side --------------------------------------------------------------------
    def string_to_object(self, ior: str, interface: Interface) -> Proxy:
        return Proxy(self, ObjectReference.from_string(ior), interface)

    def object_to_proxy(self, reference: ObjectReference, interface: Interface) -> Proxy:
        return Proxy(self, reference, interface)
