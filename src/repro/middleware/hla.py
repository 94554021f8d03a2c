"""An HLA Run-Time Infrastructure (RTI) in the Certi mould.

§4.3: "an HLA implementation (Certi from the Onera)" is among the middleware
ported onto PadicoTM through SysWrap.  HLA (IEEE 1516) structures a
distributed simulation as a *federation* of *federates* that publish and
subscribe object-class attributes and exchange interactions; the RTI routes
attribute updates to subscribers and manages federation membership.

This module implements a central-RTIG architecture (like Certi): one node
runs the RTI gateway (:class:`RtiGateway`); each federate connects to it
through a :class:`FederateAmbassador`-carrying :class:`RtiAmbassador`.
Transport is SysWrap sockets with length-prefixed pickled control messages —
HLA traffic is control-plane-ish, so unlike the CORBA path no cost profile
calibration is attempted beyond a fixed per-message overhead.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Dict, Optional, Set, Tuple

from repro.simnet.cost import MICROSECOND
from repro.personalities.syswrap import RequestSession, SysWrap, SysWrapSocket

_FRAME = struct.Struct("!I")
_frame_len = itemgetter(0)
_REFLECTED = itemgetter("object_id", "object_class", "attributes", "sender", "timestamp")
RTI_MESSAGE_OVERHEAD = 20.0 * MICROSECOND


class RtiError(RuntimeError):
    """Federation management errors."""


@dataclass
class _Federate:
    name: str
    federation: str
    sock: SysWrapSocket
    subscriptions: Set[str] = field(default_factory=set)
    published: Set[str] = field(default_factory=set)


class RtiGateway:
    """The central RTI process (RTIG): federation state + update routing."""

    def __init__(self, node, port: int = 17000):
        self.node = node
        self.sim = node.sim
        self.port = port
        self.syswrap = SysWrap(node.vlink)
        self._federations: Dict[str, Dict[str, _Federate]] = {}
        self._objects: Dict[Tuple[str, int], str] = {}  # (federation, id) -> class
        self._next_object_id = 1
        #: the federate each connection joined as
        self._members: Dict[SysWrapSocket, _Federate] = {}
        sock = self.syswrap.socket()
        sock.bind((node.host.name, port))
        sock.listen()
        # a message is served RTI_MESSAGE_OVERHEAD after it arrived
        serve = partial(self.sim.call_later, RTI_MESSAGE_OVERHEAD, self._serve)
        sock.on_ready(lambda conn: conn.on_records(_FRAME, _frame_len, serve, self._closed))

    # -- wire helpers ------------------------------------------------------------
    @staticmethod
    def _encode(msg: dict) -> bytes:
        payload = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        return _FRAME.pack(len(payload)) + payload

    def _closed(self, sock: SysWrapSocket) -> None:
        federate = self._members.pop(sock, None)
        if federate is not None:
            self._federations.get(federate.federation, {}).pop(federate.name, None)

    def _serve(self, sock: SysWrapSocket, _fields, payload) -> None:
        """Answer one message; a federation service from a connection that
        has not joined is an error."""
        msg = pickle.loads(bytes(payload))
        kind = msg["kind"]
        federate = self._members.get(sock)
        if kind == "create_federation":
            self._federations.setdefault(msg["federation"], {})
            reply = {"kind": "ack"}
        elif kind == "join":
            federation = self._federations.get(msg["federation"])
            if federation is None:
                reply = {"kind": "error", "message": "no such federation"}
            else:
                federate = _Federate(msg["federate"], msg["federation"], sock)
                federation[federate.name] = self._members[sock] = federate
                reply = {"kind": "joined", "federate": federate.name}
        elif federate is None:
            reply = {"kind": "error", "message": f"{kind!r} before joining a federation"}
        elif kind == "publish":
            federate.published.add(msg["object_class"])
            reply = {"kind": "ack"}
        elif kind == "subscribe":
            federate.subscriptions.add(msg["object_class"])
            reply = {"kind": "ack"}
        elif kind == "register_object":
            object_id = self._next_object_id
            self._next_object_id += 1
            self._objects[(federate.federation, object_id)] = msg["object_class"]
            reply = {"kind": "object_registered", "object_id": object_id}
        elif kind == "update":
            object_class = self._objects.get(
                (federate.federation, msg["object_id"]), msg.get("object_class", "")
            )
            notification = self._encode({
                "kind": "reflect", "object_id": msg["object_id"], "object_class": object_class,
                "attributes": msg["attributes"], "sender": federate.name,
                "timestamp": msg.get("timestamp"),
            })
            for other in self._federations.get(federate.federation, {}).values():
                if other.name != federate.name and object_class in other.subscriptions:
                    other.sock.post(notification)
            reply = {"kind": "ack"}
        else:
            reply = {"kind": "error", "message": f"unknown {kind!r}"}
        sock.post(self._encode(reply))  # the federate may have left meanwhile


class FederateAmbassador:
    """Callback interface implemented by the federate application."""

    def reflect_attribute_values(self, object_id: int, object_class: str,
                                 attributes: Dict[str, object], sender: str,
                                 timestamp: Optional[float]) -> None:
        """Called when a subscribed object's attributes are updated."""


class RtiAmbassador:
    """The federate-side API (a small subset of the IEEE 1516 services)."""

    def __init__(self, node, rtig_host, port: int = 17000,
                 federate_ambassador: Optional[FederateAmbassador] = None):
        self.node = node
        self.sim = node.sim
        self.syswrap = SysWrap(node.vlink)
        self.federate_ambassador = federate_ambassador or FederateAmbassador()
        self.session = RequestSession(
            self.syswrap, (rtig_host, port),
            lambda sock, *on: sock.on_records(_FRAME, _frame_len, *on), self._match)

    # -- request/response plumbing -------------------------------------------------------
    def _match(self, _sock, _fields, payload):
        """The session's matcher: replies come in request order; a reflection
        goes to the federate ambassador."""
        msg = pickle.loads(bytes(payload))
        if msg["kind"] != "reflect":
            return None, msg, 0.0
        self.federate_ambassador.reflect_attribute_values(*_REFLECTED(msg))

    def _request(self, msg: dict, answer: Optional[str] = None):
        """The reply's ``answer`` field (generator); the federate's cost delays the send."""
        reply = self.sim.event(name="rti-reply")
        self.session.call(RTI_MESSAGE_OVERHEAD, RtiGateway._encode(msg), reply)
        reply = yield reply
        if reply.get("kind") == "error":
            raise RtiError(reply.get("message", "RTI error"))
        return reply.get(answer)

    # -- federation management services ---------------------------------------------------
    def create_federation_execution(self, federation: str):
        return self._request({"kind": "create_federation", "federation": federation})

    def join_federation_execution(self, federate: str, federation: str):
        return self._request({"kind": "join", "federate": federate, "federation": federation},
                             "federate")

    # -- declaration management --------------------------------------------------------------
    def publish_object_class(self, object_class: str):
        return self._request({"kind": "publish", "object_class": object_class})

    def subscribe_object_class(self, object_class: str):
        return self._request({"kind": "subscribe", "object_class": object_class})

    # -- object management ---------------------------------------------------------------------
    def register_object_instance(self, object_class: str):
        return self._request({"kind": "register_object", "object_class": object_class},
                             "object_id")

    def update_attribute_values(self, object_id: int, attributes: Dict[str, object],
                                timestamp: Optional[float] = None):
        return self._request({"kind": "update", "object_id": object_id,
                              "attributes": attributes, "timestamp": timestamp})
