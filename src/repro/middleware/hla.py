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
from typing import Dict, List, Optional, Set, Tuple

from repro.simnet.cost import MICROSECOND
from repro.personalities.syswrap import SysWrap, SysWrapSocket

_FRAME = struct.Struct("!I")
RTI_MESSAGE_OVERHEAD = 20.0 * MICROSECOND


class RtiError(RuntimeError):
    """Federation management errors."""


@dataclass
class _Federate:
    name: str
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
        self._objects: Dict[Tuple[str, int], Tuple[str, str]] = {}  # (fed, id) -> (class, owner)
        self._next_object_id = 1
        sock = self.syswrap.socket()
        sock.bind((node.host.name, port))
        sock.listen()
        self.sim.process(self._accept_loop(sock), name=f"rtig-accept-{port}")

    # -- wire helpers ------------------------------------------------------------
    @staticmethod
    def _encode(msg: dict) -> bytes:
        payload = pickle.dumps(msg, protocol=pickle.HIGHEST_PROTOCOL)
        return _FRAME.pack(len(payload)) + payload

    def _accept_loop(self, listener: SysWrapSocket):
        while True:
            sock, _peer = yield listener.accept()
            self.sim.process(self._serve(sock), name="rtig-conn")

    def _serve(self, sock: SysWrapSocket):
        federate: Optional[_Federate] = None
        federation: Optional[str] = None
        while True:
            try:
                header = yield sock.recv_exact(_FRAME.size)
                (size,) = _FRAME.unpack(header)
                payload = yield sock.recv_exact(size)
            except (ConnectionError, OSError):
                if federate is not None and federation is not None:
                    self._federations.get(federation, {}).pop(federate.name, None)
                return
            yield self.sim.timeout(RTI_MESSAGE_OVERHEAD)
            msg = pickle.loads(payload)
            kind = msg["kind"]
            if kind == "create_federation":
                self._federations.setdefault(msg["federation"], {})
                yield sock.send(self._encode({"kind": "ack"}))
            elif kind == "join":
                federation = msg["federation"]
                if federation not in self._federations:
                    yield sock.send(
                        self._encode({"kind": "error", "message": "no such federation"})
                    )
                    continue
                federate = _Federate(msg["federate"], sock)
                self._federations[federation][federate.name] = federate
                yield sock.send(self._encode({"kind": "joined", "federate": federate.name}))
            elif kind == "publish":
                federate.published.add(msg["object_class"])
                yield sock.send(self._encode({"kind": "ack"}))
            elif kind == "subscribe":
                federate.subscriptions.add(msg["object_class"])
                yield sock.send(self._encode({"kind": "ack"}))
            elif kind == "register_object":
                object_id = self._next_object_id
                self._next_object_id += 1
                self._objects[(federation, object_id)] = (msg["object_class"], federate.name)
                yield sock.send(self._encode({"kind": "object_registered", "object_id": object_id}))
            elif kind == "update":
                object_class, _owner = self._objects.get(
                    (federation, msg["object_id"]), (msg.get("object_class", ""), "")
                )
                notification = self._encode(
                    {
                        "kind": "reflect",
                        "object_id": msg["object_id"],
                        "object_class": object_class,
                        "attributes": msg["attributes"],
                        "sender": federate.name,
                        "timestamp": msg.get("timestamp"),
                    }
                )
                for other in self._federations.get(federation, {}).values():
                    if other.name != federate.name and object_class in other.subscriptions:
                        other.sock.send(notification)
                yield sock.send(self._encode({"kind": "ack"}))
            else:
                yield sock.send(self._encode({"kind": "error", "message": f"unknown {kind!r}"}))


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
        self.rtig_host = rtig_host
        self.port = port
        self.syswrap = SysWrap(node.vlink)
        self.federate_ambassador = federate_ambassador or FederateAmbassador()
        self._sock: Optional[SysWrapSocket] = None
        self._replies: List = []
        self._reply_waiters: List = []

    # -- connection and request/response plumbing ----------------------------------
    def _ensure_connected(self):
        if self._sock is not None:
            return
        sock = self.syswrap.socket()
        yield sock.connect((self.rtig_host, self.port))
        self._sock = sock
        self.sim.process(self._reader(), name="federate-reader")

    def _reader(self):
        while True:
            try:
                header = yield self._sock.recv_exact(_FRAME.size)
                (size,) = _FRAME.unpack(header)
                payload = yield self._sock.recv_exact(size)
            except (ConnectionError, OSError):
                return
            msg = pickle.loads(payload)
            if msg["kind"] == "reflect":
                self.federate_ambassador.reflect_attribute_values(
                    msg["object_id"], msg["object_class"], msg["attributes"],
                    msg["sender"], msg.get("timestamp"),
                )
            else:
                if self._reply_waiters:
                    ev = self._reply_waiters.pop(0)
                    if not ev.triggered:
                        ev.succeed(msg)
                else:
                    self._replies.append(msg)

    def _request(self, msg: dict):
        yield from self._ensure_connected()
        yield self.sim.timeout(RTI_MESSAGE_OVERHEAD)
        yield self._sock.send(RtiGateway._encode(msg))
        if self._replies:
            return self._replies.pop(0)
        ev = self.sim.event(name="rti-reply")
        self._reply_waiters.append(ev)
        reply = yield ev
        if reply.get("kind") == "error":
            raise RtiError(reply.get("message", "RTI error"))
        return reply

    # -- federation management services ---------------------------------------------------
    def create_federation_execution(self, federation: str):
        yield from self._request({"kind": "create_federation", "federation": federation})

    def join_federation_execution(self, federate: str, federation: str):
        reply = yield from self._request(
            {"kind": "join", "federate": federate, "federation": federation}
        )
        return reply["federate"]

    # -- declaration management --------------------------------------------------------------
    def publish_object_class(self, object_class: str):
        yield from self._request({"kind": "publish", "object_class": object_class})

    def subscribe_object_class(self, object_class: str):
        yield from self._request({"kind": "subscribe", "object_class": object_class})

    # -- object management ---------------------------------------------------------------------
    def register_object_instance(self, object_class: str):
        reply = yield from self._request(
            {"kind": "register_object", "object_class": object_class}
        )
        return reply["object_id"]

    def update_attribute_values(self, object_id: int, attributes: Dict[str, object],
                                timestamp: Optional[float] = None):
        yield from self._request(
            {
                "kind": "update",
                "object_id": object_id,
                "attributes": attributes,
                "timestamp": timestamp,
            }
        )
