"""Adaptive VLinks: live connections that survive topology changes.

The abstraction layer selects the best adapter *at connect time*; once the
monitoring subsystem (:mod:`repro.monitoring`) started mutating the topology
knowledge base at runtime, that decision can go stale while the connection
is still open — the WAN under a stream degrades into a lossy WAN, or dies
entirely while a gateway route would still work.  An *adaptive* VLink keeps
the five-primitive VLink surface but decouples the session from the rail
that carries it:

* every byte of each direction has an absolute **stream offset**; payload
  travels in small ``(offset, length)`` frames and the receiver delivers
  strictly by contiguous offset, acknowledging what it has delivered;
* the sender keeps unacknowledged bytes buffered, so when the host's
  :class:`AdaptiveSessions` re-runs selection after a topology change and
  the best route differs, the session **migrates**: a new rail is opened
  (through the normal selector/relay machinery, so it may ride a different
  method driver or a gateway chain), and the same rail handshake that
  opened the session resumes it — each side reports the bytes it has
  delivered and retransmits exactly the bytes the other has not seen;
* duplicate suppression by offset makes the scheme idempotent: nothing is
  lost and nothing is reordered, whatever was in flight when the old rail
  disappeared.

Only drivers that never surrender bytes may carry a rail (``reliable_only``
selection): a VRP driver with non-zero tolerance would hole the framed
stream.  Gateways auto-register VRP at zero tolerance for the same reason.
"""

from __future__ import annotations

import itertools
import struct
import zlib
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro.simnet.buffers import StreamBuffer
from repro.simnet.engine import SimEvent
from repro.simnet.host import Host
from repro.abstraction.common import AbstractionError
from repro.abstraction.records import no_body, read_hello, read_records
from repro.abstraction.routing import Route, RouteChoice
from repro.abstraction.vlink import (
    VLink,
    VLinkListener,
    VLinkManager,
    VLinkOperation,
    VLinkState,
)


#: session handshake, client -> server on every new rail:
#: magic, session id, kind (new/resume), bytes delivered of the
#: server->client stream at the client.
_HELLO = struct.Struct("!4sQBQ")
_HELLO_MAGIC = b"ADSN"
SESSION_NEW = 0
SESSION_RESUME = 1

#: handshake reply, server -> client: magic, status, bytes delivered of the
#: client->server stream at the server.
_REPLY = struct.Struct("!4sBQ")
_REPLY_MAGIC = b"ADSA"
_STATUS_OK = 1
_STATUS_UNKNOWN = 0

#: rail frame header: type, stream offset, payload length.
_FRAME = struct.Struct("!BQI")
_frame_len = itemgetter(2)
_T_DATA = 1
_T_ACK = 2
_T_CLOSE = 3

#: virtual seconds before an unfinished rail handshake is abandoned.  A
#: connect towards a link that died *after* selection blackholes forever
#: (SYNs vanish); the timeout fails a new session's connect, and unblocks a
#: migrating one so the next topology verdict can route around the failure.
MIGRATION_TIMEOUT = 0.5

#: virtual seconds before a dead-rail session retries migration after a
#: failed attempt.  Must be non-zero: a synchronous connect failure (e.g.
#: the route's gateway has no relay) would otherwise re-enter migrate()
#: in the same-timestamp event batch forever, hanging the simulator.
MIGRATION_RETRY_DELAY = MIGRATION_TIMEOUT / 8

#: minimum dwell (virtual seconds) on the current rail after a successful
#: migration before another *preference-driven* migration is allowed.
#: Passive probes on a loaded backup WAN depress its measured bandwidth
#: enough to flip the route weights back and forth; without a dwell every
#: flip migrates every open session (the circuits benchmark showed ~20
#: migrations where ~8 do the work).  Dead rails and routes through
#: down links/hosts migrate immediately regardless.
ROUTE_MIN_DWELL = 0.4

#: the host service under which a host's :class:`AdaptiveSessions` lives
ADAPTIVE_SERVICE = "adaptive-sessions"


def route_signature(route: "Optional[Route | RouteChoice]") -> Optional[Tuple]:
    """A comparable fingerprint of a route decision (method/network/host per
    hop); two rails are equivalent iff their signatures match."""
    if route is None:
        return None
    hops = route.hops if isinstance(route, Route) else [route]
    return tuple(
        (
            hop.method,
            hop.network.name if hop.network is not None else None,
            hop.dst.name if hop.dst is not None else None,
        )
        for hop in hops
    )


class AdaptiveVLink:
    """One end of a migratable, reliable, ordered byte-stream session.

    Presents the VLink surface (``write``/``read``/``close``, non-blocking
    helpers, data handler); a ``write`` operation completes when the peer
    has *delivered* the bytes (cumulative ack), which is what makes them
    safe to drop from the retransmission buffer.
    """

    def __init__(
        self,
        manager: VLinkManager,
        owner: "AdaptiveSessions | AdaptiveListener",
        session_id: int,
        dst_host: Optional[Host],
        port: int,
        role: str,
    ):
        self.manager = manager
        self.sim = manager.sim
        #: the registry that holds this session while it is open: the host's
        #: :class:`AdaptiveSessions` (client) or the :class:`AdaptiveListener`
        #: that accepted it (server)
        self.owner = owner
        self.session_id = session_id
        self.dst_host = dst_host
        self.port = port
        self.role = role  # "client" originates rails; "server" accepts them
        #: optional route source consulted for every rail (initial connect
        #: and each migration): adaptive *circuit* legs pass the selector's
        #: circuit-hop pinning here, so their rails follow circuit policy
        #: instead of the plain VLink table.  Returning ``None`` falls back
        #: to the manager's own selection.
        self.route_provider: Optional[Callable[[], Optional[Route]]] = None
        self.state = VLinkState.CONNECTING
        self.rail: Optional[VLink] = None
        self.rail_signature: Optional[Tuple] = None
        self.buffer = StreamBuffer(self.sim)  # inbound, app-visible
        # outbound bookkeeping (absolute stream offsets)
        self.out_offset = 0  # bytes accepted from the application
        self.sent_offset = 0  # bytes pushed onto the current rail
        self.peer_acked = 0  # cumulative ack from the peer
        self.in_delivered = 0  # bytes of the inbound stream delivered
        self._out_buffer: List[Tuple[int, bytes]] = []  # unacked chunks
        self._write_waiters: List[Tuple[int, VLinkOperation]] = []
        self.migrations = 0
        #: when the last successful migration attached its rail; the host's
        #: re-selection enforces a minimum dwell from this point before a
        #: purely preference-driven (signature-change) migration, so
        #: measured-metric noise cannot flap the route (dead rails and
        #: non-viable routes bypass the dwell).
        self.last_migration_at: Optional[float] = None
        self.last_migration_error: Optional[BaseException] = None
        #: the operation a new client session's connect completes
        self._connect_op: Optional[VLinkOperation] = None
        self._migrating = False  # a rail handshake is in flight
        self._remigrate = False
        #: the current rail died underneath us (close propagated from the
        #: transport).  While True, re-selection must migrate even when the
        #: recomputed route's signature equals the dead rail's — a fresh
        #: rail along the same route is still the fix.
        self._rail_dead = False
        self._attempt = 0  # epoch guarding stale handshake completions
        self._migration_timer = None  # cancellable TimerHandle of the attempt
        #: True when the peer closed while promising bytes we never received
        #: (only possible when the carrying wire died with data in flight).
        self.truncated = False
        self.bytes_read = 0

    # -- VLink-compatible primitives -------------------------------------------
    def write(self, data: bytes, done: Optional[SimEvent] = None) -> SimEvent:
        """Post a write; completes (``done``, when the layer above hands its
        own operation down) once the peer has delivered the bytes."""
        if self.state is VLinkState.CLOSED:
            raise AbstractionError("write() on a closed adaptive VLink")
        if type(data) is not bytes:
            data = bytes(data)  # the retransmission buffer must own the bytes
        op = done if done is not None else VLinkOperation(self.sim, "write", None)
        if not data:
            op.succeed(0)
            return op
        start = self.out_offset
        self.out_offset += len(data)
        self._out_buffer.append((start, data))
        self._write_waiters.append((self.out_offset, op))
        self._flush()
        return op

    def read(
        self, nbytes: int, exact: bool = True, done: Optional[SimEvent] = None, gather=False
    ) -> SimEvent:
        op = done if done is not None else VLinkOperation(self.sim, "read", None)
        op.add_callback(self._count_read)
        if exact:
            return self.buffer.recv_exact(nbytes, op, gather)
        return self.buffer.recv(nbytes, op, gather)

    _count_read = VLink._count_read

    def close(self) -> VLinkOperation:
        op = VLinkOperation(self.sim, "close", None)
        if self.state is VLinkState.CLOSED:
            op.succeed(None)
            return op
        self.state = VLinkState.CLOSED
        self._attempt += 1  # a migration completing after close is stale
        self._cancel_migration_timer()
        rail = self.rail
        if rail is not None and rail.state is VLinkState.ESTABLISHED:
            try:
                # last chance for buffered bytes: push them onto whatever
                # rail is still standing (a migration in flight no longer
                # matters — this session will not resume), then notify.
                self._migrating = False
                self._flush()
                # the transport close must wait for the CLOSE frame to reach
                # the peer (closing a TCP rail aborts unpumped sends); a dead
                # wire is covered by the timeout fallback.
                notify = rail.write(_FRAME.pack(_T_CLOSE, self.out_offset, 0))
                guard = self.sim.call_later(MIGRATION_TIMEOUT, self._close_rail, rail)
                notify.add_callback(
                    lambda _ev: (guard.cancel(), self._close_rail(rail))
                )
            except Exception:
                self._close_rail(rail)
        else:
            self._fail_pending_writes("adaptive VLink closed")
        self._forget()
        self.buffer.close()
        op.succeed(None)
        return op

    def _close_rail(self, rail: VLink) -> None:
        if rail.state is not VLinkState.CLOSED:
            rail.close()
        # acks can no longer arrive: whatever the peer did not confirm by
        # now will never complete — writers must not hang forever.
        self._fail_pending_writes("adaptive VLink closed")

    def _fail_pending_writes(self, reason: str) -> None:
        waiters, self._write_waiters = self._write_waiters, []
        for _end, op in waiters:
            if not op.triggered:
                op.fail(ConnectionError(reason))

    # -- non-blocking helpers ----------------------------------------------------
    def available(self) -> int:
        return self.buffer.available()

    def peek(self, nbytes: int) -> bytes:
        return self.buffer.peek(nbytes)

    def read_available(self, limit: Optional[int] = None, gather: bool = False):
        data = self.buffer.read_available(limit, gather)
        self.bytes_read += len(data)
        return data

    def set_data_handler(self, fn: Optional[Callable[["AdaptiveVLink"], None]]) -> None:
        if fn is None:
            self.buffer.set_data_callback(None)
        else:
            self.buffer.set_data_callback(lambda: fn(self))

    set_data_callback = set_data_handler

    @property
    def peer_name(self) -> str:
        if self.dst_host is not None:
            return self.dst_host.name
        return self.rail.peer_name if self.rail is not None else "?"

    @property
    def driver_name(self) -> str:
        return self.rail.driver_name if self.rail is not None else "?"

    @property
    def route(self):
        return self.rail.route if self.rail is not None else None

    @property
    def unacked(self) -> int:
        """Bytes written but not yet delivered at the peer."""
        return self.out_offset - self.peer_acked

    # -- rail management -----------------------------------------------------------
    def _attach_rail(self, rail: VLink, peer_delivered: int) -> None:
        """Adopt ``rail`` as the carrier; resend everything past
        ``peer_delivered`` (the bytes the peer reported as delivered)."""
        old = self.rail
        if old is not None and old is not rail:
            old.set_close_handler(None)
            old.set_data_handler(lambda link: link.read_available())  # drain strays
            if old.state is not VLinkState.CLOSED:
                old.close()
        self.rail = rail
        self.rail_signature = route_signature(rail.route)
        self._rail_dead = False
        self._on_ack(peer_delivered)
        self.sent_offset = peer_delivered
        rail.set_data_handler(self._on_rail_data)
        rail.set_close_handler(self._on_rail_closed)
        self._flush()

    def _flush(self) -> None:
        """Push every not-yet-sent byte onto the live rail, in offset order."""
        rail = self.rail
        if rail is None or self._migrating or rail.state is not VLinkState.ESTABLISHED:
            return
        for offset, chunk in self._out_buffer:
            end = offset + len(chunk)
            if end <= self.sent_offset:
                continue
            if offset < self.sent_offset:
                chunk = chunk[self.sent_offset - offset :]
                offset = self.sent_offset
            try:
                rail.write(_FRAME.pack(_T_DATA, offset, len(chunk)) + chunk)
            except Exception:
                return  # rail died mid-flush; bytes stay buffered for resume
            self.sent_offset = offset + len(chunk)

    def _send_ack(self) -> None:
        rail = self.rail
        if rail is None or rail.state is not VLinkState.ESTABLISHED:
            return
        try:
            rail.write(_FRAME.pack(_T_ACK, self.in_delivered, 0))
        except Exception:
            pass

    # -- receive path ----------------------------------------------------------------
    def _on_rail_data(self, rail: VLink) -> None:
        if rail is not self.rail:
            rail.read_available()
            return
        got_data = False
        for (kind, offset, _length), payload in read_records(rail, _FRAME, _frame_len):
            if kind == _T_DATA:
                # a frame is delivered flat: a read that matches it gets it whole
                got_data = self._on_data(offset, bytes(payload)) or got_data
            elif kind == _T_ACK:
                self._on_ack(offset)
            elif kind == _T_CLOSE:
                self._on_peer_close(offset)
                return
        if got_data:
            self._send_ack()

    def _on_data(self, offset: int, payload: bytes) -> bool:
        end = offset + len(payload)
        if end <= self.in_delivered:
            return False  # duplicate (retransmission overlap): drop
        if offset > self.in_delivered:
            # a rail is in order and every resume restarts at our own
            # in_delivered, so a hole means the framing itself is broken
            raise AbstractionError(
                f"adaptive session {self.session_id:#x}: frame at offset {offset} "
                f"past the {self.in_delivered} bytes delivered"
            )
        fresh = payload[self.in_delivered - offset :]
        self.in_delivered += len(fresh)
        self.buffer.append(fresh)
        return True

    def _on_ack(self, acked: int) -> None:
        if acked <= self.peer_acked:
            return
        self.peer_acked = acked
        self._out_buffer = [
            (offset, chunk)
            for offset, chunk in self._out_buffer
            if offset + len(chunk) > acked
        ]
        while self._write_waiters and self._write_waiters[0][0] <= acked:
            end, op = self._write_waiters.pop(0)
            if not op.triggered:
                op.succeed(end)

    def _on_peer_close(self, final_offset: Optional[int] = None) -> None:
        if self.state is VLinkState.CLOSED:
            return
        self.state = VLinkState.CLOSED
        self._attempt += 1  # a migration completing after close is stale
        self._cancel_migration_timer()
        if final_offset is not None and final_offset > self.in_delivered:
            # the peer promised bytes that never reached us: the rails they
            # travelled on are gone.  Flag it — this is not a clean EOF.
            self.truncated = True
        rail = self.rail
        if rail is not None and rail.state is not VLinkState.CLOSED:
            rail.close()
        self._fail_pending_writes("peer closed the adaptive VLink")
        self._forget()
        self.buffer.close()

    def _forget(self) -> None:
        """Drop this session from the registry that holds it."""
        self.owner.sessions.pop(self.session_id, None)

    def _on_rail_closed(self, rail: VLink) -> None:
        """The carrier died under us (relay teardown, peer transport loss).

        A client re-opens along whatever the selector currently thinks is
        best (possibly the same signature: a fresh rail is still the fix);
        a server keeps the session, the client will resume on a new rail."""
        if rail is not self.rail or self.state is not VLinkState.ESTABLISHED:
            return
        self._rail_dead = True
        self.migrate(reason="rail closed")

    # -- the rail handshake ------------------------------------------------------------
    def migrate(self, reason: str = "") -> None:
        """Open a new rail via current selection and resume the session on it."""
        if self.state is not VLinkState.ESTABLISHED or self.role != "client":
            return
        if self._migrating:
            self._remigrate = True
            return
        if self.manager.gateway_provisioner is not None:
            # the replacement route may relay through gateways that are not
            # booted (or lack the WAN method drivers) yet
            self.manager.gateway_provisioner(self.dst_host)
        self._open_rail()

    def _open_rail(self) -> None:
        """Open a rail along the current route and send the session hello on
        it at ``in_delivered``: ``SESSION_NEW`` (at 0) while the session
        connects, ``SESSION_RESUME`` once it is established.  Only the
        ending differs — :meth:`_on_reply` and :meth:`_handshake_failed`."""
        self._migrating = True
        self._attempt += 1
        attempt_id = self._attempt
        self.manager.connect(
            self.dst_host, self.port, reliable_only=True, route=self._provided_route()
        ).add_callback(lambda ev: self._on_rail(ev, attempt_id))
        self._migration_timer = self.sim.call_later(MIGRATION_TIMEOUT, self._handshake_timeout)

    def _on_rail(self, ev, attempt_id: int) -> None:
        if attempt_id != self._attempt:
            if ev.ok:
                self._discard_stale_rail(ev.value)
            return
        if not ev.ok:
            self._handshake_failed(ev.value)
            return
        rail: VLink = ev.value
        if self.state is VLinkState.CONNECTING:
            kind, self.rail = SESSION_NEW, rail  # closed by a handshake timeout
        else:
            kind = SESSION_RESUME
        try:
            rail.write(_HELLO.pack(_HELLO_MAGIC, self.session_id, kind, self.in_delivered))
        except Exception as exc:  # the listener refused/closed the rail already
            self._handshake_failed(
                self._refused() if kind == SESSION_NEW else ConnectionError(str(exc)), rail
            )
            return
        rail.read(_REPLY.size).add_callback(lambda rev: self._on_reply(rev, rail, attempt_id))

    def _on_reply(self, rev, rail: VLink, attempt_id: int) -> None:
        if attempt_id != self._attempt:
            self._discard_stale_rail(rail)
            return
        if not rev.ok:
            self._handshake_failed(rev.value, rail)
            return
        magic, status, peer_delivered = _REPLY.unpack(rev.value)
        if magic != _REPLY_MAGIC or status != _STATUS_OK:
            self._handshake_failed(self._refused(), rail)
            return
        self._cancel_migration_timer()
        self._migrating = False
        if self.state is VLinkState.CONNECTING:
            self.state = VLinkState.ESTABLISHED
            self._attach_rail(rail, peer_delivered)
            self.owner.sessions[self.session_id] = self
            self._connect_op.succeed(self)
            return
        self.migrations += 1
        self.last_migration_at = self.sim.now
        self.last_migration_error = None
        tele = self.sim.telemetry
        if tele is not None:
            tele.emit(
                "route.migrate",
                session=f"{self.session_id:#x}",
                peer=self.peer_name,
                migrations=self.migrations,
            )
        self._attach_rail(rail, peer_delivered)
        self._send_ack()
        if self._remigrate:
            # a migration queued during this one happens only if the route
            # really changed again
            self._remigrate = False
            self.sim.call_later(0.0, self.owner.reroute)

    def _refused(self) -> ConnectionRefusedError:
        if self.state is VLinkState.CONNECTING:
            return ConnectionRefusedError(f"no adaptive listener on port {self.port}")
        return ConnectionRefusedError(
            f"peer no longer knows adaptive session {self.session_id:#x}"
        )

    def _handshake_timeout(self) -> None:
        self._migration_timer = None
        self._attempt += 1  # a late completion of this attempt is now stale
        if self.state is VLinkState.CONNECTING:
            # the wire can die between rail establishment and the reply; the
            # caller must get a failure, not an eternally pending connect.
            self._handshake_failed(
                TimeoutError(f"adaptive handshake to {self.peer_name}:{self.port} timed out"),
                self.rail,
            )
            return
        # The attempt's RESUME hello may have reached the listener even
        # though the reply never made it back (it died with a gateway): the
        # server may already carry the session on the abandoned rail.  The
        # old rail is therefore suspect — reconverge through a fresh resume
        # (idempotent) instead of assuming it still reaches the peer.
        # _migration_failed schedules the re-evaluation.
        self._rail_dead = True
        self._migration_failed(TimeoutError("migration attempt timed out"))

    def _handshake_failed(self, exc: BaseException, rail: Optional[VLink] = None) -> None:
        """End a failed handshake: close its rail, then fail the connect of
        a new session, or leave a migrating one on its old rail."""
        if rail is not None and rail.state is not VLinkState.CLOSED:
            rail.close()
        if self.state is not VLinkState.CONNECTING:
            self._migration_failed(exc)
            return
        self._cancel_migration_timer()
        self.state = VLinkState.CLOSED
        self._connect_op.fail(exc)

    def _discard_stale_rail(self, rail: VLink) -> None:
        """Drop a rail from a superseded handshake attempt — carefully.

        The rail's RESUME hello may already have reached the listener, in
        which case the *server* adopted it as the session carrier and
        detached whatever rail this side still considers current (split
        brain: our writes are drained and dropped over there).  Closing the
        late rail alone would deadlock the session, so treat the current
        rail as suspect and reconverge through a fresh resume handshake —
        idempotent by construction (cumulative acks, duplicate suppression
        by offset).
        """
        if rail.state is not VLinkState.CLOSED:
            rail.close()
        if self.state is VLinkState.ESTABLISHED:
            self._rail_dead = True
            self.sim.call_later(0.0, self.owner.reroute)

    def _provided_route(self) -> Optional[Route]:
        """The externally pinned route for the next rail, if any."""
        if self.route_provider is None:
            return None
        try:
            return self.route_provider()
        except AbstractionError:
            return None

    def _cancel_migration_timer(self) -> None:
        timer, self._migration_timer = self._migration_timer, None
        if timer is not None:
            timer.cancel()

    def _migration_failed(self, exc: BaseException) -> None:
        self._cancel_migration_timer()
        self._migrating = False
        retry = self._remigrate or self._rail_dead
        self._remigrate = False
        self.last_migration_error = exc
        # With a live old rail the next topology change retries.  But when
        # the rail is already dead — or a re-migration was queued while this
        # attempt was in flight — nobody else will: re-evaluate soon (the
        # dead-rail check migrates even on an identical route signature).
        # The delay is what keeps a synchronously failing connect from
        # hot-looping the same timestamp.
        if retry and self.state is VLinkState.ESTABLISHED:
            self.sim.call_later(MIGRATION_RETRY_DELAY, self.owner.reroute)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AdaptiveVLink #{self.session_id:#x} {self.role} -> {self.peer_name} "
            f"state={self.state.value} migrations={self.migrations}>"
        )


class AdaptiveSessions:
    """The adaptive sessions one host originated, and when they migrate.

    Subscribed to the topology knowledge base: after every change it re-runs
    rail selection for each open session and migrates those whose rail died
    or whose best route differs — unless the session migrated less than
    :data:`ROUTE_MIN_DWELL` ago and its rail's route is still viable (route
    flap damping).  One per host, made by the host's first adaptive connect.
    """

    def __init__(self, manager: VLinkManager):
        self.manager = manager
        self.sim = manager.sim
        #: open client sessions (migration candidates), by session id
        self.sessions: Dict[int, AdaptiveVLink] = {}
        #: session ids: the host name's CRC in the upper 32 bits, a counter below
        self._ids = itertools.count((zlib.crc32(manager.host.name.encode("utf-8")) << 32) + 1)
        self._reroute_scheduled = False
        self._dwell_rechecks: set = set()  # sessions with a dwell-expiry recheck pending
        manager.selector.topology.subscribe(self._on_topology_change)

    @staticmethod
    def of(manager: VLinkManager) -> "AdaptiveSessions":
        """The host's instance, made on first use."""
        home = manager.host.get_service(ADAPTIVE_SERVICE)
        if home is None or home.manager is not manager:
            home = AdaptiveSessions(manager)
            manager.host.register_service(ADAPTIVE_SERVICE, home, replace=True)
        return home

    def _on_topology_change(self, _change) -> None:
        """Topology mutated: re-run selection for the open sessions.

        Deferred by one event-loop turn so the re-evaluation happens after
        the mutation (and any sibling notifications) fully settled.
        """
        if self._reroute_scheduled or not self.sessions:
            return
        self._reroute_scheduled = True
        self.sim.call_later(0.0, self.reroute)

    def reroute(self) -> None:
        """Migrate every established session whose rail died or whose
        current best route differs from its rail's."""
        self._reroute_scheduled = False
        manager = self.manager
        for link in list(self.sessions.values()):
            if link.state is not VLinkState.ESTABLISHED:
                continue
            if manager.gateway_provisioner is not None:
                manager.gateway_provisioner(link.dst_host)
            route = link._provided_route()
            if route is None:
                try:
                    route = manager.selector.choose_vlink_route(
                        manager.host,
                        link.dst_host,
                        manager.reliable_driver_names(),
                        reliable_only=True,
                    )
                except AbstractionError:
                    continue  # destination unreachable right now: keep the rail
            rail_dead = link._rail_dead or link.rail.state is not VLinkState.ESTABLISHED
            if not rail_dead and route_signature(route) == link.rail_signature:
                continue
            if not rail_dead and self._dwell_blocks(link):
                # recently migrated and the current route still works: hold
                # the route (flap damping) and re-evaluate when the dwell
                # expires.
                if self.sim.telemetry is not None:
                    self.sim.telemetry.emit(
                        "route.dwell_veto", session=f"{link.session_id:#x}", peer=link.peer_name
                    )
                self._defer_reroute(link)
                continue
            link.migrate(reason=f"topology change: {route.describe()}")

    def _dwell_blocks(self, link: AdaptiveVLink) -> bool:
        """True when the minimum-dwell hysteresis vetoes a preference-driven
        migration of ``link``, whose rail is alive: it migrated less than
        :data:`ROUTE_MIN_DWELL` ago and its rail's route is still viable."""
        # the deadline must be the *same float expression* `_defer_reroute`
        # schedules its recheck for, or rounding can strand the recheck in a
        # zero-delay loop at the expiry timestamp
        if link.last_migration_at is None or (
            self.sim.now >= link.last_migration_at + ROUTE_MIN_DWELL
        ):
            return False
        return self._route_viable(link.rail.route)

    def _route_viable(self, route: "Route | RouteChoice") -> bool:
        """Is ``route`` still physically usable according to the knowledge
        base?  A route through a down link or a dead host is not —
        hysteresis must never pin a session to it."""
        topology = self.manager.selector.topology
        for hop in route.hops if isinstance(route, Route) else [route]:
            if hop.network is not None and not topology.is_link_up(hop.network):
                return False
            if hop.dst is not None and not topology.is_host_up(hop.dst):
                return False
        return True

    def _defer_reroute(self, link: AdaptiveVLink) -> None:
        """Schedule one re-evaluation at the link's dwell expiry."""
        if link in self._dwell_rechecks:
            return
        self._dwell_rechecks.add(link)
        remaining = link.last_migration_at + ROUTE_MIN_DWELL - self.sim.now
        self.sim.call_later(max(remaining, 0.0), self._dwell_expired, link)

    def _dwell_expired(self, link: AdaptiveVLink) -> None:
        self._dwell_rechecks.discard(link)
        if link.session_id in self.sessions:
            self.reroute()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AdaptiveSessions {self.manager.host.name} sessions={len(self.sessions)}>"


class AdaptiveListener(VLinkListener):
    """Server side of adaptive sessions on one port.

    A :class:`~repro.abstraction.vlink.VLinkListener` whose every incoming
    rail is handshaken first: a new session enters the listener's accept
    queue (``accept`` / ``set_accept_callback``); a resumed one is spliced
    into its existing :class:`AdaptiveVLink` without surfacing again.
    Closing it releases the port, so a new rail is refused; open sessions
    keep running until closed themselves.
    """

    def __init__(self, manager: VLinkManager, port: int):
        self.sessions: Dict[int, AdaptiveVLink] = {}
        self.rejected = 0
        super().__init__(manager, port)

    def _incoming(self, raw: VLink) -> None:
        read_hello(raw, _HELLO, no_body, self._handshaken)

    def _handshaken(self, raw: VLink, hello: Tuple, _body) -> None:
        magic, session_id, kind, client_delivered = hello
        if magic != _HELLO_MAGIC:
            self.rejected += 1
            raw.close()
            return
        if kind == SESSION_RESUME:
            session = self.sessions.get(session_id)
            if session is None:
                self.rejected += 1
                raw.write(_REPLY.pack(_REPLY_MAGIC, _STATUS_UNKNOWN, 0))
                return
        else:
            session = AdaptiveVLink(self.manager, self, session_id, None, self.port, "server")
            session.state = VLinkState.ESTABLISHED
            self.sessions[session_id] = session
        raw.write(_REPLY.pack(_REPLY_MAGIC, _STATUS_OK, session.in_delivered))
        session._attach_rail(raw, client_delivered)
        if kind != SESSION_RESUME:
            VLinkListener._incoming(self, session)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AdaptiveListener :{self.port} sessions={len(self.sessions)}>"


def adaptive_connect(
    manager: VLinkManager,
    dst_host: Host,
    port: int,
    route_provider: Optional[Callable[[], Optional[Route]]] = None,
) -> VLinkOperation:
    """Open an adaptive session to ``dst_host:port`` from ``manager``'s host.

    The returned operation completes with an :class:`AdaptiveVLink` once
    its first rail is handshaken; the rail is re-selected (and the stream
    migrated without losing or reordering bytes) whenever the topology
    knowledge base changes under it.  ``route_provider`` (a callable
    returning a pinned :class:`~repro.abstraction.routing.Route` or
    ``None``) overrides the rail selection, initially and per migration —
    adaptive circuit legs pass the selector's circuit-hop pinning here.
    """
    home = AdaptiveSessions.of(manager)
    link = AdaptiveVLink(manager, home, next(home._ids), dst_host, port, "client")
    link.route_provider = route_provider
    link._connect_op = VLinkOperation(manager.sim, "connect")
    link._open_rail()
    return link._connect_op
