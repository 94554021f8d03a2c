"""MPI runtime, communicators and point-to-point messaging."""

from __future__ import annotations

import pickle
import struct
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.simnet.buffers import immutable
from repro.simnet.host import HostGroup
from repro.madeleine.message import PackMode
from repro.personalities.madeleine_api import VirtualMadeleine
from repro.middleware.mpi.collectives import CollectiveMixin
from repro.middleware.mpi.datatypes import Datatype, MPI_BYTE
from repro.middleware.mpi.profiles import MpiProfile, MPICH_1_2_5
from repro.middleware.mpi.requests import Request, Status

ANY_SOURCE = -1
ANY_TAG = -1

#: context id, tag, source rank, flags
_MPI_HEADER = struct.Struct("!IiiB")
_FLAG_PICKLED = 0x01


class MpiError(RuntimeError):
    """MPI-level usage errors."""


class MpiRuntime:
    """One MPI library instance on one node (the "MPI process").

    ``channels`` selects what carries the traffic:

    * ``"vmad"`` (default) — the virtual-Madeleine personality over a
      statically bound Circuit, the historical configuration;
    * ``"circuit"`` — the same personality over a *route-aware adaptive*
      Circuit (``adaptive=True`` unless overridden): point-to-point and
      collective legs follow the selector's circuit-hop pinning, relay
      through gateways on routed groups, and migrate — preserving
      per-source order — when monitoring degrades a hop or kills a gateway.
      Every rank of the group must pick the same ``channels`` mode.

    ``adaptive`` overrides the adaptive flag for ``channels="circuit"``
    (``adaptive=False`` gives route-aware static legs).

    The runtime takes its messages from the channel's receive callback
    (:meth:`_on_message`), as the DSM and PVM take theirs from a Circuit:
    no receiver process and no queue sit between the delivery and the
    communicator's matching engine.
    """

    def __init__(
        self,
        node,
        group: HostGroup,
        *,
        profile: MpiProfile = MPICH_1_2_5,
        channel=None,
        channel_name: str = "mpi",
        channels: str = "vmad",
        adaptive: Optional[bool] = None,
    ):
        self.node = node
        self.sim = node.sim
        self.profile = profile
        self.group = group
        if channels not in ("vmad", "circuit"):
            raise MpiError(
                f"unknown channels mode {channels!r}; expected 'vmad' or 'circuit'"
            )
        if channel is not None and (channels != "vmad" or adaptive is not None):
            # an explicit channel is used as-is: silently dropping the
            # requested mode would hand the caller a transport they did not
            # ask for.
            raise MpiError(
                "channel= conflicts with channels=/adaptive=; pass one or the other"
            )
        if adaptive is not None and channels != "circuit":
            raise MpiError('adaptive= requires channels="circuit"')
        if channel is None:
            personality = VirtualMadeleine(node)
            if channels == "vmad":
                channel = personality.open_channel(channel_name, group)
            else:
                channel = personality.open_channel(
                    channel_name, group, adaptive=True if adaptive is None else adaptive
                )
        #: the (virtual or direct) Madeleine channel carrying all traffic.
        self.channel = channel
        self._communicators: Dict[int, "Communicator"] = {}
        self._next_context = 0
        self.comm_world = self.create_communicator()
        channel.set_receive_callback(self._on_message)

    # -- communicator management -------------------------------------------------
    def create_communicator(self) -> "Communicator":
        """Create a new communicator spanning the whole group (MPI_Comm_dup)."""
        context = self._next_context
        self._next_context += 1
        comm = Communicator(self, context)
        self._communicators[context] = comm
        return comm

    # -- the progress engine -------------------------------------------------------
    def _on_message(self, src_rank: int, incoming, rx) -> None:
        """The channel's receive callback: demultiplex to the communicator."""
        header = incoming.unpack(PackMode.EXPRESS)
        payload = incoming.unpack() if incoming.remaining_segments else b""
        incoming.end_unpacking()
        context, tag, hdr_src, flags = _MPI_HEADER.unpack(header)
        comm = self._communicators.get(context)
        if comm is None:
            raise MpiError(f"message for unknown communicator context {context}")
        comm._on_message(hdr_src, tag, flags, payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MpiRuntime {self.profile.name} rank={self.comm_world.rank}/{self.comm_world.size}>"


class Communicator(CollectiveMixin):
    """An MPI communicator: a context id over the runtime's group."""

    def __init__(self, runtime: MpiRuntime, context: int):
        self.runtime = runtime
        self.sim = runtime.sim
        self.context = context
        self._posted: List[Tuple[int, int, Request]] = []
        self._unexpected: List[Tuple[int, int, int, bytes]] = []
        self._collective_seq = 0
        self.sends = 0

    # -- identity ---------------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.runtime.channel.rank

    @property
    def size(self) -> int:
        return self.runtime.channel.size

    def Get_rank(self) -> int:
        return self.rank

    def Get_size(self) -> int:
        return self.size

    # -- encoding -----------------------------------------------------------------
    @staticmethod
    def _encode(obj: Any) -> Tuple[bytes, int]:
        if isinstance(obj, (bytes, bytearray, memoryview)):
            # by reference when immutable: the buffer rides as the message's
            # CHEAPER segment and is what the receiver's recv() returns
            return immutable(obj), 0
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL), _FLAG_PICKLED

    @staticmethod
    def _decode(payload: bytes, flags: int) -> Any:
        if flags & _FLAG_PICKLED:
            return pickle.loads(payload)
        return payload

    # -- point to point: sends --------------------------------------------------------
    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        """Non-blocking send of a Python object or bytes buffer."""
        if not (0 <= dest < self.size):
            raise MpiError(f"invalid destination rank {dest}")
        payload, flags = self._encode(obj)
        return self._post_send(payload, flags, dest, tag)

    def Isend(self, buf, dest: int, tag: int = 0, datatype: Optional[Datatype] = None) -> Request:
        """Non-blocking buffer send (numpy array or bytes, no pickling)."""
        datatype = datatype or MPI_BYTE
        payload = immutable(buf) if isinstance(buf, (bytes, bytearray)) else datatype.to_bytes(buf)
        return self._post_send(payload, 0, dest, tag)

    def _post_send(self, payload: bytes, flags: int, dest: int, tag: int) -> Request:
        profile = self.runtime.profile
        req = Request(self.sim, "send")
        header = _MPI_HEADER.pack(self.context, tag, self.rank, flags)
        cost = profile.per_call_overhead + len(payload) / profile.copy_bandwidth
        channel = self.runtime.channel
        msg = channel.begin_packing(dest)
        msg.pack(header, PackMode.EXPRESS)
        msg.pack(payload, PackMode.CHEAPER)
        channel.end_packing(msg, extra_cost=cost, done=req.event)
        self.sends += 1
        return req

    def send(self, obj: Any, dest: int, tag: int = 0):
        """Blocking send (a generator: ``yield from comm.send(...)``)."""
        req = self.isend(obj, dest, tag)
        result = yield req.wait()
        return result

    def Send(self, buf, dest: int, tag: int = 0, datatype: Optional[Datatype] = None):
        req = self.Isend(buf, dest, tag, datatype)
        result = yield req.wait()
        return result

    # -- point to point: receives -------------------------------------------------------
    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Non-blocking receive returning a :class:`Request`."""
        req = Request(self.sim, "recv")
        # Check the unexpected-message queue first (MPI ordering semantics).
        for idx, (src, msg_tag, flags, payload) in enumerate(self._unexpected):
            if self._matches(source, tag, src, msg_tag):
                self._unexpected.pop(idx)
                self._complete_recv(req, src, msg_tag, flags, payload)
                return req
        self._posted.append((source, tag, req))
        return req

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (generator); returns the decoded object."""
        req = self.irecv(source, tag)
        value = yield req.wait()
        return value

    def Recv(self, buf, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             datatype: Optional[Datatype] = None) -> Any:
        """Blocking buffer receive filling ``buf`` in place (generator)."""
        req = self.irecv(source, tag)
        raw = yield req.wait()
        datatype = datatype or MPI_BYTE
        np = sys.modules.get("numpy")  # an ndarray ``buf`` means numpy is loaded
        if np is not None and isinstance(buf, np.ndarray):
            flat = np.frombuffer(raw, dtype=buf.dtype)
            if flat.size != buf.size:
                raise MpiError(
                    f"receive buffer holds {buf.size} elements but message has {flat.size}"
                )
            buf.flat[:] = flat
        return req.status

    def sendrecv(self, obj: Any, dest: int, source: int = ANY_SOURCE,
                 sendtag: int = 0, recvtag: int = ANY_TAG):
        """Combined send + receive (generator returning the received object)."""
        send_req = self.isend(obj, dest, sendtag)
        recv_req = self.irecv(source, recvtag)
        value = yield recv_req.wait()
        yield send_req.wait()
        return value

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Optional[Status]:
        """Non-blocking probe of the unexpected-message queue (MPI_Iprobe)."""
        for src, msg_tag, flags, payload in self._unexpected:
            if self._matches(source, tag, src, msg_tag):
                status = Status()
                status.source = src
                status.tag = msg_tag
                status.count_bytes = len(payload)
                return status
        return None

    # -- matching engine ------------------------------------------------------------------
    @staticmethod
    def _matches(want_src: int, want_tag: int, src: int, tag: int) -> bool:
        return (want_src in (ANY_SOURCE, src)) and (want_tag in (ANY_TAG, tag))

    def _on_message(self, src: int, tag: int, flags: int, payload: bytes) -> None:
        posted = self._posted
        idx = 0
        while idx < len(posted):
            want_src, want_tag, req = posted[idx]
            if req.cancelled:
                # a cancelled receive leaves the posted list when met
                del posted[idx]
            elif self._matches(want_src, want_tag, src, tag):
                del posted[idx]
                self._complete_recv(req, src, tag, flags, payload)
                return
            else:
                idx += 1
        self._unexpected.append((src, tag, flags, payload))

    def _complete_recv(self, req: Request, src: int, tag: int, flags: int, payload: bytes) -> None:
        profile = self.runtime.profile
        req.status.source = src
        req.status.tag = tag
        req.status.count_bytes = len(payload)
        delay = profile.per_call_overhead + len(payload) / profile.copy_bandwidth
        value = self._decode(payload, flags)
        req.event.succeed(value, delay=delay)

    # -- collective bookkeeping (used by CollectiveMixin) ------------------------------------
    def _next_collective_tag(self) -> int:
        self._collective_seq += 1
        return -1000 - self._collective_seq

    def pending_unexpected(self) -> int:
        return len(self._unexpected)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Communicator ctx={self.context} rank={self.rank}/{self.size}>"
