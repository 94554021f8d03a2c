"""The virtual Madeleine personality over Circuit.

"Thanks to the Madeleine personality, the existing MPICH/Madeleine
implementation can run in PadicoTM." (§4.3)

MPICH/Madeleine is linked against the Madeleine packing API
(``mad_begin_packing`` / ``mad_pack`` / ``mad_end_packing`` and their
unpacking counterparts).  This personality re-exposes exactly that API on
top of a Circuit, so the MPI middleware of :mod:`repro.middleware.mpi`
runs unchanged whether the Circuit is mapped on MadIO (straight, inside a
cluster) or on SysIO / VLink methods (cross-paradigm, across a LAN or WAN)
— the virtualisation claim of §3.2.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.madeleine.message import MadeleineError, PackMode
from repro.abstraction.circuit import Circuit, CircuitIncoming, CircuitMessage


class VirtualMadChannel:
    """What MPICH/Madeleine sees as a Madeleine channel.

    The surface mirrors :class:`repro.madeleine.driver.MadChannel` (so code
    written against the real library cannot tell the difference) but every
    operation is carried by the Circuit abstract interface underneath.
    """

    def __init__(self, vmad: "VirtualMadeleine", circuit: Circuit):
        self.vmad = vmad
        self.circuit = circuit
        self.sim = circuit.sim
        self._recv_queue: List[Tuple[int, CircuitIncoming]] = []
        self._recv_waiters: List[Tuple[Optional[int], object]] = []
        circuit.set_receive_callback(self._on_message)

    # -- identity ---------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.circuit.name

    @property
    def rank(self) -> int:
        return self.circuit.rank

    @property
    def size(self) -> int:
        return self.circuit.size

    # -- packing (send side) -------------------------------------------------------
    def begin_packing(self, dst_rank: int) -> CircuitMessage:
        if dst_rank == self.rank:
            raise MadeleineError("virtual Madeleine channels do not loop back")
        return self.circuit.new_message(dst_rank)

    def pack(self, message: CircuitMessage, data: bytes, mode: PackMode = PackMode.CHEAPER):
        message.pack(data, mode)
        return message

    def end_packing(self, message: CircuitMessage, extra_cost=None, done=None):
        return self.circuit.post(message, extra_cost, done)

    # -- unpacking (receive side) -----------------------------------------------------
    def begin_unpacking(self, src_rank: Optional[int] = None):
        """Event completing with an incoming message handle (src, incoming)."""
        ev = self.sim.event(name=f"vmad-unpack({self.name})")
        for idx, (rank, incoming) in enumerate(self._recv_queue):
            if src_rank is None or rank == src_rank:
                self._recv_queue.pop(idx)
                ev.succeed((rank, incoming))
                return ev
        self._recv_waiters.append((src_rank, ev))
        return ev

    @staticmethod
    def unpack(incoming: CircuitIncoming, mode: Optional[PackMode] = None) -> bytes:
        return incoming.unpack(mode)

    @staticmethod
    def end_unpacking(incoming: CircuitIncoming) -> None:
        incoming.end_unpacking()

    # -- internal ------------------------------------------------------------------------
    def _on_message(self, src_rank: int, incoming: CircuitIncoming, rx) -> None:
        for idx, (want, ev) in enumerate(self._recv_waiters):
            if want is None or want == src_rank:
                self._recv_waiters.pop(idx)
                if not ev.triggered:
                    ev.succeed((src_rank, incoming))
                return
        self._recv_queue.append((src_rank, incoming))

    def pending_messages(self) -> int:
        return len(self._recv_queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualMadChannel {self.name!r} rank={self.rank}/{self.size}>"


class VirtualMadeleine:
    """Per-node factory of virtual Madeleine channels."""

    def __init__(self, node):
        #: the PadicoNode this personality is loaded into.
        self.node = node
        self.sim = node.sim
        self._channels: Dict[str, VirtualMadChannel] = {}

    def open_channel(self, name: str, group, **circuit_kwargs) -> VirtualMadChannel:
        """Open (or return) the virtual channel ``name`` over ``group``.

        Unlike real Madeleine there is no hardware limit here: the Circuit
        below multiplexes through MadIO or SysIO as appropriate.
        ``circuit_kwargs`` pass through to
        :meth:`~repro.abstraction.circuit.CircuitManager.create` (e.g.
        ``adaptive=True`` for migratable route-aware legs); every member of
        the group must open the channel with the same flags.  The channel is
        cached per name — the first open's flags win.
        """
        chan = self._channels.get(name)
        if chan is None:
            circuit = self.node.circuit(f"vmad:{name}", group, **circuit_kwargs)
            chan = VirtualMadChannel(self, circuit)
            self._channels[name] = chan
        # the circuit may itself be cached (per name on the CircuitManager,
        # shared across personality instances on this node): a reopen whose
        # adaptive mode disagrees with what is actually running must fail
        # loudly, not silently hand over the other transport.
        want_adaptive = bool(circuit_kwargs.get("adaptive", False))
        have_adaptive = chan.circuit.adaptive is not None
        if want_adaptive != have_adaptive:
            raise MadeleineError(
                f"channel {name!r} is already open with adaptive={have_adaptive}; "
                f"reopening it with adaptive={want_adaptive} is not possible — "
                "pick a different channel name"
            )
        return chan

    def channels(self) -> List[str]:
        return sorted(self._channels)
