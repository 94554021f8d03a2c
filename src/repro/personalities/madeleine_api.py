"""The virtual Madeleine personality over Circuit.

"Thanks to the Madeleine personality, the existing MPICH/Madeleine
implementation can run in PadicoTM." (§4.3)

MPICH/Madeleine is linked against the Madeleine channel API: packing
(``mad_begin_packing`` / ``mad_pack`` / ``mad_end_packing``) on the send
side, and one receive callback handing over each arrived message for the
consumer to unpack.  This personality re-exposes exactly that surface of
:class:`~repro.madeleine.driver.MadChannel` on top of a Circuit, so the MPI
middleware of :mod:`repro.middleware.mpi` runs unchanged whether the
Circuit is mapped on MadIO (straight, inside a cluster) or on SysIO / VLink
methods (cross-paradigm, across a LAN or WAN) — the virtualisation claim of
§3.2.  The personality holds no queue of its own: a message goes from the
Circuit's delivery straight to the installed callback.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.madeleine.message import MadeleineError
from repro.abstraction.circuit import Circuit, CircuitIncoming, CircuitMessage
from repro.abstraction.common import RxPath


class VirtualMadChannel:
    """What MPICH/Madeleine sees as a Madeleine channel.

    The surface mirrors :class:`repro.madeleine.driver.MadChannel` (so code
    written against the real library cannot tell the difference): packing
    on the send side, a single receive callback on the other.  Every
    operation is carried by the Circuit abstract interface underneath.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit

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

    def end_packing(self, message: CircuitMessage, extra_cost=0.0, done=None):
        return self.circuit.post(message, extra_cost, done)

    # -- receive side -----------------------------------------------------------------
    def set_receive_callback(
        self, fn: Callable[[int, CircuitIncoming, RxPath], None]
    ) -> None:
        """Install the single consumer ``fn(src_rank, incoming, rx)``."""
        self.circuit.set_receive_callback(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualMadChannel {self.name!r} rank={self.rank}/{self.size}>"


class VirtualMadeleine:
    """Per-node factory of virtual Madeleine channels."""

    def __init__(self, node):
        #: the PadicoNode this personality is loaded into.
        self.node = node
        self._channels: Dict[str, VirtualMadChannel] = {}

    def open_channel(self, name: str, group, **circuit_kwargs) -> VirtualMadChannel:
        """Open (or return) the virtual channel ``name`` over ``group``.

        Unlike real Madeleine there is no hardware limit here: the Circuit
        below multiplexes through MadIO or SysIO as appropriate.
        ``circuit_kwargs`` pass through to
        :meth:`~repro.abstraction.circuit.CircuitManager.create` (e.g.
        ``adaptive=True`` for migratable route-aware legs); every member of
        the group must open the channel with the same flags, and a reopen
        that asks for another group or flag fails there.
        """
        circuit = self.node.circuit(f"vmad:{name}", group, **circuit_kwargs)
        chan = self._channels.get(name)
        if chan is None:
            chan = self._channels[name] = VirtualMadChannel(circuit)
        return chan

    def channels(self) -> List[str]:
        return sorted(self._channels)
