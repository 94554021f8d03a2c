"""Standalone MPICH/Madeleine: MPI bound directly to the Madeleine library.

§5 states: "PadicoTM overhead is negligible: MPICH in PadicoTM over
Myrinet-2000 gets roughly the same performance as a standalone
implementation of MPICH over Myrinet-2000."  To measure that, the benchmark
needs a *standalone* baseline — the same MPI library linked straight against
Madeleine, without the MadIO multiplexing, the NetAccess arbitration or the
Circuit abstraction in between.

:class:`DirectMadeleineChannel` exposes the virtual-Madeleine channel
interface over a raw :class:`repro.madeleine.driver.MadChannel`, so the very
same :class:`~repro.middleware.mpi.communicator.MpiRuntime` code runs in
both configurations and the measured difference is exactly the framework's
overhead.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.simnet.host import HostGroup
from repro.madeleine import MadChannel, MadIncoming, MadeleineDriver, PackMode
from repro.madeleine.message import MadMessage


class DirectMadeleineChannel:
    """The virtual-Madeleine channel interface over a raw Madeleine channel."""

    def __init__(self, channel: MadChannel):
        self.channel = channel
        self.sim = channel.sim
        self._recv_queue: List[Tuple[int, MadIncoming]] = []
        self._recv_waiters: List[Tuple[Optional[int], object]] = []
        channel.set_receive_callback(self._on_message)

    # -- identity -------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.channel.name

    @property
    def rank(self) -> int:
        return self.channel.rank

    @property
    def size(self) -> int:
        return self.channel.size

    # -- packing ---------------------------------------------------------------
    def begin_packing(self, dst_rank: int) -> MadMessage:
        return self.channel.begin_packing(dst_rank)

    @staticmethod
    def pack(message: MadMessage, data: bytes, mode: PackMode = PackMode.CHEAPER) -> MadMessage:
        return message.pack(data, mode)

    def end_packing(self, message: MadMessage, extra_cost=0.0, done=None):
        return self.channel.end_packing(message, extra_cost, done)

    # -- unpacking ----------------------------------------------------------------
    def begin_unpacking(self, src_rank: Optional[int] = None):
        ev = self.sim.event(name=f"direct-mad-unpack({self.name})")
        for idx, (rank, incoming) in enumerate(self._recv_queue):
            if src_rank is None or rank == src_rank:
                self._recv_queue.pop(idx)
                ev.succeed((rank, incoming))
                return ev
        self._recv_waiters.append((src_rank, ev))
        return ev

    @staticmethod
    def unpack(incoming: MadIncoming, mode: Optional[PackMode] = None) -> bytes:
        return incoming.unpack(mode)

    @staticmethod
    def end_unpacking(incoming: MadIncoming) -> None:
        incoming.end_unpacking()

    # -- internal -------------------------------------------------------------------
    def _on_message(self, incoming: MadIncoming, delivery) -> None:
        entry = (incoming.src_rank, incoming)
        ready = max(0.0, delivery.ready_time() - self.sim.now)
        self.sim.call_later(ready, self._enqueue, entry)

    def _enqueue(self, entry) -> None:
        src_rank, incoming = entry
        for idx, (want, ev) in enumerate(self._recv_waiters):
            if want is None or want == src_rank:
                self._recv_waiters.pop(idx)
                if not ev.triggered:
                    ev.succeed((src_rank, incoming))
                return
        self._recv_queue.append(entry)


def standalone_mpi_pair(
    network, group: HostGroup, profile=None, channel_name: str = "mpich-direct"
):
    """Build two standalone MPI runtimes bound straight to Madeleine.

    Returns ``[runtime_rank0, runtime_rank1, ...]`` for every host of the
    group.  Only used by the framework-overhead benchmark; regular users go
    through :class:`~repro.middleware.mpi.communicator.MpiRuntime` on a
    booted node.
    """
    from repro.middleware.mpi.communicator import MpiRuntime
    from repro.middleware.mpi.profiles import MPICH_1_2_5

    runtimes = []
    for host in group:
        driver = host.get_service("madeleine") or MadeleineDriver(host)
        channel = driver.open_channel(channel_name, network, group)
        direct = DirectMadeleineChannel(channel)

        class _BareNode:
            """Minimal node shim: standalone MPICH needs only sim + host."""

            def __init__(self, h):
                self.host = h
                self.sim = h.sim

        runtimes.append(
            MpiRuntime(_BareNode(host), group, profile=profile or MPICH_1_2_5, channel=direct)
        )
    return runtimes
