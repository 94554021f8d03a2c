"""Standalone MPICH/Madeleine: MPI bound directly to the Madeleine library.

§5 states: "PadicoTM overhead is negligible: MPICH in PadicoTM over
Myrinet-2000 gets roughly the same performance as a standalone
implementation of MPICH over Myrinet-2000."  To measure that, the benchmark
needs a *standalone* baseline — the same MPI library linked straight against
Madeleine, without the MadIO multiplexing, the NetAccess arbitration or the
Circuit abstraction in between.

:class:`DirectMadeleineChannel` exposes the virtual-Madeleine channel
interface — packing on the send side, one receive callback on the other —
over a raw :class:`repro.madeleine.driver.MadChannel`, so the very same
:class:`~repro.middleware.mpi.communicator.MpiRuntime` code runs in both
configurations and the measured difference is exactly the framework's
overhead.  Like the personality it keeps no receive queue: Madeleine hands
each message over on arrival, and the channel runs the runtime's callback
once the message's bytes are ready.
"""

from __future__ import annotations

from typing import Callable

from repro.simnet.host import HostGroup
from repro.simnet.network import Delivery
from repro.madeleine import MadChannel, MadIncoming, MadeleineDriver
from repro.madeleine.message import MadMessage


class DirectMadeleineChannel:
    """The virtual-Madeleine channel interface over a raw Madeleine channel."""

    def __init__(self, channel: MadChannel):
        self.channel = channel
        self.sim = channel.sim

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

    def end_packing(self, message: MadMessage, extra_cost=0.0, done=None):
        return self.channel.end_packing(message, extra_cost, done)

    # -- receive side -------------------------------------------------------------
    def set_receive_callback(self, fn: Callable[[int, MadIncoming, Delivery], None]) -> None:
        """Install ``fn(src_rank, incoming, delivery)``, run once the
        message's bytes are ready (Madeleine hands it over on arrival)."""
        sim = self.sim

        def on_message(incoming: MadIncoming, delivery: Delivery) -> None:
            ready = max(0.0, delivery.ready_time() - sim.now)
            sim.call_later(ready, fn, incoming.src_rank, incoming, delivery)

        self.channel.set_receive_callback(on_message)


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
