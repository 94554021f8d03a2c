"""The per-host Madeleine driver, channels and connections.

Madeleine owns the parallel-paradigm (SAN) NICs of a host and exposes
*channels*: communication domains over one network for a fixed group of
hosts.  The number of channels is limited by the hardware ("2 over Myrinet,
1 over SCI" — §4.1); providing an arbitrary number of logical channels on
top is precisely the job of the MadIO arbitration subsystem.

Cost model (calibrated so that the one-way latency of the stack above lands
on the paper's Table 1 figures):

* per-message send / receive software overhead ≈ 0.85 µs each,
* per-segment packing overhead ≈ 0.05 µs,
* a per-byte pipelining inefficiency equivalent to a 12 GB/s copy on each
  side, which brings the 250 MB/s Myrinet-2000 wire down to the ≈240 MB/s
  plateau the paper reports,
* a rendezvous handshake (one extra control round-trip) for messages larger
  than 32 KB, as real Madeleine/GM does for zero-copy transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.simnet.cost import MB, MICROSECOND, KB, check_profile
from repro.simnet.host import Host, HostGroup
from repro.simnet.network import Delivery, Network, PARADIGM_PARALLEL
from repro.madeleine.message import (
    MadIncoming,
    MadMessage,
    MadeleineError,
    segment_overhead,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.engine import SimEvent


MADELEINE_SERVICE = "madeleine"


@dataclass
class MadeleineCostModel:
    """Software cost parameters of the Madeleine library itself."""

    send_overhead: float = 0.85 * MICROSECOND
    recv_overhead: float = 0.85 * MICROSECOND
    per_segment_overhead: float = 0.05 * MICROSECOND
    pipeline_copy_bandwidth: float = 12_000.0 * MB
    rendezvous_threshold: int = 32 * KB
    rendezvous_control_overhead: float = 1.0 * MICROSECOND

    __post_init__ = check_profile


class _ChannelState:
    """State shared by every endpoint of one Madeleine channel."""

    def __init__(self, name: str, network: Network, group: HostGroup):
        self.name = name
        self.network = network
        self.group = group
        self.endpoints: Dict[Host, "MadChannel"] = {}


def _channel_registry(network: Network) -> Dict[str, _ChannelState]:
    registry = getattr(network, "_madeleine_channels", None)
    if registry is None:
        registry = {}
        setattr(network, "_madeleine_channels", registry)
    return registry


class MadeleineDriver:
    """Per-host instance of the Madeleine library (owner of the SAN NICs)."""

    def __init__(self, host: Host, cost_model: Optional[MadeleineCostModel] = None):
        self.host = host
        self.sim = host.sim
        self.costs = cost_model or MadeleineCostModel()
        self._channels: Dict[Tuple[str, str], "MadChannel"] = {}
        self._owned_networks: List[Network] = []
        host.register_service(MADELEINE_SERVICE, self)

    # -- NIC ownership ---------------------------------------------------------
    def _claim(self, network: Network) -> None:
        if network in self._owned_networks:
            return
        if network.paradigm != PARADIGM_PARALLEL:
            raise MadeleineError(
                f"Madeleine drives parallel-paradigm (SAN) networks only, not {network.name!r}"
            )
        nic = network.nic_of(self.host)
        nic.set_receive_handler(self._handle_delivery, owner=MADELEINE_SERVICE)
        self._owned_networks.append(network)

    # -- channel management -------------------------------------------------------
    def open_channel(self, name: str, network: Network, group: HostGroup) -> "MadChannel":
        """Open (or join) the channel ``name`` over ``network`` for ``group``.

        Every host of the group must call this with identical arguments, as
        in the real library where channels are declared in a configuration
        file common to the session.
        """
        if not group.contains(self.host):
            raise MadeleineError(
                f"host {self.host.name!r} is not a member of group {group.name!r}"
            )
        self._claim(network)
        registry = _channel_registry(network)
        state = registry.get(name)
        if state is None:
            hw_limit = getattr(network, "hardware_channels", 1)
            active = len(registry)
            if active >= hw_limit:
                raise MadeleineError(
                    f"network {network.name!r} supports only {hw_limit} hardware channel(s); "
                    f"cannot open {name!r} — use MadIO logical multiplexing instead"
                )
            state = _ChannelState(name, network, group)
            registry[name] = state
        else:
            if state.group is not group and [h.name for h in state.group] != [
                h.name for h in group
            ]:
                raise MadeleineError(
                    f"channel {name!r} already open with a different group"
                )
        endpoint = MadChannel(self, state)
        state.endpoints[self.host] = endpoint
        self._channels[(network.name, name)] = endpoint
        return endpoint

    def channel(self, network: Network, name: str) -> "MadChannel":
        return self._channels[(network.name, name)]

    # -- receive path -----------------------------------------------------------------
    def _handle_delivery(self, delivery: Delivery) -> None:
        channel_key = delivery.frame.channel
        if not isinstance(channel_key, tuple) or len(channel_key) != 2 or channel_key[0] != "mad":
            delivery.frame.network.record_drop(delivery.frame, "madeleine-bad-channel")
            return
        endpoint = self._channels.get((delivery.frame.network.name, channel_key[1]))
        if endpoint is None:
            delivery.frame.network.record_drop(delivery.frame, "madeleine-no-channel")
            return
        endpoint._receive(delivery)


class MadConnection:
    """Bookkeeping for one (src, dst) pair inside a channel."""

    def __init__(self, channel: "MadChannel", peer_rank: int):
        self.channel = channel
        self.peer_rank = peer_rank
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_received = 0
        self.bytes_received = 0


class MadChannel:
    """One host's endpoint on a Madeleine channel."""

    def __init__(self, driver: MadeleineDriver, state: _ChannelState):
        self.driver = driver
        self.state = state
        self.host = driver.host
        self.sim = driver.sim
        self._receive_callback: Optional[Callable[[MadIncoming, Delivery], None]] = None
        self._connections: Dict[int, MadConnection] = {}
        self._pending: List[Tuple[MadIncoming, Delivery]] = []

    # -- identity -----------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.state.name

    @property
    def network(self) -> Network:
        return self.state.network

    @property
    def group(self) -> HostGroup:
        return self.state.group

    @property
    def rank(self) -> int:
        """Rank of the local host inside the channel's group."""
        return self.group.index_of(self.host)

    @property
    def size(self) -> int:
        return len(self.group)

    def connection(self, peer_rank: int) -> MadConnection:
        conn = self._connections.get(peer_rank)
        if conn is None:
            conn = MadConnection(self, peer_rank)
            self._connections[peer_rank] = conn
        return conn

    # -- send path ---------------------------------------------------------------------
    def begin_packing(self, dst_rank: int) -> MadMessage:
        """Start building a message towards ``dst_rank``."""
        if not (0 <= dst_rank < self.size):
            raise MadeleineError(f"destination rank {dst_rank} outside group of size {self.size}")
        if dst_rank == self.rank:
            raise MadeleineError("Madeleine channels do not loop back to the local rank")
        return MadMessage(dst_rank, dst_name=self.group[dst_rank].name)

    def end_packing(
        self,
        message: MadMessage,
        extra_cost: float = 0.0,
        done: Optional["SimEvent"] = None,
    ) -> "SimEvent":
        """Transmit ``message``; the returned event (``done``, when the layer
        above hands its own operation down) fires when the send-side buffers
        are reusable (local completion).  ``extra_cost`` is the seconds of
        send-side cost the layers above added.  The frame carries the segment
        list by reference; its length is the wire length."""
        costs = self.driver.costs
        payload = message.finish()
        cost = (extra_cost + costs.send_overhead
                + costs.per_segment_overhead * message.segment_count
                + len(payload) / costs.pipeline_copy_bandwidth)
        if message.payload_bytes > costs.rendezvous_threshold:
            cost += 2.0 * self.network.latency + costs.rendezvous_control_overhead
        dst_host = self.group[message.dst_rank]
        self.network.transmit(
            self.host,
            dst_host,
            payload,
            channel=("mad", self.name),
            send_cost=cost,
            meta={"src_rank": self.rank, "segments": message.segment_count},
        )
        conn = self.connection(message.dst_rank)
        conn.messages_sent += 1
        conn.bytes_sent += message.payload_bytes
        if done is None:
            done = self.sim.event(name="mad-send")
        return done.succeed(message.payload_bytes, delay=cost)

    def send(self, dst_rank: int, *buffers: bytes, express_first: bool = True) -> "SimEvent":
        """Convenience: pack ``buffers`` (first one express, rest cheaper) and send."""
        msg = self.begin_packing(dst_rank)
        for idx, buf in enumerate(buffers):
            if idx == 0 and express_first:
                msg.pack_express(buf)
            else:
                msg.pack_cheaper(buf)
        return self.end_packing(msg)

    # -- receive path --------------------------------------------------------------------
    def set_receive_callback(self, fn: Callable[[MadIncoming, Delivery], None]) -> None:
        """Install the single consumer of this channel (MadIO, or a test)."""
        self._receive_callback = fn
        while self._pending and self._receive_callback is not None:
            incoming, delivery = self._pending.pop(0)
            self._receive_callback(incoming, delivery)

    def _receive(self, delivery: Delivery) -> None:
        costs = self.driver.costs
        frame = delivery.frame
        nsegs = frame.meta.get("segments", 1)
        payload_len = max(0, frame.nbytes - segment_overhead(nsegs))
        delivery.cost += costs.recv_overhead
        delivery.cost += costs.per_segment_overhead * nsegs
        delivery.cost += payload_len / costs.pipeline_copy_bandwidth
        incoming = MadIncoming(
            src_rank=frame.meta.get("src_rank", -1),
            raw=frame.payload,
            src_name=frame.src.name,
        )
        conn = self.connection(incoming.src_rank)
        conn.messages_received += 1
        conn.bytes_received += incoming.payload_bytes
        if self._receive_callback is None:
            self._pending.append((incoming, delivery))
        else:
            self._receive_callback(incoming, delivery)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MadChannel {self.name!r} on {self.network.name} rank={self.rank}/{self.size}>"
