"""MadIO: multiplexed, arbitrated access to parallel-paradigm networks.

"Madeleine provides no more multiplexing channels than what is allowed by
the hardware (e.g. 2 over Myrinet, 1 over SCI).  MadIO adds a logical
multiplexing/demultiplexing facility which allows an arbitrary number of
communication channels.  Multiplexing on top of Madeleine adds a header to
all messages.  [...] We implement headers combining to aggregate headers
from several layers into a single packet.  Thus, multiplexing on top of
Madeleine adds virtually no overhead to middleware systems which send
headers anyway.  We actually measure that the overhead of MadIO over plain
Madeleine is less than 0.1 µs." (§4.1)

The reproduction keeps exactly that structure: MadIO opens *one* hardware
Madeleine channel per network and packs a small demultiplexing header in
front of the caller's own header.  With ``combine_headers=True`` (default)
both headers travel in the same express segment — one extra struct pack and
a few bytes; with header combining disabled (the ablation measured by
``benchmarks/test_madio_overhead.py``) the MadIO header becomes a separate
segment and costs an extra per-segment overhead on both sides.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.simnet.cost import MICROSECOND
from repro.simnet.host import HostGroup
from repro.simnet.network import Delivery, Network
from repro.madeleine import (
    MadChannel,
    MadIncoming,
    MadeleineDriver,
    MADELEINE_SERVICE,
    PackMode,
)
from repro.arbitration.netaccess import ArbitrationError, NetAccessCore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.engine import SimEvent


MADIO_SUBSYSTEM = "madio"

#: demultiplexing header: logical-channel name length, user header length,
#: body length.
_MADIO_HEADER = struct.Struct("!HII")

#: software cost of the multiplexing / demultiplexing lookup, per side.
DEMUX_OVERHEAD = 0.03 * MICROSECOND


class MadIOChannel:
    """A logical channel multiplexed by MadIO over one hardware channel.

    Upper layers (the Circuit and VLink adapters) send ``(header, body)``
    pairs to a rank of the channel's group and receive them through a single
    registered callback — the callback-based style of the arbitrated
    interfaces.
    """

    def __init__(self, madio: "MadIO", name: str, network: Network, group: HostGroup):
        self.madio = madio
        self.name = name
        self.network = network
        self.group = group
        self._receive_callback: Optional[
            Callable[[int, bytes, bytes, Delivery], None]
        ] = None
        self._pending = []
        self.messages_sent = 0
        self.messages_received = 0

    @property
    def rank(self) -> int:
        return self.group.index_of(self.madio.host)

    @property
    def size(self) -> int:
        return len(self.group)

    def set_receive_callback(
        self, fn: Callable[[int, bytes, bytes, Delivery], None]
    ) -> None:
        """Install the consumer callback: ``fn(src_rank, header, body, delivery)``."""
        self._receive_callback = fn
        while self._pending and self._receive_callback is not None:
            args = self._pending.pop(0)
            self._receive_callback(*args)

    def send(
        self,
        dst_rank: int,
        header: bytes,
        body: bytes,
        extra_cost: float = 0.0,
        done: Optional["SimEvent"] = None,
    ) -> "SimEvent":
        """Send one (header, body) message to ``dst_rank``.

        The header is small and is aggregated (by copy) into the express
        segment; the body — flat bytes or a gather, e.g. a Circuit message's
        segments or a GIOP message's parts — is packed ``CHEAPER``, by
        reference, and the receive callback is handed that same object.

        ``extra_cost`` is the send-side software cost (seconds) of the layer
        above (a VLink driver or Circuit adapter), added to this operation's
        so that it delays the wire transmission exactly like the
        corresponding code path would; ``done`` is that layer's own
        operation, completed at local send completion instead of a new event.
        """
        return self.madio._send(self, dst_rank, header, body, extra_cost, done)

    def _deliver(self, src_rank: int, header: bytes, body: bytes, delivery: Delivery) -> None:
        self.messages_received += 1
        if self._receive_callback is None:
            self._pending.append((src_rank, header, body, delivery))
        else:
            self._receive_callback(src_rank, header, body, delivery)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MadIOChannel {self.name!r} over {self.network.name} rank={self.rank}>"


class MadIO:
    """The parallel-paradigm subsystem of NetAccess on one host."""

    def __init__(
        self,
        core: NetAccessCore,
        driver: Optional[MadeleineDriver] = None,
        *,
        combine_headers: bool = True,
    ):
        self.core = core
        self.host = core.host
        self.sim = core.sim
        self.driver = (
            driver or self.host.get_service(MADELEINE_SERVICE) or MadeleineDriver(self.host)
        )
        self.combine_headers = combine_headers
        self._hw_channels: Dict[str, MadChannel] = {}
        self._hw_groups: Dict[str, HostGroup] = {}
        self._logical: Dict[Tuple[str, str], MadIOChannel] = {}
        core.register_subsystem(MADIO_SUBSYSTEM)
        self.host.register_service(MADIO_SUBSYSTEM, self, replace=True)

    # -- attachment -----------------------------------------------------------
    def attach(self, network: Network, group: HostGroup) -> None:
        """Open the single hardware channel MadIO uses on ``network``.

        Every host of ``group`` must attach with the same group (as for
        Madeleine channel configuration).
        """
        if network.name in self._hw_channels:
            return
        channel = self.driver.open_channel(f"madio:{network.name}", network, group)
        channel.set_receive_callback(self._on_madeleine_message)
        self._hw_channels[network.name] = channel
        self._hw_groups[network.name] = group

    def group_on(self, network: Network) -> HostGroup:
        try:
            return self._hw_groups[network.name]
        except KeyError:
            raise ArbitrationError(
                f"MadIO on {self.host.name} is not attached to {network.name!r}"
            ) from None

    # -- logical channels ---------------------------------------------------------
    def open_logical_channel(
        self, name: str, network: Network, group: Optional[HostGroup] = None
    ) -> MadIOChannel:
        """Create (or return) the logical channel ``name`` over ``network``."""
        if network.name not in self._hw_channels:
            if group is None:
                raise ArbitrationError(
                    f"MadIO.attach() has not been called for network {network.name!r}"
                )
            self.attach(network, group)
        key = (network.name, name)
        chan = self._logical.get(key)
        if chan is None:
            chan = MadIOChannel(self, name, network, group or self._hw_groups[network.name])
            self._logical[key] = chan
        return chan

    # -- send path -------------------------------------------------------------------
    def _send(
        self,
        channel: MadIOChannel,
        dst_rank: int,
        header: bytes,
        body: bytes,
        extra_cost: float = 0.0,
        done: Optional["SimEvent"] = None,
    ) -> "SimEvent":
        hw = self._hw_channels.get(channel.network.name)
        if hw is None:
            raise ArbitrationError(
                f"MadIO not attached to network {channel.network.name!r} on host {self.host.name}"
            )
        name_bytes = channel.name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise ArbitrationError("logical channel name too long")
        madio_header = _MADIO_HEADER.pack(len(name_bytes), len(header), len(body)) + name_bytes

        # The logical channel's group may be a subset of the hardware
        # channel's group: translate the rank.
        dst_host = channel.group[dst_rank]
        hw_rank = hw.group.index_of(dst_host)
        msg = hw.begin_packing(hw_rank)
        if self.combine_headers:
            # Header combining: the MadIO header and the caller's header share
            # one express segment — a single extra struct pack, no extra
            # per-segment cost.
            msg.pack_express(madio_header + header)
        else:
            # Ablation: the MadIO header travels as its own segment, costing
            # one more per-segment overhead on each side.
            msg.pack_express(madio_header)
            msg.pack_express(header)
        if body:
            msg.pack_cheaper(body)
        channel.messages_sent += 1
        return hw.end_packing(msg, extra_cost=extra_cost + DEMUX_OVERHEAD, done=done)

    # -- receive path ---------------------------------------------------------------------
    def _on_madeleine_message(self, incoming: MadIncoming, delivery: Delivery) -> None:
        delivery.cost += self.core.charge_dispatch(MADIO_SUBSYSTEM, nbytes=incoming.payload_bytes)
        delivery.cost += DEMUX_OVERHEAD

        first = incoming.unpack(PackMode.EXPRESS)
        name_len, header_len, body_len = _MADIO_HEADER.unpack_from(first, 0)
        offset = _MADIO_HEADER.size
        name = first[offset : offset + name_len].decode("utf-8")
        offset += name_len
        if offset < len(first):
            # combined headers: the caller's header follows in the same segment
            header = first[offset : offset + header_len]
        else:
            header = incoming.unpack(PackMode.EXPRESS) if header_len else b""
        body = incoming.unpack(PackMode.CHEAPER) if body_len else b""
        incoming.end_unpacking()

        network_name = delivery.frame.network.name
        chan = self._logical.get((network_name, name))
        if chan is None:
            delivery.frame.network.record_drop(delivery.frame, f"madio-unknown-channel:{name}")
            return
        # Translate the hardware-channel rank into the logical channel's group.
        hw_group = self._hw_groups[network_name]
        src_host = hw_group[incoming.src_rank]
        try:
            src_rank = chan.group.index_of(src_host)
        except ValueError:
            delivery.frame.network.record_drop(delivery.frame, f"madio-rank-outside-group:{name}")
            return
        chan._deliver(src_rank, header, body, delivery)
