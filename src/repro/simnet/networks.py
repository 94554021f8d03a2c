"""Calibrated network models for the paper's evaluation platform.

The paper's test platform (§5): dual Pentium III 1 GHz nodes, switched
Ethernet-100, Myrinet-2000, Linux 2.2; a VTHD WAN path (French experimental
high-bandwidth WAN, nodes attached through Ethernet-100); and a slow
trans-continental Internet link with a typical 5–10 % loss rate.

The constants below are the *wire-level* parameters; the software costs of
the stack (Madeleine, NetAccess, adapters, personalities, middleware) are
charged by those layers themselves, so end-to-end figures such as
"MPICH 12.06 µs / 238.7 MB/s over Myrinet-2000" emerge from the sum of wire
and software costs rather than being hard-coded anywhere.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.simnet.buffers import immutable
from repro.simnet.cost import MB, MICROSECOND, MILLISECOND
from repro.simnet.network import Network, PARADIGM_DISTRIBUTED, PARADIGM_PARALLEL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.engine import Simulator


class Myrinet2000(Network):
    """Myrinet-2000 SAN: 2 Gb/s links, a few microseconds of hardware latency.

    The paper reports 250 MB/s as the maximum hardware bandwidth ("240 MB/s
    … is 96 % of the maximum Myrinet-2000 hardware bandwidth") and one-way
    latencies of 8.4 µs at the Circuit level; the wire itself is modelled at
    6.3 µs / 250 MB/s, with the remaining microseconds charged by the
    Madeleine-like library and the layers above it.
    """

    paradigm = PARADIGM_PARALLEL

    #: raw hardware bandwidth (bytes/s)
    HW_BANDWIDTH = 250.0 * MB
    #: one-way wire + firmware latency (seconds)
    HW_LATENCY = 5.8 * MICROSECOND

    def __init__(self, sim: "Simulator", name: str = "myrinet0", *, seed: int = 101):
        super().__init__(
            sim,
            name,
            latency=self.HW_LATENCY,
            bandwidth=self.HW_BANDWIDTH,
            mtu=1 << 30,  # message-based network: no IP-style fragmentation
            header_bytes=8,
            loss_rate=0.0,
            seed=seed,
        )
        #: Myrinet/GM exposes a very small number of hardware channels; the
        #: MadIO arbitration subsystem multiplexes logical channels on top.
        self.hardware_channels = 2

    def make_address(self, host, index: int) -> str:
        return f"myri://{host.name}:{index}"


class SciNetwork(Network):
    """SCI (Scalable Coherent Interface) SAN — remote-memory style network.

    Listed by the paper among the supported networks (via the Sisci driver).
    A single hardware channel is available, so everything above relies on
    MadIO multiplexing.
    """

    paradigm = PARADIGM_PARALLEL

    def __init__(self, sim: "Simulator", name: str = "sci0", *, seed: int = 102):
        super().__init__(
            sim,
            name,
            latency=3.5 * MICROSECOND,
            bandwidth=85.0 * MB,
            mtu=1 << 30,
            header_bytes=16,
            loss_rate=0.0,
            seed=seed,
        )
        self.hardware_channels = 1

    def make_address(self, host, index: int) -> str:
        return f"sci://{host.name}:{index}"


class _IpNetwork(Network):
    """Common behaviour of IP-class (distributed-paradigm) networks."""

    paradigm = PARADIGM_DISTRIBUTED
    #: Ethernet + IP + TCP headers per segment.
    TCP_HEADER_BYTES = 58

    def __init__(self, sim, name, *, latency, bandwidth, mtu=1460, loss_rate=0.0, seed=0):
        super().__init__(
            sim,
            name,
            latency=latency,
            bandwidth=bandwidth,
            mtu=mtu,
            header_bytes=self.TCP_HEADER_BYTES,
            loss_rate=loss_rate,
            seed=seed,
        )
        self._subnet = abs(hash(name)) % 250 + 1

    def make_address(self, host, index: int) -> str:
        return f"10.{self._subnet}.0.{index}"

    @property
    def rtt(self) -> float:
        """Round-trip wire time for a small segment."""
        return 2.0 * self.latency


class Ethernet100(_IpNetwork):
    """Switched Fast Ethernet (100 Mb/s): the paper's LAN and WAN access link.

    100 Mb/s = 12.5 MB/s of raw wire bandwidth; per-segment TCP/IP framing
    and kernel-side copies bring the application-visible plateau to ~11 MB/s,
    the reference curve of Figure 3.
    """

    RAW_BANDWIDTH = 12.5 * MB

    def __init__(self, sim: "Simulator", name: str = "eth0", *, seed: int = 201):
        super().__init__(
            sim,
            name,
            latency=51.0 * MICROSECOND,
            bandwidth=self.RAW_BANDWIDTH,
            mtu=1460,
            loss_rate=0.0,
            seed=seed,
        )


class GigabitEthernet(_IpNetwork):
    """Gigabit Ethernet: not part of the paper's platform, provided for
    completeness of the deployment configurations users can describe."""

    def __init__(self, sim: "Simulator", name: str = "geth0", *, seed: int = 202):
        super().__init__(
            sim,
            name,
            latency=25.0 * MICROSECOND,
            bandwidth=125.0 * MB,
            mtu=1460,
            loss_rate=0.0,
            seed=seed,
        )


class WanVthd(_IpNetwork):
    """The VTHD high-bandwidth WAN path used in §5.

    The backbone itself is fast (2.5 Gb/s), but each node reaches it through
    an Ethernet-100 access link, so the per-path ceiling is ~12.5 MB/s.  The
    paper measures ~9 MB/s with a single TCP stream and ~12 MB/s with
    parallel streams; the gap comes from the residual loss rate of the long
    path interacting with TCP congestion control, which is exactly what the
    :mod:`repro.simnet.tcp` window model reproduces.
    """

    #: path ceiling: the Ethernet-100 access links at both ends.
    ACCESS_BANDWIDTH = 12.5 * MB
    #: nominal backbone bandwidth (documentation only; never the bottleneck).
    BACKBONE_BANDWIDTH = 312.5 * MB

    def __init__(self, sim: "Simulator", name: str = "vthd", *, seed: int = 301):
        super().__init__(
            sim,
            name,
            latency=8.0 * MILLISECOND,
            bandwidth=self.ACCESS_BANDWIDTH,
            mtu=1460,
            loss_rate=1.5e-4,
            seed=seed,
        )


class LossyInternet(_IpNetwork):
    """A slow trans-continental Internet path with 5–10 % packet loss.

    §5: "The link exhibits a typical loss-rate of 5-10 %.  With TCP/IP and
    plain sockets, we get 150 KB/s; if we give up some reliability and allow
    up to 10 % loss with VRP, we get an average of 500 KB/s on the same
    link."  The path capacity is therefore well above what TCP achieves —
    the collapse is TCP's reaction to loss, not a lack of raw bandwidth.
    """

    def __init__(
        self,
        sim: "Simulator",
        name: str = "transcontinental",
        *,
        loss_rate: float = 0.07,
        seed: int = 401,
    ):
        super().__init__(
            sim,
            name,
            latency=22.0 * MILLISECOND,
            bandwidth=0.55 * MB,
            mtu=1460,
            loss_rate=loss_rate,
            seed=seed,
        )


class Loopback(Network):
    """Intra-node communication (two middleware systems inside one node).

    PadicoTM provides a loopback VLink driver / Circuit adapter; the cost is
    essentially a memory copy.
    """

    paradigm = PARADIGM_PARALLEL

    def __init__(self, sim: "Simulator", name: str = "lo", *, seed: int = 501):
        super().__init__(
            sim,
            name,
            latency=0.4 * MICROSECOND,
            bandwidth=800.0 * MB,
            mtu=1 << 30,
            header_bytes=0,
            loss_rate=0.0,
            seed=seed,
        )

    def transmit(self, src, dst, payload, **kwargs):
        # A loopback "network" may legitimately carry a message from a host
        # to itself; lift the base-class restriction.
        if src is dst:
            return self._transmit_self(src, payload, **kwargs)
        return super().transmit(src, dst, payload, **kwargs)

    def _transmit_self(self, host, payload, *, channel=None, send_cost=0.0, meta=None):
        from repro.simnet.network import Frame

        nic = self.nic_of(host)
        frame = Frame(
            frame_id=next(self._frame_counter),
            src=host,
            dst=host,
            network=self,
            channel=channel,
            payload=immutable(payload),
            meta=dict(meta or {}),
        )
        ready = self.sim.now + send_cost
        begin, end = nic.reserve_tx(ready, self.serialization_time(frame.nbytes))
        arrival = end + self.latency
        self.frames_sent += 1
        self.bytes_carried += frame.nbytes
        self.sim.call_at_partition(host.partition, arrival, nic.handle_arrival, frame, arrival)
        return frame


class GridDeployment:
    """Handles onto a deployment built by :func:`grid_deployment`."""

    def __init__(self):
        self.clusters = []       # [[Host, ...]] row-major, gateway first
        self.gateways = []       # [Host] one per cluster, row-major
        self.lans = []           # [Ethernet100] one per cluster
        self.wans = []           # [WanVthd] grid links (right, then down, per cell)
        self.wan_pairs = []      # [(gateway_a, gateway_b)] aligned with `wans`

    @property
    def hosts(self):
        return [h for cluster in self.clusters for h in cluster]


def grid_deployment(
    framework,
    *,
    rows: int = 2,
    cols: int = 2,
    hosts_per_cluster: int = 8,
    seed: int = 9000,
    partitions: Optional[int] = None,
) -> GridDeployment:
    """Build a ``rows x cols`` grid of Ethernet clusters on ``framework``.

    The scale testbed of ``perfbench/workloads.py``'s grid batches: each grid
    cell is a cluster of ``hosts_per_cluster`` hosts on a private
    :class:`Ethernet100` LAN; the first host of every cluster doubles as the
    cluster gateway and is linked to the gateways of its right and down
    neighbours through dedicated :class:`WanVthd` paths.  Traffic between
    clusters therefore has to relay through gateways, which is exactly the
    multi-hop byte path the routing subsystem (PR 1) produces.

    On a partitioned kernel (``partitions`` explicit, or defaulted from the
    simulator's ``partition_count``) each Ethernet cluster — its hosts and
    its LAN — is assigned to one event-loop partition, clusters distributed
    round-robin; the inter-cluster WAN links are the partition boundaries
    (owned by their west/north gateway's partition) and their multi-ms
    latency is the conservative lookahead the windows run on.

    ``framework`` is duck-typed (``add_host`` / ``add_network``) so this
    module stays independent of :mod:`repro.core`.  Total host count is
    ``rows * cols * hosts_per_cluster``; 200- and 1000-host deployments are
    ``(5, 5, 8)`` and ``(5, 10, 20)``.
    """
    if rows < 1 or cols < 1 or hosts_per_cluster < 1:
        raise ValueError("grid_deployment needs positive rows/cols/hosts_per_cluster")
    grid = GridDeployment()
    sim = framework.sim
    nparts = partitions if partitions is not None else sim.partition_count
    if nparts < 1:
        raise ValueError(f"grid_deployment needs a positive partition count, got {nparts}")
    if nparts > sim.partition_count:
        # labels beyond the kernel's shard range would only surface later as
        # scheduling errors on the first cross-cluster frame
        raise ValueError(
            f"grid_deployment asked for {nparts} partitions, but the simulator "
            f"has {sim.partition_count}"
        )
    gateway_grid = {}
    for r in range(rows):
        for c in range(cols):
            site = f"g{r}x{c}"
            part = (r * cols + c) % nparts
            hosts = [
                framework.add_host(f"{site}n{i:02d}", site=site)
                for i in range(hosts_per_cluster)
            ]
            for h in hosts:
                h.partition = part
            lan = framework.add_network(
                Ethernet100(sim, f"lan-{site}", seed=seed + 7 * (r * cols + c))
            )
            lan.partition = part
            for h in hosts:
                lan.connect(h)
            grid.clusters.append(hosts)
            grid.lans.append(lan)
            grid.gateways.append(hosts[0])
            gateway_grid[(r, c)] = hosts[0]
    for r in range(rows):
        for c in range(cols):
            here = gateway_grid[(r, c)]
            for dr, dc, tag in ((0, 1, "e"), (1, 0, "s")):
                nr, nc = r + dr, c + dc
                if nr >= rows or nc >= cols:
                    continue
                there = gateway_grid[(nr, nc)]
                wan = framework.add_network(
                    WanVthd(
                        sim,
                        f"wan-g{r}x{c}{tag}",
                        seed=seed + 1000 + 13 * (r * cols + c) + (0 if tag == "e" else 1),
                    )
                )
                # the west/north gateway owns the link (probes + faults run
                # there); `connect` auto-registers spanning WANs as window
                # boundaries on a partitioned kernel.
                wan.partition = here.partition
                wan.connect(here)
                wan.connect(there)
                grid.wans.append(wan)
                grid.wan_pairs.append((here, there))
    return grid
