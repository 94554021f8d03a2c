"""The seven workloads: scenario builders over the public API of ``repro``.

A workload is a function ``build(seed, scale) -> batch``.  Building *is* the
set-up (deployment construction, ``fw.boot()``, connection set-up, warm-up
traffic) and is what ``setup_s`` times; ``batch.run()`` is the measured
window, a fixed amount of simulated work (closed/batch load: nothing
arrives on a schedule, every stream and round trip is issued up front or
back to back); ``batch.finish()`` checks the outputs and reads the
counters.  The harness builds the same batch again and again, so every
batch of a run does identical work and every exact figure must repeat.

Sizes were calibrated on the 2-core / Python 3.11 reference box so one
batch is about a second of host time; they are frozen here (``FULL``).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.abstraction.drivers import StreamBuffer
from repro.core import PadicoFramework
from repro.monitoring.churn import poisson_thinning_times
from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.networks import grid_deployment

import stack

KIB = 1024
MIB = 1024 * KIB
MAX_VIRTUAL = 120.0

#: frozen workload sizes (see the module docstring).
FULL = dict(
    grid=dict(rows=5, cols=10, hosts_per_cluster=20),  # 1000 booted hosts
    round_trips=450,            # stack_pingpong: per rung and batch
    bulk_reps=50,               # stack_bulk: transfers per Fig. 3 size, rung and batch
    stream_bytes=256 * KIB,     # grid_*: per VLink stream
    churn_horizon=0.3,          # grid_*: virtual seconds of probes + churn
    staging_payload=64 * MIB,   # bulk_staging: one shared payload ...
    staging_sends=5,            # ... sent this many times per stream
    contended_bytes=8 * MIB,    # bulk_contended: per stream
    kernel_horizon=0.42,        # kernel_timers: virtual seconds
)
#: ``--quick``: 32-host grids and 200 round trips, for the tests.
QUICK = dict(
    grid=dict(rows=2, cols=2, hosts_per_cluster=8),
    round_trips=200,
    bulk_reps=1,
    stream_bytes=128 * KIB,
    churn_horizon=0.2,
    staging_payload=16 * MIB,
    staging_sends=2,
    contended_bytes=4 * MIB,
    kernel_horizon=0.3,
)


@dataclass
class Outcome:
    """What one batch did, read after its window."""

    units: float                      # work units completed (see Workload.unit)
    attempted: int                    # operations whose output was checked
    failed: int                       # ... and found wrong
    exact: Dict[str, float] = field(default_factory=dict)   # must repeat exactly
    host: Dict[str, float] = field(default_factory=dict)    # host timings, noisy


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                         # what ``Outcome.units`` counts
    build: Callable                   # (seed, scale) -> batch


# ---------------------------------------------------------------------------
# counters, read through the layers' public accessors after a window
# ---------------------------------------------------------------------------


def read_counters(sims, networks, nodes=(), cores=(), routing=None, monitoring=None,
                  units: float = 1.0) -> Dict[str, float]:
    """The exact per-layer counters of BENCHMARK.json for one batch."""
    stats = [sim.stats() for sim in sims]
    events = sum(s.events_processed for s in stats)
    out = {
        "simnet.engine.events": events,
        "simnet.engine.timers_scheduled": sum(s.timers_scheduled for s in stats),
        "simnet.engine.cancellations": sum(s.cancellations for s in stats),
        "simnet.engine.peak_pending": max(s.peak_pending for s in stats),
        "simnet.engine.wheel_rebuilds": sum(s.wheel_rebuilds for s in stats),
        "simnet.engine.events_per_unit": events / units,
        "simnet.network.frames_sent": sum(n.frames_sent for n in networks),
        "simnet.network.frames_dropped": sum(n.frames_dropped for n in networks),
        "simnet.network.bytes_carried": sum(n.bytes_carried for n in networks),
    }
    # TcpStack has no public connection list and TcpConnection no public
    # handle on its fluid controller yet (benchmarks/test_engine_scale.py
    # reads `_fluid` the same way); an accessor is a later issue.
    conns = [c for node in nodes for c in node.tcp._connections.values()]
    fluid = [c._fluid for c in conns if getattr(c, "_fluid", None) is not None]
    rounds = sum(c.rounds for c in conns)
    epoch_rounds = sum(f.epoch_rounds for f in fluid)
    out.update({
        "simnet.tcp.rounds": rounds,
        "simnet.tcp.bytes_sent": sum(c.bytes_sent for c in conns),
        "simnet.fluid.fluid_rounds": sum(f.fluid_rounds for f in fluid),
        "simnet.fluid.epochs": sum(f.epochs for f in fluid),
        "simnet.fluid.invalidations": sum(len(f.invalidations) for f in fluid),
        "simnet.fluid.epoch_round_share": epoch_rounds / rounds if rounds else 0.0,
    })
    partitioned = [sim for sim in sims if sim.partition_count > 1]
    shard_events = [s.events_processed for sim in partitioned for s in sim.partition_stats()]
    out.update({
        "simnet.partition.windows": sum(sim.windows_run for sim in partitioned),
        "simnet.partition.mailbox_deliveries": sum(sim.mailbox_deliveries for sim in partitioned),
        "simnet.partition.shard_event_imbalance": (
            max(shard_events) * len(shard_events) / sum(shard_events) if shard_events else 0.0
        ),
    })
    cores = list(cores) + [node.netaccess for node in nodes]
    sysios = [node.sysio for node in nodes]
    relays = [node.gateway_relay for node in nodes]
    out.update({
        "arbitration.netaccess.dispatches": sum(
            row["dispatches"] for core in cores for row in core.fairness_report().values()
        ),
        "arbitration.sysio.dispatches": sum(s.dispatches for s in sysios),
        "arbitration.sysio.bytes_sent": sum(s.bytes_sent for s in sysios),
        "abstraction.routing.relayed": sum(r.relayed for r in relays),
        "abstraction.routing.relay_bytes_forwarded": sum(r.bytes_forwarded for r in relays),
        "abstraction.routing.cached_paths": routing.describe()["cached_paths"] if routing else 0,
        "monitoring.pushes": monitoring.pushes if monitoring else 0,
        "monitoring.reclassifications": monitoring.reclassifications if monitoring else 0,
    })
    return out


# ---------------------------------------------------------------------------
# stack_pingpong / stack_bulk: the ladder on the paper's two-node cluster
# ---------------------------------------------------------------------------

#: Fig. 3's large message sizes.
BULK_SIZES = (65536, 131072, 262144, 524288, 1000000)


class _StackBatch:
    """Every rung of :data:`stack.RUNGS`, each in its own deployment, doing
    the same operation count; each rung's window is timed on its own, which
    is where the ladder's host-time figures come from."""

    def __init__(self, seed: int, scale: dict):
        self.rungs = [make() for make in stack.RUNGS]
        self.rng = random.Random(seed)
        self.failed = 0
        self.attempted = 0
        self.wall: Dict[str, float] = {}
        self.events: Dict[str, int] = {}
        self.virtual: Dict[str, float] = {}
        for rung in self.rungs:
            self._drive(rung, self._warm_up(rung))

    def _drive(self, rung, gen):
        return rung.sim.run(until=rung.sim.process(gen), max_time=MAX_VIRTUAL)

    def _warm_up(self, rung):
        yield from rung.connect()
        for _ in range(3):
            yield from rung.pingpong(b"warm-up!")

    def _traffic(self, rung):
        raise NotImplementedError

    def run(self) -> None:
        for rung in self.rungs:
            sim = rung.sim
            events, virtual = sim.stats().events_processed, sim.now
            start = time.perf_counter()
            self._drive(rung, self._traffic(rung))
            self.wall[rung.layer] = time.perf_counter() - start
            self.events[rung.layer] = sim.stats().events_processed - events
            self.virtual[rung.layer] = sim.now - virtual

    def _counters(self, units: float) -> Dict[str, float]:
        out = read_counters(
            sims=[r.sim for r in self.rungs],
            networks=[net for r in self.rungs for net in r.networks()],
            nodes=[node for r in self.rungs for node in r.nodes()],
            cores=[core for r in self.rungs for core in r.cores()],
            units=units,
        )
        out["model.virtual_s"] = sum(self.virtual.values())
        return out


class _PingPongBatch(_StackBatch):
    def __init__(self, seed: int, scale: dict):
        self.round_trips = scale["round_trips"]
        super().__init__(seed, scale)
        self.payload = self.rng.randbytes(8)  # Table 1's small message

    def _traffic(self, rung):
        payload = self.payload
        for _ in range(self.round_trips):
            echoed = yield from rung.pingpong(payload)
            self.attempted += 1
            if echoed != payload:
                self.failed += 1

    def finish(self) -> Outcome:
        n = self.round_trips
        oneway_us = {layer: v / n / 2.0 * 1e6 for layer, v in self.virtual.items()}
        exact = self._counters(units=n * len(self.rungs))
        host = {}
        for layer in stack.LADDER:
            exact[f"{layer}.oneway_us"] = oneway_us[layer]
            exact[f"{layer}.events_per_rt"] = self.events[layer] / n
            host[f"{layer}.wall_us_per_rt"] = self.wall[layer] / n * 1e6
        exact["model.err_pct"] = 100.0 * max(
            abs(oneway_us[layer] - paper) / paper for layer, (paper, _bw) in stack.TABLE1.items()
        )
        alone = oneway_us["middleware.mpi_standalone"]
        exact["model.framework_overhead_pct"] = (
            100.0 * (oneway_us["middleware.mpi"] - alone) / alone
        )
        return Outcome(n * len(self.rungs), self.attempted, self.failed, exact, host)


class _BulkBatch(_StackBatch):
    def __init__(self, seed: int, scale: dict):
        self.reps = scale["bulk_reps"]
        super().__init__(seed, scale)
        data = self.rng.randbytes(BULK_SIZES[-1])
        self.payloads = [data[:size] for size in BULK_SIZES]
        self.one_way_s: Dict[str, float] = {}

    def _warm_up(self, rung):
        yield from super()._warm_up(rung)
        yield from rung.one_way(bytes(BULK_SIZES[0]))  # slow start, rendezvous set-up

    def _traffic(self, rung):
        for payload in self.payloads:
            elapsed = 0.0
            for _ in range(self.reps):
                seconds, data = yield from rung.one_way(payload)
                elapsed += seconds
                self.attempted += 1
                if data != payload:
                    self.failed += 1
        # the last size is the 1 MB message Table 1 quotes its bandwidth for
        self.one_way_s[rung.layer] = elapsed / self.reps

    def finish(self) -> Outcome:
        megabytes = self.reps * sum(BULK_SIZES) / 1e6
        bw_MBps = {layer: BULK_SIZES[-1] / s / 1e6 for layer, s in self.one_way_s.items()}
        exact = self._counters(units=megabytes * len(self.rungs))
        host = {}
        for layer in stack.LADDER:
            exact[f"{layer}.bw_MBps"] = bw_MBps[layer]
            host[f"{layer}.wall_ms_per_MB"] = self.wall[layer] / megabytes * 1e3
        exact["model.err_pct"] = 100.0 * max(
            abs(bw_MBps[layer] - paper) / paper for layer, (_lat, paper) in stack.TABLE1.items()
        )
        alone = bw_MBps["middleware.mpi_standalone"]
        exact["model.framework_overhead_pct"] = (
            100.0 * (alone - bw_MBps["middleware.mpi"]) / alone
        )
        return Outcome(megabytes * len(self.rungs), self.attempted, self.failed, exact, host)


# ---------------------------------------------------------------------------
# grid_deployment / grid_partitioned: user-shaped traffic on the 1000-host grid
# ---------------------------------------------------------------------------

CHUNK = 32 * KIB          # writer granularity: one VLink write per chunk
READ_PIECE = 8 * KIB      # reader granularity: framed middleware-style reads
PROBE_INTERVAL = 0.002
CHURN_RATE = 8.0          # degradations per WAN and virtual second
CHURN_LENGTH = 0.03


def _seeded(seed: int, salt: int) -> random.Random:
    return random.Random(seed * 1_000_003 + salt)


def _watch_wans(fw, grid, seed: int, interval: float) -> None:
    """An active probe per WAN, its RNG from the seed."""
    for index, wan in enumerate(grid.wans):
        fw.monitoring.watch(wan, interval=interval, seed=seed * 4099 + index, coalesce=8)


def _streams_outcome(fw, received, total: int, virtual_s: float) -> Outcome:
    """Counters and the per-stream byte check of a deployment's window."""
    megabytes = len(received) * total / 1e6
    exact = read_counters(
        sims=[fw.sim], networks=fw.networks(), nodes=fw.nodes(),
        routing=fw.routing, monitoring=fw.monitoring, units=megabytes,
    )
    exact["model.virtual_s"] = virtual_s
    failed = sum(1 for got in received if got != total)
    return Outcome(megabytes, len(received), failed, exact)


class _GridBatch:
    """Chunked VLink streams between cluster neighbours, double-gateway
    relayed streams between neighbouring clusters, an active probe per WAN
    and seeded degrade/recover churn (Lewis-Shedler thinning schedules).

    Set-up boots the grid and connects every stream; probes, churn and the
    writers start with the window."""

    def __init__(self, seed: int, scale: dict, partitions=None):
        cfg = scale["grid"]
        self.total = scale["stream_bytes"]
        self.fw = fw = PadicoFramework(partitions=partitions)
        self.grid = grid = grid_deployment(fw, **cfg)
        fw.boot()
        self.payload = _seeded(seed, 0xDA7A).randbytes(CHUNK)
        self.streams = []      # (source host, connected VLink)
        self.received = []
        self.completions = []
        port = itertools.count(7000)
        connects = []
        for hosts in grid.clusters:
            for i in range(1, len(hosts) - 1):
                connects.append(self._connect(hosts[i], hosts[i + 1], next(port)))
        clusters = grid.clusters
        for k, hosts in enumerate(clusters):
            if (k + 1) % cfg["cols"]:  # has a right-hand neighbour cluster
                connects.append(self._connect(hosts[-1], clusters[k + 1][1], next(port)))
        fw.sim.run(until=fw.sim.all_of(connects), max_time=MAX_VIRTUAL)

        self.start = start = fw.sim.now
        self.horizon = start + scale["churn_horizon"]
        _watch_wans(fw, grid, seed, PROBE_INTERVAL)
        injector = fw.fault_injector(seed=seed, announce=True)
        rng = _seeded(seed, 0xC4A05)
        for wan in grid.wans:
            recovered = 0.0
            for at in poisson_thinning_times(
                rng, lambda _t: CHURN_RATE, scale["churn_horizon"] - CHURN_LENGTH, CHURN_RATE
            ):
                if at < recovered:
                    continue  # still degraded
                injector.degrade_link_at(start + at, wan, loss_rate=0.004, bandwidth=9.0e6)
                recovered = at + CHURN_LENGTH
                injector.recover_link_at(start + recovered, wan)
        self.done_at = None

    def _connect(self, src, dst, port):
        """Listen on ``dst``, connect from ``src``; the returned process
        ends when the stream's VLink is established."""
        fw, total, index = self.fw, self.total, len(self.received)
        self.received.append(0)
        self.streams.append(None)
        done = fw.sim.event(name=f"stream-{port}")
        self.completions.append(done)

        def on_accept(link):
            def reader():
                got = 0
                while got < total:
                    data = yield link.read(min(READ_PIECE, total - got))
                    got += len(data)
                self.received[index] = got
                done.succeed(got)

            fw.sim.process(reader(), name=f"rx-{port}")

        fw.node(dst.name).vlink_listen(port).set_accept_callback(on_accept)

        def connect():
            link = yield fw.node(src.name).vlink_connect(fw.node(dst.name), port)
            self.streams[index] = (src, link)

        # runs in the source host's partition (readers spawn in the accept
        # callback, which already runs in the destination's)
        with fw.sim.in_partition(src.partition):
            return fw.sim.process(connect(), name=f"connect-{port}")

    def _writer(self, link):
        payload, total = self.payload, self.total
        sent = 0
        while sent < total:
            n = min(CHUNK, total - sent)
            yield link.write(payload[:n])
            sent += n

    def run(self) -> None:
        sim = self.fw.sim
        for src, link in self.streams:
            with sim.in_partition(src.partition):
                sim.process(self._writer(link))
        sim.run(until=sim.all_of(self.completions), max_time=MAX_VIRTUAL)
        self.done_at = sim.now
        # through the whole probe/churn horizon, so every seed simulates the
        # same span however early its streams finish
        sim.run(until=max(self.horizon, sim.now), max_time=MAX_VIRTUAL)

    def finish(self) -> Outcome:
        return _streams_outcome(self.fw, self.received, self.total, self.done_at - self.start)


# ---------------------------------------------------------------------------
# bulk_staging / bulk_contended: bulk TCP at hybrid fidelity
# ---------------------------------------------------------------------------

STAGING_PROBE_INTERVAL = 0.05


class _BulkTcpBatch:
    """Bulk TCP streams between non-gateway cluster hosts at
    ``fidelity="hybrid"``, drained through the zero-copy iov read path.
    Set-up boots the grid and connects every stream."""

    def __init__(self, seed: int, scale: dict, contended: bool):
        self.fw = fw = PadicoFramework(fidelity="hybrid")
        self.grid = grid = grid_deployment(fw, **scale["grid"])
        fw.boot()
        if contended:
            self.sends, size = 1, scale["contended_bytes"]
        else:
            self.sends, size = scale["staging_sends"], scale["staging_payload"]
        self.total = self.sends * size
        # one zero payload shared by every stream: sends queue views of it,
        # and pages nobody reads are never resident
        self.payload = bytes(size)
        self.conns = []
        self.received = []
        self.completions = []
        port = itertools.count(7000)
        connects = []
        for hosts in grid.clusters:
            ring = hosts[1:]  # the gateway (hosts[0]) stays out of it
            for i, src in enumerate(ring):
                if contended:
                    # two flows per sending NIC: the fluid tier needs a sole sender
                    connects.append(self._connect(src, ring[(i + 1) % len(ring)], next(port)))
                    connects.append(self._connect(src, ring[i - 1], next(port)))
                elif i + 1 < len(ring):
                    connects.append(self._connect(src, ring[i + 1], next(port)))
        fw.sim.run(until=fw.sim.all_of(connects), max_time=MAX_VIRTUAL)
        self.start = fw.sim.now
        _watch_wans(fw, grid, seed, STAGING_PROBE_INTERVAL)
        self.done_at = None

    def _connect(self, src, dst, port):
        fw, total, index = self.fw, self.total, len(self.received)
        self.received.append(0)
        self.conns.append(None)
        done = fw.sim.event(name=f"bulk-{port}")
        self.completions.append(done)

        def on_accept(conn):
            def on_data(c):
                got = self.received[index] + sum(len(chunk) for chunk in c.read_iov())
                self.received[index] = got
                if got >= total and not done.triggered:
                    done.succeed(got)

            conn.set_data_callback(on_data)

        fw.node(dst.name).tcp.listen(port).set_accept_callback(on_accept)

        def connect():
            self.conns[index] = yield fw.node(src.name).tcp.connect(dst, port)

        return fw.sim.process(connect(), name=f"bulk-connect-{port}")

    def _sender(self, conn):
        for _ in range(self.sends):
            yield conn.send(self.payload)

    def run(self) -> None:
        sim = self.fw.sim
        for conn in self.conns:
            sim.process(self._sender(conn))
        sim.run(until=sim.all_of(self.completions), max_time=MAX_VIRTUAL)
        self.done_at = sim.now

    def finish(self) -> Outcome:
        return _streams_outcome(self.fw, self.received, self.total, self.done_at - self.start)


# ---------------------------------------------------------------------------
# kernel_timers: the bare event kernel
# ---------------------------------------------------------------------------

HB_INTERVAL = 0.01
HB_GUARD = 0.06
HB_LOSS = 0.005
WAN_BEAT_INTERVAL = 0.017
BURST = 256 * KIB          # one full TCP receive window accumulated at a relay
BURST_INTERVAL = 0.02
RELAY_HOPS = 4             # client TCP -> gateway splice -> gateway splice -> server TCP
FORWARD_DELAY = 2e-6
FRAME = 2 * KIB            # framed reads (GIOP headers, MPI envelopes, ...)
FLAP_RATE = 2.0
FLAP_DOWN = 0.03


class _HostsAndNetworks:
    """The surface ``grid_deployment`` needs when nothing is booted."""

    def __init__(self, sim):
        self.sim = sim

    def add_host(self, name, site="default-site"):
        host = Host(self.sim, name)
        host.site = site
        return host

    def add_network(self, network):
        return network


class _KernelBatch:
    """Heartbeat failure detectors with cancellable guards on every host,
    Poisson-thinning flaps on every WAN, and per WAN two 4-hop
    ``StreamBuffer`` relay pipelines drained by 2 KB framed reads — on a bare
    ``Simulator``, no protocol layer anywhere."""

    def __init__(self, seed: int, scale: dict):
        self.sim = sim = Simulator()
        self.horizon = horizon = scale["kernel_horizon"]
        self.grid = grid = grid_deployment(_HostsAndNetworks(sim), **scale["grid"])
        rng = _seeded(seed, 0xBEEF)
        self.count = count = dict.fromkeys(
            ("beats", "delivered", "suspicions", "flaps", "bursts", "forwards", "reads",
             "wan_beats"), 0
        )

        # failure detectors: host -> cluster successor
        inflight = {}
        keys = itertools.count()

        def deliver(key):
            count["delivered"] += 1
            inflight.pop(key).cancel()

        def guard_fired(key):
            del inflight[key]  # the beat was lost: a real suspicion
            count["suspicions"] += 1

        def make_beat(lan, host_rng):
            latency = lan.latency + lan.serialization_time(64)

            def beat():
                count["beats"] += 1
                key = next(keys)
                if host_rng.random() >= HB_LOSS:
                    sim.call_later(latency, deliver, key)
                inflight[key] = sim.call_later(HB_GUARD, guard_fired, key)

            return beat

        for lan, hosts in zip(grid.lans, grid.clusters):
            for _host in hosts:
                host_rng = random.Random(rng.randrange(1 << 30))
                phase = host_rng.random() * HB_INTERVAL
                sim.call_later(phase, sim.every, HB_INTERVAL, make_beat(lan, host_rng))

        # churn: Poisson-thinning flap schedules on the WAN links
        def set_up(net, up):
            net.up = up
            count["flaps"] += 1

        for wan in grid.wans:
            back_up = 0.0
            for at in poisson_thinning_times(rng, lambda _t: FLAP_RATE, horizon, FLAP_RATE):
                if at < back_up:
                    continue
                back_up = at + FLAP_DOWN
                sim.call_later(at, set_up, wan, False)
                sim.call_later(back_up, set_up, wan, True)

        # relayed framed byte streams: two directions per WAN
        payload = bytes(BURST)
        self.produced = []
        self.consumed = []

        def make_pipeline(wan):
            index = len(self.produced)
            self.produced.append(0)
            self.consumed.append(0)
            stages = [StreamBuffer(sim) for _ in range(RELAY_HOPS)]

            def splice(src, dst):
                def pump():
                    data = src.read_available()
                    if data:
                        count["forwards"] += 1
                        sim.call_later(FORWARD_DELAY, dst.append, data)

                src.set_data_callback(pump)

            for src, dst in zip(stages, stages[1:]):
                splice(src, dst)
            tail = stages[-1]

            def drain(ev):
                count["reads"] += 1
                self.consumed[index] += len(ev.value)
                tail.recv_exact(FRAME).add_callback(drain)

            tail.recv_exact(FRAME).add_callback(drain)

            def produce():
                if wan.up:
                    count["bursts"] += 1
                    self.produced[index] += BURST
                    stages[0].append(payload)

            sim.call_later(rng.random() * BURST_INTERVAL, sim.every, BURST_INTERVAL, produce)

        for wan in grid.wans:
            make_pipeline(wan)
            make_pipeline(wan)

        # cross-cluster gateway beats riding the WAN latency
        def wan_deliver():
            count["wan_beats"] += 1

        def make_wan_beat(wan):
            return lambda: sim.call_later(wan.latency, wan_deliver)

        for wan in grid.wans:
            for _direction in range(2):
                phase = rng.random() * WAN_BEAT_INTERVAL
                sim.call_later(phase, sim.every, WAN_BEAT_INTERVAL, make_wan_beat(wan))

    def run(self) -> None:
        self.sim.run(until=self.horizon)

    def finish(self) -> Outcome:
        count = self.count
        logical_events = sum(count.values())
        exact = read_counters(sims=[self.sim], networks=[], units=logical_events)
        exact["model.virtual_s"] = self.sim.now
        # a pipeline must have drained everything produced but the bursts
        # still crossing its hops at the horizon; the detectors must suspect
        # only the seeded losses
        failed = sum(
            1 for made, read in zip(self.produced, self.consumed)
            if not made - BURST <= read <= made
        )
        failed += not 0 < count["suspicions"] < 0.02 * count["beats"]
        return Outcome(logical_events, len(self.produced) + 1, failed, exact)


#: why each workload exists is recorded in BENCHMARK.json and the README.
WORKLOADS = {w.name: w for w in (
    Workload("stack_pingpong", "round trip", _PingPongBatch),
    Workload("stack_bulk", "MB", _BulkBatch),
    Workload("grid_deployment", "MB", _GridBatch),
    Workload("grid_partitioned", "MB", lambda seed, scale: _GridBatch(seed, scale, partitions=4)),
    Workload("bulk_staging", "MB", lambda seed, scale: _BulkTcpBatch(seed, scale, False)),
    Workload("bulk_contended", "MB", lambda seed, scale: _BulkTcpBatch(seed, scale, True)),
    Workload("kernel_timers", "logical event", _KernelBatch),
)}
