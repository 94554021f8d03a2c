"""The bare-kernel workload and the two trace equalities it exists for:
wheel ≡ reference heap, and partitioned ≡ single loop.

The same traffic as perfbench's ``kernel_timers`` (heartbeat failure
detectors with cancellable guards, Poisson-thinning WAN flaps, 4-hop
``StreamBuffer`` relay pipelines drained by 2 KB framed reads, gateway
beats riding the WAN latency), but *placed*: every schedule lands in the
partition that owns its cluster or link, and the gateway beats cross
partitions through the boundary mailboxes.  perfbench's builder has no
placement, which is why this one scenario lives outside it.  Its logical
trace — the counters below and the final instant — is identical on every
kernel by construction.
"""

from __future__ import annotations

import functools
import itertools
import random

import pytest

from repro.abstraction.drivers import StreamBuffer
from repro.monitoring.churn import poisson_thinning_times
from repro.simnet.engine import ReferenceSimulator, Simulator
from repro.simnet.host import Host
from repro.simnet.networks import grid_deployment

HB_INTERVAL, HB_GUARD, HB_LOSS = 0.01, 0.06, 0.005
WAN_BEAT_INTERVAL = 0.017
BURST = 256 * 1024          # one full TCP receive window accumulated at a relay
BURST_INTERVAL = 0.02
RELAY_HOPS = 4              # client TCP -> two gateway splices -> server TCP
FORWARD_DELAY = 2e-6
FRAME = 2 * 1024            # framed reads (GIOP headers, MPI envelopes, ...)
FLAP_RATE, FLAP_DOWN = 2.0, 0.03


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


def run_kernel_scenario(sim, rows: int, cols: int, hosts_per_cluster: int, horizon: float) -> dict:
    """Run the workload on ``sim`` for ``horizon`` virtual seconds; returns
    its logical trace (plus ``mailbox_deliveries`` on a partitioned kernel)."""
    grid = grid_deployment(
        _HostsAndNetworks(sim), rows=rows, cols=cols, hosts_per_cluster=hosts_per_cluster
    )
    rng = random.Random(0xBEEF)
    count = dict.fromkeys(
        ("beats", "delivered", "suspicions", "flaps", "bursts", "forwards", "reads", "wan_beats"), 0
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
        with sim.in_partition(lan.owning_partition()):
            for _host in hosts:
                host_rng = random.Random(rng.randrange(1 << 30))
                phase = host_rng.random() * HB_INTERVAL
                sim.call_later(phase, sim.every, HB_INTERVAL, make_beat(lan, host_rng))

    # churn: Poisson-thinning flap schedules on the WAN links
    def set_up(net, up):
        net.up = up
        net.changed("flap")
        count["flaps"] += 1

    for wan in grid.wans:
        back_up = 0.0
        with sim.in_partition(wan.owning_partition()):
            for at in poisson_thinning_times(rng, lambda _t: FLAP_RATE, horizon, FLAP_RATE):
                if at < back_up:
                    continue
                back_up = at + FLAP_DOWN
                sim.call_later(at, set_up, wan, False)
                sim.call_later(back_up, set_up, wan, True)

    # relayed framed byte streams: two directions per WAN, both in the
    # partition that owns the link (`produce` reads the flag the flaps flip)
    payload = bytes(BURST)

    def make_pipeline(wan):
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

        def drain(_ev):
            count["reads"] += 1
            tail.recv_exact(FRAME).add_callback(drain)

        tail.recv_exact(FRAME).add_callback(drain)

        def produce():
            if wan.up:
                count["bursts"] += 1
                stages[0].append(payload)

        sim.call_later(rng.random() * BURST_INTERVAL, sim.every, BURST_INTERVAL, produce)

    for wan in grid.wans:
        with sim.in_partition(wan.owning_partition()):
            make_pipeline(wan)
            make_pipeline(wan)

    # cross-cluster gateway beats: the delivery executes in the *neighbour's*
    # partition after the wire latency — on the partitioned kernel the
    # boundary-mailbox path (latency == lookahead), on a single loop a plain
    # timer at the same timestamp
    def wan_deliver():
        count["wan_beats"] += 1

    def make_wan_beat(wan, dst_part):
        return lambda: sim.call_at_partition(dst_part, sim.now + wan.latency, wan_deliver)

    for wan, (gw_a, gw_b) in zip(grid.wans, grid.wan_pairs):
        for src_gw, dst_gw in ((gw_a, gw_b), (gw_b, gw_a)):
            phase = rng.random() * WAN_BEAT_INTERVAL
            with sim.in_partition(src_gw.partition):
                sim.call_later(
                    phase, sim.every, WAN_BEAT_INTERVAL, make_wan_beat(wan, dst_gw.partition)
                )

    sim.run(until=horizon)
    trace = dict(count, virtual_s=sim.now)
    if sim.partition_count > 1:
        trace["mailbox_deliveries"] = sim.mailbox_deliveries
    return trace


#: rows, cols, hosts per cluster, virtual seconds
SMALL = (2, 2, 8, 0.4)    # 32 hosts
MEDIUM = (5, 5, 8, 0.8)   # 200 hosts


@functools.cache
def single_loop(size: tuple) -> dict:
    """The shipped single-loop kernel's trace of ``size``, shape-checked."""
    trace = run_kernel_scenario(Simulator(), *size)
    # detectors mostly cancel (suspicions only from the seeded loss), and
    # every burst is consumed by the framed reader
    assert 0 < trace["suspicions"] < 0.02 * trace["beats"]
    assert trace["reads"] >= trace["bursts"] * (BURST // FRAME) * 0.9
    return trace


def test_kernel_workload_trace_matches_reference_heap():
    """Both schedulers must produce identical logical traces (the wheel is a
    faster implementation of the *same* deterministic order)."""
    assert run_kernel_scenario(ReferenceSimulator(), *SMALL) == single_loop(SMALL)


@pytest.mark.parametrize(
    "size, nparts", [(SMALL, 2), (SMALL, 4), (MEDIUM, 2)], ids=["2", "4", "200-hosts-2"]
)
def test_partitioned_kernel_trace_matches_single_loop(size, nparts):
    """Determinism acceptance: the seeded churn workload executes the same
    logical trace sharded across partitions as on the single loop."""
    multi = run_kernel_scenario(Simulator(partitions=nparts), *size)
    assert multi.pop("mailbox_deliveries") > 0  # WAN beats crossed the boundary
    assert multi == single_loop(size)
