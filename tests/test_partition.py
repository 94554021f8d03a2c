"""Tests for the partitioned simulation kernel (`repro.simnet.partition`).

Covers the facade dispatch, per-partition scheduling and clocks, the
conservative-window run loop, boundary mailboxes (including the documented
deterministic ordering for same-timestamp cross-partition deliveries),
lookahead violations, and the framework-level integration
(partitioned grid deployment with monitoring and churn delivering the same
bytes as the single-loop kernel).
"""

import inspect

import pytest

from repro.core import PadicoFramework
from repro.simnet.engine import ReferenceSimulator, SimulationError, Simulator
from repro.simnet.networks import Ethernet100, WanVthd, grid_deployment
from repro.simnet.partition import (
    DEFAULT_LOOKAHEAD,
    LookaheadViolation,
    PartitionedSimulator,
)


# ---------------------------------------------------------------------------
# construction & dispatch
# ---------------------------------------------------------------------------


def test_simulator_dispatches_on_partitions():
    assert type(Simulator()) is Simulator
    assert type(Simulator(partitions=1)) is Simulator
    sim = Simulator(partitions=2)
    assert isinstance(sim, PartitionedSimulator)
    assert sim.partition_count == 2
    assert Simulator().partition_count == 1


def test_partitioned_rejects_bad_config():
    """Both kernels take the same keywords and refuse the same values: a
    non-positive lookahead is an error, and anything outside the signature
    is a plain TypeError — no option is accepted and ignored."""
    for partitions in (None, 2):
        for lookahead in (0.0, -1):
            with pytest.raises(SimulationError, match="lookahead"):
                Simulator(partitions=partitions, lookahead=lookahead)
        kernel = type(Simulator(partitions=partitions))
        accepted = set(inspect.signature(kernel.__init__).parameters) - {"self"}
        assert accepted == {"partitions", "lookahead", "wheel_width", "wheel_buckets"}
        with pytest.raises(TypeError):
            Simulator(partitions=partitions, no_such_option="bogus")
    with pytest.raises(SimulationError):
        PartitionedSimulator(partitions=1)
    # the reference heap has no wheel to size and cannot be sharded
    assert set(inspect.signature(ReferenceSimulator.__init__).parameters) == {"self"}
    for option in ("wheel_width", "wheel_buckets", "partitions"):
        with pytest.raises(TypeError):
            ReferenceSimulator(**{option: 2})


def test_single_loop_partition_hooks_are_noops():
    sim = Simulator()
    fired = []
    with sim.in_partition(5):
        sim.call_later(1.0, lambda: fired.append(sim.now))
    handle = sim.call_at_partition(3, 2.0, lambda: fired.append(sim.now))
    assert handle is not None  # single loop returns a cancellable handle
    sim.run()
    assert fired == [1.0, 2.0]
    assert sim.current_partition == 0


# ---------------------------------------------------------------------------
# per-partition scheduling, clocks, run semantics
# ---------------------------------------------------------------------------


def test_in_partition_routes_and_clocks_advance():
    sim = Simulator(partitions=3)
    fired = []
    for part, delay in ((0, 3.0), (1, 1.0), (2, 2.0)):
        with sim.in_partition(part):
            sim.call_later(delay, lambda p=part: fired.append((p, sim.now)))
    with pytest.raises(SimulationError):
        sim.in_partition(3)
    sim.run()
    assert sorted(fired) == [(0, 3.0), (1, 1.0), (2, 2.0)]
    # natural exhaustion commits a common clock across partitions
    assert sim.now == 3.0
    sim.call_later(1.0, lambda: fired.append(("late", sim.now)))
    sim.run()
    assert fired[-1] == ("late", 4.0)


def test_partition_local_order_is_exact():
    """Within one partition the executed order is the single-kernel
    (when, seq) order, ties FIFO."""
    sim = Simulator(partitions=2)
    fired = []
    with sim.in_partition(1):
        for name in "abcd":
            sim.call_later(1.0, lambda n=name: fired.append(n))
        sim.call_later(0.5, lambda: fired.append("early"))
    sim.run()
    assert fired == ["early", "a", "b", "c", "d"]


def test_events_and_processes_ride_the_triggering_partition():
    sim = Simulator(partitions=2)
    log = []

    def proc():
        value = yield sim.timeout(0.25, value="tick")
        log.append((sim.current_partition, value))
        return "done"

    with sim.in_partition(1):
        p = sim.process(proc())
    assert sim.run(until=p) == "done"
    assert log == [(1, "tick")]


def test_run_until_time_sets_all_clocks():
    sim = Simulator(partitions=2)
    fired = []
    with sim.in_partition(1):
        sim.call_later(1.0, lambda: fired.append(1))
        sim.call_later(10.0, lambda: fired.append(2))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    assert sim.pending_count() == 1
    sim.run()
    assert fired == [1, 2]


def test_run_until_event_and_deadlock_detection():
    sim = Simulator(partitions=2)
    ev = sim.event()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=ev)
    with sim.in_partition(1):
        sim.call_later(0.5, ev.succeed, "val")
    assert sim.run(until=ev) == "val"


def test_run_until_composite_event_returns_values():
    """An ``all_of`` whose children trigger in different shards."""
    sim = Simulator(partitions=2)
    ev0, ev1 = sim.event(name="p0"), sim.event(name="p1")
    sim.call_later(0.002, ev0.succeed, "zero")
    with sim.in_partition(1):
        sim.call_later(0.003, ev1.succeed, {"one": 1})
    assert sim.run(until=sim.all_of([ev0, ev1])) == ["zero", {"one": 1}]


def test_max_time_guard():
    sim = Simulator(partitions=2)

    def forever():
        while True:
            yield sim.timeout(1.0)

    with sim.in_partition(1):
        sim.process(forever())
    with pytest.raises(SimulationError, match="max_time"):
        sim.run(max_time=10.0)


def test_stop_halts_at_the_barrier():
    sim = Simulator(partitions=2, lookahead=10.0)
    fired = []
    sim.call_later(1.0, sim.stop)
    sim.call_later(2.0, lambda: fired.append("same-shard-later"))
    with sim.in_partition(1):
        sim.call_later(50.0, lambda: fired.append("other-shard"))
    sim.run()
    # shard 0 stopped at t=1 before its t=2 entry; shard 1 was skipped
    assert fired == []
    assert sim.pending_count() == 2
    sim.run()
    assert fired == ["same-shard-later", "other-shard"]


def test_step_is_unavailable():
    sim = Simulator(partitions=2)
    with pytest.raises(SimulationError, match="window-at-a-time"):
        sim.step()


def test_stats_and_pending_aggregate_across_partitions():
    sim = Simulator(partitions=2)
    handles = []
    for part in (0, 1):
        with sim.in_partition(part):
            handles.append(sim.call_later(1.0, lambda: None))
            handles.append(sim.call_later(2.0, lambda: None))
    assert sim.pending_count() == 4
    handles[0].cancel()
    assert sim.pending_count() == 3
    sim.run()
    stats = sim.stats()
    assert stats.timers_scheduled == 4
    assert stats.cancellations == 1
    assert stats.events_processed == 3
    assert len(sim.partition_stats()) == 2


# ---------------------------------------------------------------------------
# boundary mailboxes & lookahead
# ---------------------------------------------------------------------------


def test_cross_partition_mailbox_delivery():
    sim = Simulator(partitions=2, lookahead=0.01)
    log = []

    def send():
        sim.call_at_partition(1, sim.now + 0.02, log.append, ("delivered", 1))

    sim.call_later(0.001, send)
    with sim.in_partition(1):
        sim.call_later(0.1, lambda: log.append(("tail", sim.now)))
    sim.run()
    assert log == [("delivered", 1), ("tail", 0.1)]
    assert sim.mailbox_deliveries == 1


def test_mailbox_same_timestamp_ordering_rule():
    """Same-timestamp cross-partition deliveries drain in
    (when, send-time, source partition, source seq) order, regardless of
    which partition's window ran first."""
    sim = Simulator(partitions=3, lookahead=0.01)
    arrival = 0.05
    order = []

    def send(tag):
        sim.call_at_partition(2, arrival, order.append, tag)

    # p1 sends earlier in virtual time than p0; p0 and p1 also send at an
    # identical timestamp (t=0.003), where the lower partition index wins;
    # a same-partition pair at one timestamp keeps scheduling order.
    sim.call_later(0.003, send, "p0@3")  # partition 0
    with sim.in_partition(1):
        sim.call_later(0.001, send, "p1@1")
        sim.call_later(0.003, send, "p1@3a")
        sim.call_later(0.003, send, "p1@3b")
    sim.run()
    assert order == ["p1@1", "p0@3", "p1@3a", "p1@3b"]


def test_in_partition_refused_across_shards_mid_run():
    """Model code must not enter another partition directly (the target
    clock is mid-window); same-partition entry and the mailbox path stay
    available."""
    sim = Simulator(partitions=2, lookahead=0.01)
    outcomes = []

    def from_model_code():
        with pytest.raises(SimulationError, match="cannot enter partition 1"):
            with sim.in_partition(1):
                pass
        with sim.in_partition(0):  # own partition: fine
            sim.call_later(0.001, lambda: outcomes.append("own"))
        sim.call_at_partition(1, sim.now + 0.02, outcomes.append, "mailbox")

    sim.call_later(0.005, from_model_code)
    sim.run()
    assert outcomes == ["own", "mailbox"]


def test_lookahead_violation_raises():
    sim = Simulator(partitions=2, lookahead=0.01)

    def too_fast():
        sim.call_at_partition(1, sim.now + 0.001, lambda: None)

    sim.call_later(0.005, too_fast)
    with pytest.raises(LookaheadViolation):
        sim.run()


def test_partition_local_call_at_partition_is_direct():
    sim = Simulator(partitions=2, lookahead=0.01)
    log = []

    def local():
        # same-partition target: no mailbox, sub-lookahead delay is fine
        handle = sim.call_at_partition(0, sim.now + 0.0001, log.append, "local")
        assert handle is not None

    sim.call_later(0.001, local)
    sim.run()
    assert log == ["local"]
    assert sim.mailbox_deliveries == 0


def test_boundary_network_autoregisters_and_bounds_lookahead():
    sim = Simulator(partitions=2)
    assert sim.effective_lookahead() == DEFAULT_LOOKAHEAD
    lan = Ethernet100(sim, "lan-part0")
    wan = WanVthd(sim, "wan-x")
    from repro.simnet.host import Host

    a, b, c = Host(sim, "a"), Host(sim, "b"), Host(sim, "c")
    b.partition = 1
    lan.connect(a), lan.connect(c)  # same partition: not a boundary
    wan.connect(a), wan.connect(b)  # spans partitions 0 and 1
    assert wan in sim.boundary_networks()
    assert lan not in sim.boundary_networks()
    assert sim.effective_lookahead() == wan.latency
    # degraded boundary latency shrinks the next window dynamically
    wan.latency = wan.latency / 2
    wan.changed("degrade")
    assert sim.effective_lookahead() == wan.latency


def test_network_transmit_crosses_partitions():
    """A frame over a partition-spanning WAN is delivered through the
    boundary mailbox at the exact arrival time the wire model computes."""
    sim = Simulator(partitions=2)
    wan = WanVthd(sim, "wan-b")
    from repro.simnet.host import Host

    a, b = Host(sim, "a"), Host(sim, "b")
    b.partition = 1
    wan.connect(a), wan.connect(b)
    got = []
    wan.nic_of(b).set_receive_handler(
        lambda delivery: got.append((delivery.payload, sim.now, sim.current_partition)),
        owner="test",
    )
    expected_arrival = wan.one_way_time(100)
    sim.call_later(0.0, wan.transmit, a, b, bytes(100))
    sim.run()
    assert got == [(bytes(100), expected_arrival, 1)]
    assert sim.mailbox_deliveries == 1


# ---------------------------------------------------------------------------
# determinism: partitioned vs single loop
# ---------------------------------------------------------------------------


def _mesh_scenario(sim, nparts):
    """A seeded multi-partition workload: per-partition timer storms plus
    cross-partition 'WAN' messages at >= lookahead delays.  Returns
    per-partition traces of (time, label)."""
    import random

    lookahead = 0.01
    traces = [[] for _ in range(nparts)]
    rng = random.Random(0xA11CE)

    def local(part, label, depth):
        traces[part].append((round(sim.now, 9), label))
        if depth > 0:
            for i in range(rng_draws[part].randrange(1, 3)):
                delay = rng_draws[part].random() * 0.004
                sim.call_later(delay, local, part, f"{label}.{i}", depth - 1)

    def send(part, label, depth):
        traces[part].append((round(sim.now, 9), f"recv:{label}"))
        if depth > 0:
            target = (part + 1) % nparts
            sim.call_at_partition(
                target, sim.now + lookahead + 0.002, send, target, f"{label}>", depth - 1
            )

    # per-partition rngs: draws must not depend on cross-partition order
    rng_draws = [random.Random(rng.randrange(1 << 30)) for _ in range(nparts)]
    for part in range(nparts):
        with sim.in_partition(part):
            for k in range(4):
                sim.call_later(rng.random() * 0.01, local, part, f"seed{part}.{k}", 3)
            sim.call_later(rng.random() * 0.005, send, part, f"msg{part}", 5)
    sim.run()
    return traces


@pytest.mark.parametrize("nparts", [2, 3, 4])
def test_partitioned_trace_matches_itself_and_single_loop(nparts):
    single = _mesh_scenario(Simulator(), nparts)
    multi = _mesh_scenario(Simulator(partitions=nparts, lookahead=0.01), nparts)
    assert multi == single
    assert sum(len(t) for t in multi) > 50


# ---------------------------------------------------------------------------
# framework integration
# ---------------------------------------------------------------------------


def _grid_transfer(partitions):
    """A 2-cluster grid with monitoring + churn and one relayed
    cross-cluster stream; returns (bytes, virtual finish time, framework)."""
    fw = PadicoFramework(partitions=partitions)
    grid = grid_deployment(fw, rows=1, cols=2, hosts_per_cluster=3)
    fw.boot()
    wan = grid.wans[0]
    fw.monitoring.watch(wan, interval=0.005, seed=0x1234)
    injector = fw.fault_injector(seed=0x77, announce=True)
    injector.degrade_link_at(0.05, wan, bandwidth=9.0e6, loss_rate=0.001)
    injector.recover_link_at(0.11, wan)

    src = grid.clusters[0][1]
    dst = grid.clusters[1][2]
    total = 192 * 1024
    listener = fw.node(dst.name).vlink_listen(4000)
    done = fw.sim.event(name="xfer")

    def on_accept(link):
        state = {"got": 0}

        def reader():
            while state["got"] < total:
                data = yield link.read(min(8192, total - state["got"]))
                state["got"] += len(data)
            done.succeed((state["got"], fw.sim.now))

        fw.sim.process(reader(), name="rx")

    listener.set_accept_callback(on_accept)

    def writer():
        link = yield fw.node(src.name).vlink_connect(fw.node(dst.name), 4000)
        sent = 0
        payload = bytes(16 * 1024)
        while sent < total:
            yield link.write(payload[: min(len(payload), total - sent)])
            sent += min(len(payload), total - sent)

    with fw.sim.in_partition(src.partition):
        fw.sim.process(writer(), name="tx")

    got, finished_at = fw.sim.run(until=done, max_time=30.0)
    fw.sim.run(until=max(0.2, fw.sim.now))
    fw.monitoring.stop()
    return got, round(finished_at, 9), fw


def test_partitioned_grid_deployment_assigns_partitions():
    fw = PadicoFramework(partitions=2)
    grid = grid_deployment(fw, rows=1, cols=2, hosts_per_cluster=3)
    assert {h.partition for h in grid.clusters[0]} == {0}
    assert {h.partition for h in grid.clusters[1]} == {1}
    # manual deployments assign through add_host
    assert fw.add_host("manual", partition=1).partition == 1
    assert fw.add_host("defaulted").partition == 0
    # misconfiguration fails at build/boot time, not mid-run
    with pytest.raises(ValueError, match="has 2"):
        grid_deployment(fw, rows=1, cols=1, hosts_per_cluster=1, partitions=4)
    fw.add_host("stray", partition=7)
    from repro.core.framework import FrameworkError

    with pytest.raises(FrameworkError, match="partition 7"):
        fw.boot(["stray"])
    assert grid.lans[0].partition == 0 and grid.lans[1].partition == 1
    assert grid.wans[0].owning_partition() == 0
    assert grid.wans[0] in fw.sim.boundary_networks()
    # window width is the WAN latency (the only boundary link)
    assert fw.sim.effective_lookahead() == grid.wans[0].latency


def test_partitioned_relayed_stream_delivers_same_bytes_as_single_loop():
    got_single, t_single, _ = _grid_transfer(None)
    got_multi, t_multi, sim_fw = _grid_transfer(2)
    assert got_single == got_multi == 192 * 1024
    assert t_multi == t_single
    assert sim_fw.sim.mailbox_deliveries > 0
    assert sim_fw.sim.windows_run > 0


def test_rewatch_of_a_boundary_link_starts_from_zero_samples():
    """Regression: a boundary watch's barrier channel was keyed by the
    link's name and outlived the watch, so the barrier handed the samples
    its probe published before an unwatch — mid-window — to the watch that
    replaced it.  The stopped watch keeps what it observed while watching;
    the new one starts empty."""
    fw = PadicoFramework(partitions=2)
    grid = grid_deployment(fw, rows=1, cols=2, hosts_per_cluster=3)
    wan = grid.wans[0]
    assert wan in fw.sim.boundary_networks()
    old = fw.monitoring.watch(wan, interval=0.0005)
    watches = {}

    def rewatch():
        assert fw.sim.window_end is not None  # inside a window
        fw.monitoring.unwatch(wan)
        watches["new"] = fw.monitoring.watch(wan, interval=1000.0)

    fw.sim.call_at_partition(wan.owning_partition(), 0.0101, rewatch)
    fw.sim.run(until=0.03)
    # every tick up to the unwatch: 0.0101 / 0.0005
    assert old.estimator.samples == old.active.sent == 20
    assert watches["new"].estimator.samples == 0
    fw.monitoring.stop()
    fw.sim.run(until=0.05)
    assert fw.sim._bus_consumers == {}


def test_partitioned_on_demand_gateway_boot_mid_run():
    """A routed connect whose relay gateway was never booted must provision
    it from model code — across partitions — exactly like the single loop
    (the gateway boots in the caller's context; wiring only)."""
    fw = PadicoFramework(partitions=2)
    grid = grid_deployment(fw, rows=1, cols=2, hosts_per_cluster=3)
    src, dst = grid.clusters[0][1], grid.clusters[1][2]
    # boot only the endpoints: both gateways stay down until the connect
    fw.boot([src.name, dst.name])
    listener = fw.node(dst.name).vlink_listen(4100)
    total = 64 * 1024
    done = fw.sim.event(name="xfer")

    def on_accept(link):
        def reader():
            got = 0
            while got < total:
                data = yield link.read(min(8192, total - got))
                got += len(data)
            done.succeed(got)

        fw.sim.process(reader(), name="rx")

    listener.set_accept_callback(on_accept)

    def writer():
        # connect *inside the run*: ensure_gateways boots both gateways on
        # demand from partition 0's model code
        link = yield fw.node(src.name).vlink_connect(fw.node(dst.name), 4100)
        sent = 0
        while sent < total:
            yield link.write(bytes(min(16 * 1024, total - sent)))
            sent += min(16 * 1024, total - sent)

    with fw.sim.in_partition(src.partition):
        fw.sim.process(writer(), name="tx")
    got = fw.sim.run(until=done, max_time=30.0)
    assert got == total
    assert all(fw.node(g.name).booted for g in grid.gateways)


# ---------------------------------------------------------------------------
# barrier-synchronized churn on boundary links
# ---------------------------------------------------------------------------


def _boundary_churn_scenario(period=2e-4, horizon=0.24):
    """Two partitions joined by a WAN with dense cross-boundary traffic.

    Returns (sim, wan, hosts, got, nsent): ``tick`` events in partition 0
    transmit small frames to partition 1 every ``period`` seconds.
    """
    from repro.simnet.host import Host

    sim = Simulator(partitions=2)
    wan = WanVthd(sim, "wan-churn")
    a, b = Host(sim, "a"), Host(sim, "b")
    b.partition = 1
    wan.connect(a)
    wan.connect(b)
    got = []
    wan.nic_of(b).set_receive_handler(lambda d: got.append(sim.now), owner="test")

    def tick():
        wan.transmit(a, b, b"\x00" * 256)

    nsent = int(horizon / period)
    for i in range(nsent):
        sim.call_at_partition(0, i * period, tick)
    return sim, wan, (a, b), got, nsent


def test_mid_window_boundary_latency_drop_is_a_violation():
    """The hazard the barrier hook exists for: mutating a boundary link's
    latency below the in-flight window width, mid-window, makes later
    same-window sends land inside the horizon."""
    sim, wan, _hosts, _got, _n = _boundary_churn_scenario()

    def mutate(lat):
        wan.latency = lat
        wan.changed("degrade")

    # pre-fix routing: the owning partition's loop, exact fault time
    sim.call_at_partition(wan.owning_partition(), 0.05, mutate, 2e-3)
    with pytest.raises(LookaheadViolation):
        sim.run(until=0.25)


def test_seeded_boundary_degrade_churn_applies_at_window_edge():
    """Regression (fluid-fast-path PR): FaultInjector churn on a boundary
    link rides a barrier-synchronized hook — each degrade applies at the
    next window edge, the following window is sized from the already-
    degraded latency, and no cross-partition send ever violates the
    lookahead contract, even when latency drops far below the old window."""
    from repro.abstraction.topology import TopologyKB
    from repro.monitoring.churn import FaultInjector

    sim, wan, _hosts, got, nsent = _boundary_churn_scenario()
    inj = FaultInjector(sim, TopologyKB(), seed=31, announce=False)
    # seeded degrade times; each drop cuts latency below the prior window
    times = sorted(0.02 + inj.rng.random() * 0.15 for _ in range(3))
    lat = wan.latency
    for t in times:
        lat /= 20.0
        inj.degrade_link_at(t, wan, latency=lat)

    sim.run(until=0.25)  # must not raise
    assert wan.latency == lat
    assert sim.effective_lookahead() == lat
    assert [e.kind for e in inj.log] == ["degrade-link"] * 3
    # hooks fire at window edges, never before their scheduled time
    assert [e.at for e in inj.log] == sorted(e.at for e in inj.log)
    for sched, e in zip(times, inj.log):
        assert e.at >= sched
    # nothing was lost to the churn: every frame sent before the horizon
    # arrived (transmit is reliable; only the latency changed)
    assert len(got) == nsent
    assert got == sorted(got)


def test_call_at_barrier_runs_between_windows():
    sim = Simulator(partitions=2)
    ran = []
    sim.call_at_partition(0, 0.005, lambda: ran.append(("p0", sim.now)))
    sim.call_at_barrier(0.0012, lambda: ran.append(("hook", sim.now)))
    assert sim.pending_count() == 2  # hooks count as pending work
    sim.run()
    kinds = [k for k, _t in ran]
    assert kinds == ["hook", "p0"]
    hook_at = dict(ran)["hook"]
    assert hook_at >= 0.0012  # never early: applied at the next window edge


def test_call_at_barrier_single_loop_is_plain_call_at():
    sim = Simulator()
    ran = []
    assert sim.is_boundary(object()) is False
    sim.call_at_barrier(0.5, lambda: ran.append(sim.now))
    sim.run()
    assert ran == [0.5]
