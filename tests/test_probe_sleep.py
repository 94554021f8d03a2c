"""A sleeping active probe is the eager one, tick for tick.

An :class:`~repro.monitoring.probes.ActivePingProbe` under a link watch
keeps one timer, at the next tick whose outcome is observable, and folds the
ticks before it as arithmetic.  The reference is the probe as it was — a
timer per tick (``sim.every``) reading the link live — kept here as
:class:`EagerPingProbe`.  Run the same deployment with each and the
estimator must see the same inputs (instant, kind, values, weight), the
probes must count the same ``(sent, lost)``, and the flight recorder must
hold the same ``monitor.*`` (indeed every non-``engine.window``) record at
the same instant.  Only the engine counters may differ.

Ties.  At one instant the sleeping probe takes its tick first: a tick at
``t`` folds before a passive sample observed at ``t`` and before a change
made at ``t``.  The eager loop orders a tie by engine sequence number, which
gives the same order when the other event was scheduled after the previous
tick fired; :func:`test_a_tick_comes_before_a_sample_and_a_change_of_its_instant`
builds such ties.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.monitoring.feedback as feedback
from repro.core import PadicoFramework
from repro.monitoring import FaultInjector
from repro.monitoring.estimators import LinkEstimator, LinkSample
from repro.simnet.networks import grid_deployment

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import workloads  # noqa: E402 - perfbench's builders are the scenarios


class EagerPingProbe:
    """The reference: one timer per tick, the link read as the tick fires."""

    def __init__(self, network, on_sample, *, interval=0.05, payload=64, seed=0x9806,
                 src=None, dst=None):
        self.network = network
        self.sim = network.sim
        self.partition = self.sim.current_partition
        self.on_sample = on_sample
        self.payload = payload
        self.rng = random.Random(seed)
        self.src, self.dst = src, dst
        self.sent = self.lost = 0
        self._task = self.sim.every(interval, self._tick)

    def _tick(self):
        network = self.network
        self.sent += 1
        if self.src is not None and self.dst is not None:
            alive = network.link_alive(self.src, self.dst)
        else:
            alive = network.up and sum(1 for host in network.nics if host.up) >= 2
        dropped = not alive or (
            network.loss_rate > 0.0
            and (self.rng.random() < network.loss_rate or self.rng.random() < network.loss_rate)
        )
        if dropped:
            self.lost += 1
            self.on_sample(LinkSample(at=self.sim.now, kind="ping", lost=True))
            return
        self.on_sample(LinkSample(
            at=self.sim.now, kind="ping",
            latency=network.latency + network.serialization_time(self.payload),
            bandwidth=network.bandwidth, nbytes=self.payload,
        ))

    # the sleeping probe's surface, which the watch calls: nothing to fold
    def advance(self, until, emit=None):
        return False

    def replan(self):
        pass

    def wake_soon(self):
        pass

    def cancel(self):
        self._task.cancel()


class Recorder:
    """Every estimator input, one entry per tick or sample, by estimator."""

    def __init__(self, monkeypatch):
        self.inputs = {}
        self.started = {}  # estimator -> the instant its watch was made
        self._in_run = False
        update, update_run = LinkEstimator.update, LinkEstimator.update_run
        init = feedback.LinkWatch.__init__
        recorder = self

        def recorded_init(watch, monitor, network, **kwargs):
            init(watch, monitor, network, **kwargs)
            recorder.started[id(watch._estimator)] = monitor.sim.now

        def recorded_update(est, sample):
            if not recorder._in_run:
                recorder._log(est, sample, [sample.at])
            return update(est, sample)

        def recorded_run(est, sample, n):
            recorder._log(est, sample, ("run", n))
            recorder._in_run = True
            try:
                return update_run(est, sample, n)
            finally:
                recorder._in_run = False

        monkeypatch.setattr(LinkEstimator, "update", recorded_update)
        monkeypatch.setattr(LinkEstimator, "update_run", recorded_run)
        monkeypatch.setattr(feedback.LinkWatch, "__init__", recorded_init)

    def _log(self, est, sample, ats):
        values = (sample.kind, sample.latency, sample.bandwidth, sample.nbytes, sample.lost,
                  sample.loss_fraction, sample.count_loss, sample.bursts)
        self.inputs.setdefault(id(est), []).append((ats, sample.at, values))

    def of(self, watch, interval):
        """The watch's inputs, a folded run expanded onto its tick grid."""
        start = self.started[id(watch._estimator)]
        ticks, index = [start], {start: 0}
        out = []
        for ats, last, values in self.inputs.get(id(watch._estimator), []):
            if ats[0] != "run":
                out.append((last, values))
                continue
            n = ats[1]
            while ticks[-1] < last:  # the grid, accumulated as call_later does
                index[ticks[-1] + interval] = len(ticks)
                ticks.append(ticks[-1] + interval)
            end = index[last]
            assert end >= n, "a run folds ticks off its probe's grid"
            out.extend((t, values) for t in ticks[end + 1 - n:end + 1])
        return out


def _outcome(fw, recorder, watches, interval):
    # reading the counts folds the ticks due by now
    counts = {w.network.name: (w.active.sent, w.active.lost) for w in watches}
    inputs = {w.network.name: recorder.of(w, interval) for w in watches}
    records = []
    if fw.telemetry is not None:
        fw.telemetry.flush()
        records = [
            {k: v for k, v in ev.items() if k != "s"}
            for ev in fw.telemetry.events if ev["k"] != "engine.window"
        ]
    return inputs, counts, records, fw.monitoring.describe()


def _quick_grid(monkeypatch, partitions, eager):
    recorder = Recorder(monkeypatch)
    if eager:
        monkeypatch.setattr(feedback, "ActivePingProbe", EagerPingProbe)

    def framework(**kwargs):
        fw = PadicoFramework(**dict(kwargs, partitions=partitions))
        fw.enable_telemetry()
        return fw

    monkeypatch.setattr(workloads, "PadicoFramework", framework)
    batch = workloads.WORKLOADS["grid_deployment"].build(1, workloads.QUICK)
    batch.run()
    fw = batch.fw
    out = _outcome(fw, recorder, fw.monitoring.watches(), workloads.PROBE_INTERVAL)
    stats = fw.sim.stats()
    monkeypatch.undo()
    return out, stats


@pytest.mark.parametrize("partitions", [1, 2])
def test_quick_grid_sleeping_probes_equal_the_eager_loop(monkeypatch, partitions):
    eager, eager_stats = _quick_grid(monkeypatch, partitions, eager=True)
    sleeping, stats = _quick_grid(monkeypatch, partitions, eager=False)
    inputs, counts, records, described = sleeping
    assert described["pushes"] == 7
    assert sum(len(v) for v in inputs.values()) > 300
    assert any(ev["k"] == "monitor.push" for ev in records)
    assert inputs == eager[0]
    assert counts == eager[1]
    assert records == eager[2]
    assert described == eager[3]
    assert stats.events_processed < eager_stats.events_processed


def _two_clusters(seed, coalesce, faults, stream, eager, monkeypatch):
    recorder = Recorder(monkeypatch)
    if eager:
        monkeypatch.setattr(feedback, "ActivePingProbe", EagerPingProbe)
    fw = PadicoFramework()
    fw.enable_telemetry()
    grid = grid_deployment(fw, rows=1, cols=2, hosts_per_cluster=3)
    fw.boot()
    wan = grid.wans[0]
    gateways = [cluster[0] for cluster in grid.clusters]
    interval = 0.01
    watch = fw.monitoring.watch(wan, interval=interval, seed=seed, coalesce=coalesce,
                                min_samples=2)
    injector = FaultInjector(fw.sim, fw.topology, seed=seed, announce=False)
    for kind, at, length in faults:
        if kind == "degrade":
            injector.degrade_link_at(at, wan, loss_rate=length)
        elif kind == "fail":
            injector.fail_link_at(at, wan)
            injector.recover_link_at(at + length, wan)
        else:
            injector.kill_host_at(at, gateways[1])
            injector.revive_host_at(at + length, gateways[1])
    if stream:
        src, dst = gateways
        fw.node(dst.name).tcp.listen(9000).set_accept_callback(
            lambda conn: conn.set_data_callback(lambda c: c.read_iov())
        )

        def sender():
            conn = yield fw.node(src.name).tcp.connect(dst, 9000)
            for _ in range(stream):
                yield conn.send(bytes(48 * 1024))
                yield fw.sim.timeout(0.05)

        fw.sim.process(sender())
    def guard():  # no pytest-timeout: an engine event budget bounds the case
        if fw.sim.stats().events_processed > 400_000:
            raise AssertionError("event budget exceeded")

    fw.sim.every(0.25, guard)
    fw.sim.run(until=3.0)
    out = _outcome(fw, recorder, [watch], interval)
    monkeypatch.undo()
    return out


#: fault instants off the 10 ms tick grid: an exact tie with a tick is the
#: constructed case below, not a sampled one
instant = st.integers(50, 2500).map(lambda ms: ms / 1000 + 0.0003)
fault = st.one_of(
    st.tuples(st.just("degrade"), instant, st.sampled_from([0.004, 0.3, 0.0])),
    st.tuples(st.just("fail"), instant, st.integers(20, 400).map(lambda ms: ms / 1000)),
    st.tuples(st.just("kill"), instant, st.integers(20, 400).map(lambda ms: ms / 1000)),
)


@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    seed=st.integers(0, 2**16),
    coalesce=st.sampled_from([1, 8]),
    faults=st.lists(fault, min_size=1, max_size=4),
    stream=st.sampled_from([0, 3]),
)
def test_seeded_churn_and_traffic_sleeping_equals_eager(monkeypatch, seed, coalesce, faults,
                                                         stream):
    eager = _two_clusters(seed, coalesce, faults, stream, True, monkeypatch)
    sleeping = _two_clusters(seed, coalesce, faults, stream, False, monkeypatch)
    assert sleeping[0] == eager[0]
    assert sleeping[1] == eager[1]
    assert sleeping[2] == eager[2]
    assert sleeping[3] == eager[3]


def test_the_churn_schedules_reach_loss_mark_down_and_mark_up(monkeypatch):
    """The strategy's ground is covered: lost probes, a mark-down and the
    mark-up after it, under traffic — the same on both probes."""
    faults = [("degrade", 0.3, 0.3), ("fail", 1.0, 0.2), ("kill", 2.0, 0.15)]
    eager = _two_clusters(5, 8, faults, 3, True, monkeypatch)
    sleeping = _two_clusters(5, 8, faults, 3, False, monkeypatch)
    assert sleeping == eager
    (_sent, lost), = sleeping[1].values()
    described = sleeping[3]
    assert lost > 20
    assert described["links_marked_down"] >= 2
    assert described["links_marked_up"] == described["links_marked_down"]
    assert described["pushes"] > 0
    assert any(values[0] == "frame" for _at, values in next(iter(sleeping[0].values())))


def _ties(monkeypatch, eager):
    """A frame and a degrade, each at the exact instant of a tick, both
    scheduled after the previous tick fired."""
    recorder = Recorder(monkeypatch)
    if eager:
        monkeypatch.setattr(feedback, "ActivePingProbe", EagerPingProbe)
    fw = PadicoFramework()
    fw.enable_telemetry()
    grid = grid_deployment(fw, rows=1, cols=2, hosts_per_cluster=2)
    wan = grid.wans[0]
    a, b = sorted(wan.nics, key=lambda h: h.name)
    interval = 0.01
    watch = fw.monitoring.watch(wan, interval=interval, seed=3, coalesce=8)
    ticks, at = [], 0.0
    for _ in range(200):
        at += interval
        ticks.append(at)
    wan.nic_of(b).set_receive_handler(lambda delivery: None, owner="test")

    def degrade(loss_rate):
        wan.loss_rate = loss_rate
        wan.changed("degrade")

    for k, action in ((37, lambda: wan.transmit(a, b, bytes(512))),
                      (90, lambda: degrade(0.3)),
                      (131, lambda: wan.transmit(a, b, bytes(512))),
                      (150, lambda: degrade(0.0))):
        fw.sim.call_at(ticks[k - 1] + interval / 2, fw.sim.call_at, ticks[k], action)
    fw.sim.run(until=2.5)
    out = _outcome(fw, recorder, [watch], interval)
    monkeypatch.undo()
    return out, ticks


def test_a_tick_comes_before_a_sample_and_a_change_of_its_instant(monkeypatch):
    (eager, ticks) = _ties(monkeypatch, eager=True)
    (sleeping, _) = _ties(monkeypatch, eager=False)
    assert sleeping == eager
    inputs = next(iter(sleeping[0].values()))
    at_ties = [(at, values[0]) for at, values in inputs if at in (ticks[37], ticks[131])]
    assert at_ties == [(ticks[37], "ping"), (ticks[37], "frame"),
                       (ticks[131], "ping"), (ticks[131], "frame")]
    # the tick at the degrade's instant still saw the lossless link
    lost = [at for at, values in inputs if values[4]]
    assert lost and ticks[90] < min(lost) and max(lost) <= ticks[150]


@given(
    batch=st.sampled_from([1, 2, 8]),
    history=st.lists(st.sampled_from(["ping", "same", "other", "lost", "tcp"]), max_size=30),
    n=st.integers(1, 200),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_folded_run_is_its_sequential_updates(batch, history, n):
    """``update_run(sample, n)`` leaves exactly the state ``n`` calls of
    ``update(sample)`` leave, from any state, and returns the last one's
    verdict."""
    sample = LinkSample(at=99.0, kind="ping", latency=0.0081, bandwidth=1.2e7, nbytes=64)
    kinds = {
        "ping": LinkSample(at=0.0, kind="ping", latency=0.008, bandwidth=1.25e7, nbytes=64),
        "same": sample,  # a run of it may be pending when the fold starts
        "other": LinkSample(at=0.0, kind="frame", latency=0.0091, bandwidth=1.1e7),
        "lost": LinkSample(at=0.0, kind="ping", lost=True),
        "tcp": LinkSample(at=0.0, kind="tcp", loss_fraction=0.25),
    }
    folded, sequential = LinkEstimator(batch=batch), LinkEstimator(batch=batch)
    for i, kind in enumerate(history):
        earlier = LinkSample(**dict(vars(kinds[kind]), at=i * 0.1))
        folded.update(earlier)
        sequential.update(earlier)
    verdict = folded.update_run(sample, n)
    for _ in range(n):
        last = sequential.update(sample)
    assert verdict == last

    def state(est):
        return (est.latency.value, est.latency.samples, est.bandwidth.value,
                est.bandwidth.samples, list(est.loss._values), est.loss.samples,
                est.consecutive_lost, est._run_sample, est._run_pending, est.last_sample_at)

    assert state(folded) == state(sequential)
