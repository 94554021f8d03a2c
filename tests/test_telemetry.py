"""Flight-recorder tests: zero-overhead gating, replay determinism, and
KPI invariance across fidelities and partitionings.

The scenario under test is a 2x2 grid deployment with two in-cluster bulk
transfers out of one NIC (planned jointly under ``fidelity="hybrid"``), a
cross-cluster relayed stream, WAN monitoring with coalesced estimators, and seeded
churn — every instrumented subsystem emits at least once.
"""

from __future__ import annotations

import json

import pytest

from repro.core import PadicoFramework
from repro.monitoring import FaultInjector
from repro.monitoring.estimators import LinkEstimator, LinkSample
from repro.simnet.networks import Ethernet100, grid_deployment
from repro.telemetry import (
    MetricSeries,
    canonical_kpi_json,
    compute_kpis,
    invariant_view,
    read_trace,
    replay_kpis,
    verify_replay,
)
from repro.telemetry.hub import event_line
from repro.telemetry.series import percentile

HORIZON = 4.0


def build_and_run(
    fidelity="packet",
    partitions=None,
    telemetry=True,
    jsonl_path=None,
    disable_before_run=False,
    enable="grid",
):
    """The shared scenario; returns (framework, hub-or-None).  ``enable``
    places ``enable_telemetry()``: ``"first"`` on the empty framework,
    ``"grid"`` once the networks exist, ``"last"`` after boot, the monitor's
    watches and the fault injector."""
    fw = PadicoFramework(fidelity=fidelity, partitions=partitions)
    hub = None
    if telemetry and enable == "first":
        hub = fw.enable_telemetry(jsonl_path=jsonl_path)
    grid = grid_deployment(fw, rows=2, cols=2, hosts_per_cluster=3)
    if telemetry and enable == "grid":
        hub = fw.enable_telemetry(jsonl_path=jsonl_path)
    fw.boot()
    for wan in grid.wans:
        fw.monitoring.watch(wan, coalesce=4)
    injector = fw.fault_injector(seed=77)
    if telemetry and enable == "last":
        hub = fw.enable_telemetry(jsonl_path=jsonl_path)

    def serve(session):
        session.set_data_handler(lambda link: link.read_available())

    # in-cluster bulk sends, two flows through one sending NIC: they
    # collapse into one joint fluid plan under "hybrid"
    a, b = fw.node("g0x0n01"), fw.node("g0x0n02")
    c, d = fw.node("g0x0n00"), fw.node("g1x1n00")
    b.vlink_listen(7000).set_accept_callback(serve)
    a.vlink_connect(b, 7000).add_callback(lambda ev: ev.value.write(b"x" * 2_000_000))
    c.vlink_listen(7001).set_accept_callback(serve)
    a.vlink_connect(c, 7001).add_callback(lambda ev: ev.value.write(b"z" * 1_500_000))
    # cross-cluster stream, relayed over the WAN gateways
    d.vlink_listen(7100).set_accept_callback(serve)
    c.vlink_connect(d, 7100).add_callback(lambda ev: ev.value.write(b"y" * 300_000))

    injector.degrade_link_at(1.0, grid.wans[0], loss_rate=0.02)

    if disable_before_run:
        fw.disable_telemetry()
    fw.run(until=HORIZON)
    if fw.telemetry is not None:
        fw.telemetry.flush()
    return fw, hub


def kpi_fingerprint(hub):
    return json.dumps(
        invariant_view(compute_kpis(hub.events, horizon=HORIZON)), sort_keys=True
    )


# ---------------------------------------------------------------------------
# disabled == pre-telemetry behaviour
# ---------------------------------------------------------------------------


def test_disabled_run_matches_plain_run():
    """With telemetry never enabled — or enabled then disabled before the
    run — the simulation trajectory is identical to a plain run."""
    plain, _ = build_and_run(telemetry=False)
    disabled, hub = build_and_run(disable_before_run=True)
    assert hub.closed
    # only deployment-setup events (connect SYNs at t=0) were captured;
    # nothing emitted during the run after the disable
    assert all(ev["t"] < 1e-3 for ev in hub.events)
    for fw in (plain, disabled):
        assert fw.telemetry is None
        assert fw.sim.telemetry is None
    s0, s1 = plain.sim.stats(), disabled.sim.stats()
    assert s0.events_processed == s1.events_processed
    assert s0.timers_scheduled == s1.timers_scheduled
    assert plain.sim.now == disabled.sim.now


def test_enabled_run_does_not_perturb_virtual_time():
    """Recording is passive: the enabled run executes the same virtual
    trajectory (event counts, end time) as the plain run."""
    plain, _ = build_and_run(telemetry=False)
    recorded, hub = build_and_run()
    assert len(hub.events) > 0
    s0, s1 = plain.sim.stats(), recorded.sim.stats()
    assert s0.events_processed == s1.events_processed
    assert s0.timers_scheduled == s1.timers_scheduled
    assert plain.sim.now == recorded.sim.now


def test_disable_telemetry_detaches_everything():
    fw, hub = build_and_run()
    n_observed = len(hub.events)
    fw.disable_telemetry()
    assert hub.closed
    assert fw.sim.telemetry is None
    # a further run adds no events to the closed hub
    fw.run(until=HORIZON + 0.5)
    assert len(hub.events) == n_observed


def test_enable_order_cannot_matter():
    """Emitters read ``sim.telemetry``, so a hub enabled before any network,
    node or injector exists records what one enabled after all of them does."""
    _, early = build_and_run(enable="first")
    _, late = build_and_run(enable="last")
    assert len(early.events) == len(late.events) > 0
    assert canonical_kpi_json(compute_kpis(early.events, horizon=HORIZON)) == (
        canonical_kpi_json(compute_kpis(late.events, horizon=HORIZON))
    )
    # a component the framework never saw records too
    fw, hub = build_and_run(enable="last")
    stranger = FaultInjector(fw.sim, fw.topology, seed=5)
    stranger.fail_link_at(HORIZON + 0.1, fw.networks()[0])
    fw.run(until=HORIZON + 0.2)
    hub.flush()
    assert [ev["t"] for ev in hub.events if ev["k"] == "churn.fault"][-1] == HORIZON + 0.1


def test_a_network_built_by_hand_records_like_any_other():
    """A network never passed to ``fw.add_network`` records its frames: it
    emits ``link.tx`` to ``sim.telemetry`` itself, like every emitter."""
    fw = PadicoFramework()
    hub = fw.enable_telemetry()
    a, b = fw.add_host("a", site="s1"), fw.add_host("b", site="s1")
    side = Ethernet100(fw.sim, "side")
    side.connect(a)
    side.connect(b)
    fw.boot()
    listener = fw.node("b").tcp.listen(9000)

    def scenario():
        accepting = listener.accept()
        client = yield fw.node("a").tcp.connect(b, 9000, network=side)
        server = yield accepting
        client.send(b"x" * 100_000)
        data = yield server.recv_exact(100_000)
        return len(data)

    assert fw.sim.run(until=fw.sim.process(scenario()), max_time=10) == 100_000
    assert side.name not in {network.name for network in fw.networks()}
    rounds = [ev for ev in hub.events if ev["k"] == "flow.round"]
    frames = [ev for ev in hub.events if ev["k"] == "link.tx" and ev["net"] == "side"]
    assert (len(rounds), len(frames)) == (6, 8)


# ---------------------------------------------------------------------------
# the event stream covers every instrumented subsystem
# ---------------------------------------------------------------------------


def test_event_stream_covers_subsystems():
    _fw, hub = build_and_run(fidelity="hybrid")
    kinds = {ev["k"] for ev in hub.events}
    for expected in (
        "link.tx",
        "flow.open",
        "flow.send",
        "flow.round",
        "flow.complete",
        "churn.fault",
        "monitor.push",
        "fluid.activate",
        "engine.window",
    ):
        assert expected in kinds, f"missing {expected}; saw {sorted(kinds)}"
    # every event carries the envelope: time, partition, sequence, kind
    for ev in hub.events:
        assert set(("t", "p", "s", "k")) <= set(ev)


# ---------------------------------------------------------------------------
# replay determinism
# ---------------------------------------------------------------------------


def test_jsonl_replay_is_byte_identical(tmp_path):
    trace = str(tmp_path / "trace.jsonl")
    _fw, hub = build_and_run(jsonl_path=trace)
    # the trace holds exactly the live events, in emission order
    assert read_trace(trace) == hub.events
    # and the KPI documents computed live vs from the file are byte-equal
    verify_replay(hub.events, trace, horizon=HORIZON)


def test_rerecorded_trace_is_byte_identical(tmp_path):
    """Two recordings of the same seeded scenario produce identical traces
    (determinism of the simulation and of the recorder)."""
    t1, t2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    build_and_run(jsonl_path=t1)
    build_and_run(jsonl_path=t2)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


def test_replay_kpis_reads_trace(tmp_path):
    trace = str(tmp_path / "trace.jsonl")
    _fw, hub = build_and_run(jsonl_path=trace)
    kpis = replay_kpis(trace, horizon=HORIZON)
    assert canonical_kpi_json(kpis) == canonical_kpi_json(
        compute_kpis(hub.events, horizon=HORIZON)
    )


def test_event_line_round_trips_floats():
    ev = {"t": 0.1 + 0.2, "p": 0, "s": 1, "k": "x", "v": 1.3333333333333333e-9}
    assert json.loads(event_line(ev)) == ev


# ---------------------------------------------------------------------------
# KPI invariance: fidelity, partitions
# ---------------------------------------------------------------------------


def test_kpis_invariant_across_fidelity():
    """Per-flow completion instants/bytes and per-link frame/byte/busy
    totals are identical between the packet and hybrid runs — the fluid
    fast path is invisible in the invariant KPI view."""
    _fw, packet = build_and_run(fidelity="packet")
    fw_h, hybrid = build_and_run(fidelity="hybrid")
    # the hybrid leg genuinely used the fast path, both flows of the shared
    # NIC riding epochs
    assert any(ev["k"] == "fluid.activate" for ev in hybrid.events)
    assert len({ev["flow"] for ev in hybrid.events if ev["k"] == "fluid.epoch"}) >= 2
    assert kpi_fingerprint(packet) == kpi_fingerprint(hybrid)


@pytest.mark.parametrize("fidelity", ["packet", "hybrid"])
def test_kpis_invariant_across_partitions(fidelity):
    _fw, single = build_and_run(fidelity=fidelity)
    fw_m, multi = build_and_run(fidelity=fidelity, partitions=4)
    assert fw_m.sim.partition_count == 4
    assert {ev["p"] for ev in multi.events} != {0}  # shards really emitted
    assert kpi_fingerprint(single) == kpi_fingerprint(multi)


def test_partitioned_stats_merge_matches_single_loop_shape():
    """Satellite: `PartitionedSimulator.stats()` sums exact per-shard
    counters into the same SimStats shape the single loop reports."""
    single, _ = build_and_run(telemetry=False)
    rr, _ = build_and_run(telemetry=False, partitions=4)
    s_rr = rr.sim.stats()
    shards = rr.sim.partition_stats()
    assert len(shards) == 4
    for field in ("events_processed", "timers_scheduled", "cancellations"):
        assert getattr(s_rr, field) == sum(getattr(s, field) for s in shards)
    # peak_pending merges as a sum of per-shard peaks: an upper bound
    assert s_rr.peak_pending == sum(s.peak_pending for s in shards)
    assert s_rr.events_processed > 0
    assert single.sim.stats().events_processed > 0


# ---------------------------------------------------------------------------
# KPI content
# ---------------------------------------------------------------------------


def test_kpi_report_contents():
    _fw, hub = build_and_run(fidelity="hybrid")
    kpis = compute_kpis(hub.events, horizon=HORIZON)
    assert kpis["horizon"] == HORIZON
    # the bulk flow delivered its 2 MB; completions are sorted instants
    bulk = next(
        rec for rec in kpis["flows"].values() if rec["bytes"] >= 2_000_000
    )
    assert bulk["completions"] == sorted(bulk["completions"])
    assert bulk["latency"] > 0.0
    assert bulk["goodput"] > 0.0
    # links saw traffic and report busy-time utilization within [0, 1]
    assert kpis["links"]
    for rec in kpis["links"].values():
        assert 0.0 <= rec["utilization"] <= 1.0
        assert rec["busy"] <= HORIZON
        assert rec["curve"]  # utilization curve buckets exist
    # churn was recorded (degrade-link is not a down/up transition, so no
    # availability loss — but the fault timeline is there)
    assert kpis["availability"]["wan-g0x0e"]["faults"] == 1
    assert kpis["monitor"]["pushes"] > 0
    assert kpis["fluid"]["activations"] > 0
    assert kpis["engine"]["0"]["events"] > 0


def test_availability_from_fail_recover(tmp_path):
    fw = PadicoFramework()
    grid = grid_deployment(fw, rows=1, cols=2, hosts_per_cluster=2)
    hub = fw.enable_telemetry()
    fw.boot()
    injector = fw.fault_injector(seed=5)
    wan = grid.wans[0]
    injector.fail_link_at(0.5, wan)
    injector.recover_link_at(0.9, wan)
    injector.fail_link_at(1.5, wan)  # still down at the horizon
    fw.run(until=2.0)
    hub.flush()
    kpis = compute_kpis(hub.events, horizon=2.0)
    rec = kpis["availability"][wan.name]
    assert rec["faults"] == 3
    assert rec["down_s"] == pytest.approx(0.4 + 0.5)
    assert rec["availability"] == pytest.approx(1.0 - 0.9 / 2.0)


# ---------------------------------------------------------------------------
# MetricSeries / percentile units
# ---------------------------------------------------------------------------


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 0.5) == 2.0
    assert percentile(values, 0.99) == 4.0
    assert percentile(values, 1.0) == 4.0


def test_metric_series_windows_and_dumps(tmp_path):
    series = MetricSeries("qd", window=1.0)
    for t, v in [(0.1, 2.0), (0.9, 4.0), (1.5, 10.0)]:
        series.add(t, v)
    buckets = series.summarize()
    assert [b["t0"] for b in buckets] == [0.0, 1.0]
    assert buckets[0] == {
        "t0": 0.0, "count": 2, "sum": 6.0, "mean": 3.0, "p50": 2.0, "p99": 4.0,
    }
    # canonical JSON and CSV round-trip the same numbers
    assert json.loads(series.to_json())["buckets"][1]["sum"] == 10.0
    csv_path = tmp_path / "series.csv"
    series.to_csv(str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "t0,count,sum,mean,p50,p99"
    assert len(lines) == 3


def test_metric_series_single_bucket():
    series = MetricSeries("all")
    series.add(0.0, 1.0)
    series.add(100.0, 3.0)
    (bucket,) = series.summarize()
    assert bucket["count"] == 2 and bucket["mean"] == 2.0


# ---------------------------------------------------------------------------
# estimator coalescing (satellite: batched estimator updates)
# ---------------------------------------------------------------------------


def _ping(at, latency=0.010, bandwidth=1e6):
    return LinkSample(at=at, kind="ping", latency=latency, bandwidth=bandwidth, nbytes=64)


def test_coalesced_estimator_matches_sequential_counts():
    plain = LinkEstimator(alpha=0.25, window=8, min_samples=1)
    batched = LinkEstimator(alpha=0.25, window=8, min_samples=1, batch=4)
    for i in range(10):
        plain.update(_ping(0.05 * i))
        batched.update(_ping(0.05 * i))
    e0, e1 = plain.estimate(), batched.estimate()
    assert e1.samples == e0.samples
    assert e1.loss_rate == e0.loss_rate  # window contents are bit-identical
    assert e1.latency == pytest.approx(e0.latency, rel=1e-12)
    assert e1.bandwidth == pytest.approx(e0.bandwidth, rel=1e-12)
    assert e1.updated_at == e0.updated_at


def test_coalesced_estimator_flushes_on_read():
    est = LinkEstimator(min_samples=1, batch=8)
    assert est.update(_ping(0.0)) is True  # run head applies immediately
    assert est.update(_ping(0.1)) is False  # buffered
    assert est.update(_ping(0.2)) is False
    # reading flushes: all three samples are visible
    assert est.samples == 3
    assert est.estimate().updated_at == 0.2


def test_coalesced_estimator_applies_changed_sample_immediately():
    est = LinkEstimator(min_samples=1, batch=8)
    est.update(_ping(0.0))
    assert est.update(_ping(0.1)) is False
    # a differing sample is a run boundary: flush + immediate apply
    assert est.update(_ping(0.2, latency=0.050)) is True
    assert est.samples == 3


def test_coalesced_estimator_never_defers_loss():
    est = LinkEstimator(min_samples=1, batch=8)
    est.update(_ping(0.0))
    est.update(_ping(0.1))
    lost = LinkSample(at=0.2, kind="ping", lost=True)
    assert est.update(lost) is True  # loss applies (and flushes) immediately
    assert est.consecutive_lost == 1
    assert est.samples == 3


def test_watch_coalesce_skips_evaluations_but_converges(wan_pair):
    fw, _group = wan_pair
    wan = next(n for n in fw.networks() if n.latency >= 0.001)
    watch = fw.monitoring.watch(wan, interval=0.01, coalesce=8)
    fw.run(until=1.0)
    est = watch.estimator.estimate()
    assert est is not None
    assert est.samples == watch.estimator.samples
    assert est.latency == pytest.approx(
        wan.latency + wan.serialization_time(64), rel=0.05
    )
