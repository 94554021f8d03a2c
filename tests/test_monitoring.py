"""Tests for the dynamic-topology subsystem: probes, estimators, the
TopologyMonitor feedback loop, churn injection, and the TopologyKB
runtime-mutation API."""

import random

import pytest

from tests.helpers import run

from repro.abstraction import AbstractionError, LinkClass, TopologyChange
from repro.abstraction.topology import LOSSY_THRESHOLD
from repro.core import PadicoFramework
from repro.monitoring import (
    ActivePingProbe,
    EwmaEstimator,
    FaultInjector,
    LinkEstimator,
    LinkSample,
    PassiveLinkProbe,
    SlidingWindowEstimator,
    poisson_thinning_times,
)
from repro.simnet.networks import Ethernet100, WanVthd


def wan_pair_with_backup():
    """edge--wan--remote plus a gateway path (edge--lan--gw--wan2--remote)."""
    fw = PadicoFramework()
    edge = fw.add_host("edge", site="s1")
    gw = fw.add_host("gw", site="s1")
    remote = fw.add_host("remote", site="s2")
    wan = fw.add_network(WanVthd(fw.sim, "wan-direct"))
    lan = fw.add_network(Ethernet100(fw.sim, "lan"))
    wan2 = fw.add_network(WanVthd(fw.sim, "wan-backup", seed=777))
    wan.connect(edge), wan.connect(remote)
    lan.connect(edge), lan.connect(gw)
    wan2.connect(gw), wan2.connect(remote)
    return fw, edge, gw, remote, wan, lan, wan2


# --------------------------------------------------------------------------
# Estimators
# --------------------------------------------------------------------------


def test_ewma_estimator_converges():
    est = EwmaEstimator(alpha=0.5)
    assert est.value is None
    for _ in range(20):
        est.update(10.0)
    assert est.value == pytest.approx(10.0)
    for _ in range(40):
        est.update(20.0)
    assert est.value == pytest.approx(20.0, rel=1e-3)
    assert est.samples == 60


def test_sliding_window_estimator_windows():
    est = SlidingWindowEstimator(window=4)
    for x in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
        est.update(x)
    assert est.mean() == pytest.approx((3 + 4 + 5 + 6) / 4)
    assert est.maximum() == 6.0


def test_link_estimator_tracks_loss_and_death_signal():
    est = LinkEstimator(window=10, min_samples=4)
    for i in range(10):
        est.update(LinkSample(at=i * 0.1, kind="ping", latency=0.008, bandwidth=1e7))
    measured = est.estimate()
    assert measured is not None
    assert measured.loss_rate == 0.0
    assert measured.latency == pytest.approx(0.008)
    for i in range(6):
        est.update(LinkSample(at=1.0 + i * 0.1, kind="ping", lost=True))
    assert est.consecutive_lost == 6
    assert est.estimate().loss_rate > 0.3


# --------------------------------------------------------------------------
# Probes
# --------------------------------------------------------------------------


def test_passive_probe_observes_real_traffic():
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    fw.boot()
    samples = []
    probe = PassiveLinkProbe(wan, samples.append)
    listener = fw.node("remote").vlink_listen(7000)

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 7000)
        server = yield accept_op
        client.write(b"x" * 100_000)
        data = yield server.read(100_000)
        return data

    assert len(run(fw, scenario())) == 100_000
    assert probe.frames > 0 and len(samples) > 0
    ok = [s for s in samples if not s.lost and s.latency is not None]
    assert ok, "passive probe must extract latency samples from real frames"
    assert ok[0].latency == pytest.approx(wan.latency)
    bw = [s.bandwidth for s in ok if s.bandwidth is not None]
    assert bw and bw[0] == pytest.approx(wan.bandwidth, rel=0.05)
    probe.detach()
    assert wan.probe is None


def test_a_link_has_one_passive_probe_and_detach_frees_its_slot():
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    first = PassiveLinkProbe(wan, lambda sample: None)
    assert wan.probe is first
    with pytest.raises(ValueError, match="already has a passive probe"):
        PassiveLinkProbe(wan, lambda sample: None)
    assert wan.probe is first
    first.detach()
    second = PassiveLinkProbe(wan, lambda sample: None)
    assert wan.probe is second
    first.detach()  # a detached probe frees nothing it no longer holds
    assert wan.probe is second


def test_passive_probe_sees_tcp_window_model_losses():
    """The TCP model draws losses internally (no frames drop); the surfaced
    per-burst observations must give a *passive-only* watch an honest loss
    estimate on a TCP-carried WAN hop."""
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    wan.loss_rate = 0.02  # well above VTHD residual: estimate converges fast
    wan.changed("degrade")
    fw.boot()
    watch = fw.monitoring.watch(wan, active=False)  # passive only: no pings
    listener = fw.node("remote").vlink_listen(7050)
    total = 600_000

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(
            fw.node("remote"), 7050, method="sysio"
        )
        server = yield accept_op
        client.write(b"z" * total)
        data = yield server.read(total)
        return data

    assert len(run(fw, scenario(), max_time=300)) == total
    estimate = watch.estimator.estimate()
    assert estimate is not None, "TCP bursts alone must feed the estimator"
    # honest loss: within a factor of ~3 of the model's configured rate on a
    # windowed estimate (sliding window of per-burst fractions), and
    # decidedly non-zero — the pre-fix passive estimate was exactly 0.0
    assert estimate.loss_rate > 0.004
    assert estimate.loss_rate < 3 * wan.loss_rate
    # honest enough to drive monitoring-derived method parameters
    fw.topology.apply_measurement(wan, loss_rate=estimate.loss_rate)
    params = fw.selector.derive_method_params("vrp", wan, reliable=False)
    assert params.get("tolerance", 0.0) > 0.0


def test_passive_only_watch_works_on_lossless_tcp_link():
    """Zero-loss bursts are reported too: a passive-only watch on a
    loss-free TCP-carried link must still reach an estimate (TCP data
    frames alone no longer count as loss samples), and the loss estimate
    must decay back down after a degraded link recovers."""
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    wan.loss_rate = 0.0
    wan.changed("degrade")
    fw.boot()
    # a small sliding window keeps the decay phase of the test short (the
    # lossless 400 KB transfer contributes only a handful of bursts)
    watch = fw.monitoring.watch(wan, active=False, window=16)
    total = 400_000

    def transfer(port):
        listener = fw.node("remote").vlink_listen(port)

        def scenario():
            accept_op = listener.accept()
            client = yield fw.node("edge").vlink_connect(
                fw.node("remote"), port, method="sysio"
            )
            server = yield accept_op
            client.write(b"z" * total)
            data = yield server.read(total)
            return data

        assert len(run(fw, scenario(), max_time=300)) == total

    transfer(7060)
    estimate = watch.estimator.estimate()
    assert estimate is not None, "lossless TCP traffic must still gate the estimator open"
    assert estimate.loss_rate == 0.0
    assert estimate.bandwidth is not None
    # degrade, transfer (loss accumulates), recover, transfer again: the
    # windowed estimate must fall back toward zero on the zero-loss bursts
    wan.loss_rate = 0.05
    wan.changed("degrade")
    transfer(7061)
    degraded = watch.estimator.estimate().loss_rate
    assert degraded > 0.004
    wan.loss_rate = 0.0
    wan.changed("recover")
    transfer(7062)
    transfer(7063)  # the sliding window displaces degraded-era samples
    recovered = watch.estimator.estimate().loss_rate
    assert recovered < degraded / 2


def test_tcp_burst_samples_are_liveness_neutral():
    """Burst loss draws happen sender-side before the wire is consulted, so
    they must never touch the failure-detector signal — a blackholed link
    keeps producing 0.0-fraction bursts while every ping is lost."""
    est = LinkEstimator(window=8, min_samples=1)
    est.update(LinkSample(at=0.0, kind="ping", lost=True))
    est.update(LinkSample(at=0.1, kind="ping", lost=True))
    assert est.consecutive_lost == 2
    est.update(LinkSample(at=0.2, kind="tcp", loss_fraction=1.0))
    est.update(LinkSample(at=0.3, kind="tcp", loss_fraction=0.0))
    assert est.consecutive_lost == 2  # neither refutes nor argues death
    # a frame sample only exists when the wire accepted the frame: it refutes
    est.update(LinkSample(at=0.4, kind="frame", latency=0.001, count_loss=False))
    assert est.consecutive_lost == 0
    # and the fractions feed the windowed loss rate (the frame, being
    # count_loss=False, does not)
    assert est.estimate().loss_rate == pytest.approx((1.0 + 1.0 + 1.0 + 0.0) / 4)


def test_dead_link_detection_survives_tcp_traffic():
    """Failure detection end-to-end: TCP keeps pumping into a blackholed
    wire (its sender-side bursts draw ~zero loss), but the run of lost
    active pings still marks the link down."""
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    fw.boot()
    fw.monitoring.watch(wan, interval=0.02, seed=11)
    listener = fw.node("remote").vlink_listen(7070)

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(
            fw.node("remote"), 7070, method="sysio"
        )
        yield accept_op
        client.write(b"a" * 64_000)
        yield fw.sim.timeout(0.05)
        wan.up = False  # silent death: only the probes can tell
        wan.changed("link-down")  # ... and a sleeping probe must hear of it
        # keep the TCP sender pumping into the blackhole throughout
        for _ in range(10):
            client.write(b"b" * 64_000)
            yield fw.sim.timeout(0.1)
        return fw.topology.is_link_up(wan)

    assert run(fw, scenario(), max_time=120) is False
    fw.monitoring.stop()


def test_active_probe_is_seeded_and_sees_degradation():
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()

    def collect(seed):
        est = LinkEstimator(window=64, min_samples=1)
        probe = ActivePingProbe(wan, est.update, interval=0.01, seed=seed)
        injector = FaultInjector(fw.sim, fw.topology, seed=1, announce=False)
        injector.degrade_link_at(0.5, wan, loss_rate=0.30)
        fw.sim.run(until=1.5)
        probe.cancel()
        return probe.sent, probe.lost, est.estimate().loss_rate

    sent, lost, loss = collect(seed=7)
    assert sent >= 100
    assert lost > 0, "degraded link must lose active probes"
    assert loss > LOSSY_THRESHOLD


def test_wire_probe_is_alive_while_any_two_members_are_up():
    """The default (wire) probe asks "are two attached hosts up?" on every
    tick: one dead member is not a dead network, a lone survivor is, and
    the probe RNG is drawn from on live ticks of a lossy link only."""
    fw = PadicoFramework()
    hosts = [fw.add_host(f"h{i}") for i in range(4)]
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    for host in hosts:
        wan.connect(host)
    samples = []
    probe = ActivePingProbe(wan, samples.append, interval=0.01, seed=3)
    twin = random.Random(3)
    at = [0.0]

    def tick(expect_alive):
        before = len(samples)
        at[0] += 0.01
        fw.sim.run(until=at[0])
        if expect_alive:
            lost = twin.random() < wan.loss_rate or twin.random() < wan.loss_rate
            assert samples[-1].lost == lost
        else:
            assert samples[-1].lost
        assert len(samples) == before + 1

    tick(True)
    hosts[0].up = hosts[2].up = False
    wan.changed("host-down")
    tick(True)  # h1 and h3 still talk
    hosts[3].up = False
    wan.changed("host-down")
    tick(False)  # a lone survivor
    hosts[0].up = True
    wan.changed("host-up")
    tick(True)
    wan.up = False
    wan.changed("link-down")
    tick(False)
    # same verdicts, same draws: the probe's stream is where the twin's is
    # (its generator runs ahead: the next uniform is the buffer's head)
    assert probe._draws[0] == twin.random()
    assert (probe.sent, probe.lost) == (5, sum(s.lost for s in samples))
    probe.cancel()


def test_poisson_thinning_is_deterministic_and_rate_bounded():
    rate_fn = lambda t: 2.0 + 2.0 * (t > 5.0)  # noqa: E731
    a = poisson_thinning_times(random.Random(42), rate_fn, horizon=10.0, rate_max=4.0)
    b = poisson_thinning_times(random.Random(42), rate_fn, horizon=10.0, rate_max=4.0)
    assert a == b and len(a) > 5
    assert all(0.0 <= t < 10.0 for t in a)
    early = sum(1 for t in a if t <= 5.0)
    late = len(a) - early
    assert late > early  # the second half runs at twice the rate
    with pytest.raises(ValueError):
        poisson_thinning_times(random.Random(0), lambda t: 9.0, 10.0, rate_max=4.0)


# --------------------------------------------------------------------------
# TopologyMonitor feedback loop
# --------------------------------------------------------------------------


def test_monitor_reclassifies_lossy_wan_and_invalidates_selection():
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    fw.boot()
    from repro.methods import register_wan_method_drivers

    register_wan_method_drivers(fw.node("edge"))
    register_wan_method_drivers(fw.node("remote"))
    fw.monitoring.watch(wan, interval=0.01, seed=3)
    injector = fw.fault_injector(seed=5, announce=False)  # detection via probes
    injector.degrade_link_at(0.2, wan, loss_rate=0.20)

    assert fw.topology.classify_network(wan) is LinkClass.WAN
    before = fw.selector.choose_vlink(edge, remote, ["vrp", "sysio"])
    assert before.method == "sysio"

    fw.sim.run(until=2.0)
    assert fw.monitoring.pushes >= 1
    assert fw.monitoring.reclassifications >= 1
    assert fw.topology.classify_network(wan) is LinkClass.LOSSY_WAN
    after = fw.selector.choose_vlink(edge, remote, ["vrp", "sysio"])
    assert after.method == "vrp"
    assert fw.topology.link_profile(edge, remote).measured


def test_monitor_marks_dead_link_down_and_recovers():
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    fw.monitoring.watch(wan, interval=0.01, seed=3, min_samples=2)
    injector = fw.fault_injector(seed=5, announce=False)
    injector.fail_link_at(0.3, wan)
    injector.recover_link_at(1.0, wan)

    fw.sim.run(until=0.9)
    assert not fw.topology.is_link_up(wan)
    assert fw.topology.link_class(edge, remote) is LinkClass.NONE  # only routed now
    fw.sim.run(until=2.0)
    assert fw.topology.is_link_up(wan)
    assert fw.monitoring.links_marked_down == 1
    assert fw.monitoring.links_marked_up == 1


# --------------------------------------------------------------------------
# Churn: oracle-mode faults and gateway death
# --------------------------------------------------------------------------


def test_fault_injector_oracle_mode_flips_routes():
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    assert len(fw.routing.host_path(edge, remote)) == 1
    injector = fw.fault_injector(seed=9)
    injector.fail_link_at(0.1, wan)
    fw.sim.run(until=0.2)
    hops = fw.routing.host_path(edge, remote)
    assert [h.dst.name for h in hops] == ["gw", "remote"]
    injector.recover_link_at(0.3, wan)
    fw.sim.run(until=0.4)
    assert len(fw.routing.host_path(edge, remote)) == 1
    kinds = [e.kind for e in injector.log]
    assert kinds == ["fail-link", "recover-link"]


def test_flap_link_schedule_is_deterministic():
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    a = FaultInjector(fw.sim, fw.topology, seed=11).flap_link(
        wan, horizon=30.0, down_time=0.5, rate=0.4
    )
    b = FaultInjector(fw.sim, fw.topology, seed=11).flap_link(
        wan, horizon=30.0, down_time=0.5, rate=0.4
    )
    assert a == b and len(a) >= 3
    for (down, up), (next_down, _) in zip(a, a[1:]):
        assert up <= next_down  # outage windows never overlap
    # the framework accessor is cached: degrade state saved by one call is
    # visible to a later recover through the same accessor
    assert fw.fault_injector(seed=5) is fw.fault_injector(seed=5)
    assert fw.fault_injector(seed=5) is not fw.fault_injector(seed=6)


def test_gateway_death_tears_down_relay_sessions():
    """Satellite: killing a gateway host reclaims its spliced sessions.
    Crash semantics: the close notifications towards the endpoints blackhole
    (the host is down), so recovery there is the adaptive layer's job."""
    fw = PadicoFramework()
    a = fw.add_host("edge")
    g = fw.add_host("gw")
    b = fw.add_host("remote")
    lan = fw.add_network(Ethernet100(fw.sim, "lan"))
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    lan.connect(a), lan.connect(g)
    wan.connect(g), wan.connect(b)
    fw.boot()
    listener = fw.node("remote").vlink_listen(7100)
    relay = fw.node("gw").gateway_relay
    injector = fw.fault_injector(seed=2)

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 7100)
        server = yield accept_op
        client.write(b"alive")
        data = yield server.read(5)
        assert len(relay.sessions()) == 1
        injector.kill_host_at(fw.sim.now + 0.01, g)
        yield fw.sim.timeout(0.1)  # crash semantics: no FIN escapes the host
        return data

    assert run(fw, scenario(), max_time=120) == b"alive"
    assert relay.shut_down
    assert relay.sessions() == []
    assert relay.reclaimed >= 1
    assert not fw.topology.is_host_up(g)


def test_revived_gateway_relays_again():
    fw = PadicoFramework()
    a = fw.add_host("edge")
    g = fw.add_host("gw")
    b = fw.add_host("remote")
    lan = fw.add_network(Ethernet100(fw.sim, "lan"))
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    lan.connect(a), lan.connect(g)
    wan.connect(g), wan.connect(b)
    fw.boot()
    listener = fw.node("remote").vlink_listen(7200)
    injector = fw.fault_injector(seed=4)
    injector.kill_host_at(0.1, g)
    injector.revive_host_at(0.5, g)

    def scenario():
        yield fw.sim.timeout(1.0)  # past the kill + revival
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 7200)
        server = yield accept_op
        client.write(b"post-revival")
        return (yield server.read(12))

    assert run(fw, scenario(), max_time=120) == b"post-revival"
    assert not fw.node("gw").gateway_relay.shut_down
    assert fw.topology.is_host_up(g)


# --------------------------------------------------------------------------
# TopologyKB mutation API (satellite: cache + name-index coverage)
# --------------------------------------------------------------------------


def test_measurement_bumps_generation_and_invalidates_profiles_and_routes():
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    g0 = fw.topology.generation
    profile = fw.topology.link_profile(edge, remote)
    path = fw.routing.host_path(edge, remote)
    assert fw.topology.link_profile(edge, remote) is profile  # cached
    assert fw.routing.host_path(edge, remote) is path

    fw.topology.apply_measurement(wan, loss_rate=0.05)
    assert fw.topology.generation > g0
    fresh_profile = fw.topology.link_profile(edge, remote)
    assert fresh_profile is not profile
    assert fresh_profile.link_class is LinkClass.LOSSY_WAN
    assert fresh_profile.measured
    fresh_path = fw.routing.host_path(edge, remote)
    assert fresh_path is not path

    fw.topology.clear_measurement(wan)
    assert fw.topology.link_profile(edge, remote).link_class is LinkClass.WAN


def test_measured_metrics_steer_route_weights():
    """A measured bandwidth collapse makes Dijkstra prefer the healthy path."""
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    assert len(fw.routing.host_path(edge, remote)) == 1
    fw.topology.apply_measurement(wan, bandwidth=1_000.0, loss_rate=0.08)
    hops = fw.routing.host_path(edge, remote)
    assert [h.dst.name for h in hops] == ["gw", "remote"]


def test_host_by_name_stays_consistent_after_removal():
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    assert fw.topology.host_by_name("gw") is gw
    fw.topology.remove_host(gw)
    with pytest.raises(LookupError):
        fw.topology.host_by_name("gw")
    assert gw not in fw.topology.hosts()
    # routing no longer offers the removed host as a gateway
    fw.topology.mark_link_down(wan)
    with pytest.raises(AbstractionError):
        fw.routing.host_path(edge, remote)
    # remaining hosts still resolve
    assert fw.topology.host_by_name("edge") is edge


def test_subscribers_receive_typed_changes():
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    seen = []
    fw.topology.subscribe(seen.append)
    fw.topology.apply_measurement(wan, loss_rate=0.02)
    fw.topology.mark_link_down(wan)
    fw.topology.mark_link_up(wan)
    fw.topology.mark_host_down(gw)
    kinds = [c.kind for c in seen]
    assert kinds == ["measurement", "link-state", "link-state", "host-state"]
    assert all(isinstance(c, TopologyChange) for c in seen)
    assert seen[0].network is wan and seen[3].host is gw
    generations = [c.generation for c in seen]
    assert generations == sorted(generations) and len(set(generations)) == 4
    fw.topology.unsubscribe(seen.append)
