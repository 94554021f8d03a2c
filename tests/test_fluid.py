"""Fidelity-boundary tests for the fluid fast path (`repro.simnet.fluid`).

Every scenario here runs twice — once at packet fidelity, once hybrid —
and asserts the hybrid run is observationally equivalent: delivered byte
counts exactly equal, completion times float-identical, and passive-probe
loss estimates unchanged (the sliding-window batch update is bit-exact;
EWMA latency/bandwidth agree to float noise).  On top of the equivalence
checks, each test pins down *which* fluid transition it exercised via the
controller's introspection counters.
"""

import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.abstraction.topology import TopologyKB
from repro.core import FrameworkError, PadicoFramework
from repro.monitoring.churn import FaultInjector, poisson_thinning_times
from repro.monitoring.estimators import (
    EwmaEstimator,
    LinkEstimator,
    SlidingWindowEstimator,
)
from repro.monitoring.probes import PassiveLinkProbe
from repro.simnet import fluid
from repro.simnet.engine import Simulator
from repro.simnet.fluid import (
    FluidPolicy,
    LinkRateLedger,
    ledger_for,
    steady_state_rate,
)
from repro.simnet.host import Host
from repro.simnet.networks import Ethernet100, WanVthd
from repro.simnet.tcp import TcpError, TcpModel, TcpStack

PORT = 4242
MIB = 1024 * 1024


def flow(*sizes, start=0.0, connect="early", awaited=False, gap=0.0, close_at=None,
         hangup_at=None, fill=ord("a"), src="a"):
    """One sender's script for :func:`run_scenario`.

    ``sizes`` are the ``send`` calls in order (0 = an empty send), awaited
    one by one or queued ``gap`` seconds apart; send *j* carries the byte
    ``fill + j`` so any reordering of the stream shows.  ``connect`` is
    ``"early"`` (connect at once, first send ``start`` seconds after the
    handshake) or ``"late"`` (connect ``start`` seconds in, so the SYN
    itself contends for the NIC).  ``close_at`` closes the connection that
    long after the last send was queued; ``hangup_at`` has the *receiving*
    endpoint close that long after it accepted.  ``src`` names the sending
    host: flows with the same one share a NIC.
    """
    return dict(sizes=sizes, start=start, connect=connect, awaited=awaited, gap=gap,
                close_at=close_at, hangup_at=hangup_at, fill=fill, src=src)


class _TracingSimulator(Simulator):
    """Logs every scheduled pump / delivery timer as ``(when, seq, name)``."""

    TRACED = {"_pump", "_epoch_deliver", "_round_arrives", "_append_rx", "_append_rx_parts",
              "handle_arrival", "_complete_send"}

    def __init__(self):
        super().__init__()
        self.timer_log = []

    def call_later(self, delay, fn, *args):
        return self._logged(super().call_later(delay, fn, *args), fn)

    def call_at(self, when, fn, *args):
        return self._logged(super().call_at(when, fn, *args), fn)

    def call_at_partition(self, partition, when, fn, *args):
        return self._logged(super().call_at_partition(partition, when, fn, *args), fn)

    def _logged(self, handle, fn):
        if fn.__name__ in self.TRACED:
            self.timer_log.append((handle.when, handle.seq, fn.__name__))
        return handle


def run_scenario(
    fidelity,
    *,
    net_cls=Ethernet100,
    nbytes=4 * MIB,
    chunk=None,
    policy=None,
    probe=False,
    degrades=(),
    second=None,
    second_connect="early",
    reader="drain",
    flows=None,
    latency=None,
    trace=False,
    peer_fidelity=None,
    model=None,
):
    """k client/server transfers towards one host over one link, instrumented.

    ``flows`` lists the senders (see :func:`flow`), on host ``a`` unless
    they say otherwise, so they share its NIC; the default is the single ``nbytes`` transfer
    (``chunk``: awaited sends of that size), plus ``second=(at, nbytes)``
    for a competitor.  ``reader`` is how the receivers read: ``"drain"`` (one
    exact read of everything), ``"trickle"`` (whatever is there, read by
    read) or ``"none"``; ``peer_fidelity`` is the receiving stack's, when it
    is not the senders'; ``model`` the ``TcpModel`` of every stack.
    Returns a dict with, per flow (``out["flows"][i]``),
    the receive-completion and send-completion instants, both endpoints and
    the fluid controller (it carries the introspection counters) — flow 0
    and 1 also under their historical keys — and, when requested, the
    passive probe + estimator and the fault injector.
    """
    if flows is None:
        if chunk:
            sizes = [chunk] * (nbytes // chunk) + ([nbytes % chunk] if nbytes % chunk else [])
            flows = [flow(*sizes, awaited=True, fill=ord("x"))]
        else:
            flows = [flow(nbytes, fill=ord("x"))]
        if second is not None:
            at2, nbytes2 = second
            flows.append(flow(nbytes2, start=at2, connect=second_connect, fill=ord("y")))
    sim = _TracingSimulator() if trace else Simulator()
    net = net_cls(sim)
    if latency is not None:
        net.latency = latency
        net.changed("degrade")
    b = Host(sim, "b")
    net.connect(b)
    sb = TcpStack(b, model, fidelity=peer_fidelity or fidelity)
    senders = {}
    for name in ["a"] + [spec["src"] for spec in flows]:
        if name not in senders:
            net.connect(Host(sim, name))
            if policy is not None:
                senders[name] = TcpStack(net.hosts()[-1], model, fluid_policy=policy)
            else:
                senders[name] = TcpStack(net.hosts()[-1], model, fidelity=fidelity)
    a = senders["a"].host
    out = {"sim": sim, "net": net, "flows": [{"done": []} for _ in flows]}
    if probe:
        out["est"] = est = LinkEstimator()
        out["probe"] = PassiveLinkProbe(net, est.update)
    if degrades:
        inj = out["injector"] = FaultInjector(sim, TopologyKB(), seed=11, announce=False)
        for at, kwargs in degrades:
            inj.degrade_link_at(at, net, **kwargs)

    def client(spec, res, port):
        if spec["connect"] == "late":
            yield sim.timeout(spec["start"])
        conn = res["conn"] = yield senders[spec["src"]].connect(b, port)
        if spec["connect"] == "early" and spec["start"]:
            yield sim.timeout(spec["start"])
        res["t0"] = sim.now
        for j, n in enumerate(spec["sizes"]):
            ev = conn.send(bytes([(spec["fill"] + j) % 256]) * n)
            ev.add_callback(lambda _ev, j=j: res["done"].append((j, sim.now)))
            if spec["awaited"]:
                yield ev
            elif spec["gap"]:
                yield sim.timeout(spec["gap"])
        if spec["close_at"] is not None:
            yield sim.timeout(spec["close_at"])
            conn.close()

    def server(spec, res, listener):
        conn = res["peer"] = yield listener.accept()
        if spec["hangup_at"] is not None:
            sim.call_later(spec["hangup_at"], conn.close)
        if reader == "none":
            return
        expected = b"".join(
            bytes([(spec["fill"] + j) % 256]) * n for j, n in enumerate(spec["sizes"])
        )
        if reader == "trickle":
            # take whatever is there, as it comes: ``(when, nbytes)`` per read
            reads = res["reads"] = []
            while sum(n for _at, n in reads) < len(expected):
                data = yield conn.recv()
                reads.append((sim.now, len(data)))
            return
        try:
            data = bytes((yield conn.recv_exact(len(expected))))
        except TcpError:
            data = b""
        res["t1"] = sim.now
        res["received"] = len(data)
        # a transfer closed from either end leaves an exact prefix
        res["ok"] = data == expected[: len(data)] and (
            spec["close_at"] is not None
            or spec["hangup_at"] is not None
            or len(data) == len(expected)
        )

    for i, spec in enumerate(flows):
        res = out["flows"][i]
        sim.process(client(spec, res, PORT + i))
        sim.process(server(spec, res, sb.listen(PORT + i)))

    sim.run(max_time=600.0)
    for res in out["flows"]:
        res.setdefault("conn", None)
        res["fluid"] = res["conn"].fluid if res["conn"] is not None else None
    first = out["flows"][0]
    out.update(conn=first["conn"], peer=first.get("peer"), fluid=first["fluid"],
               t0=first.get("t0"), t1=first.get("t1"), ok1=first.get("ok"))
    if len(flows) > 1:
        other = out["flows"][1]
        out.update(conn2=other["conn"], t2=other.get("t1"), ok2=other.get("ok"))
    out["tx_free_at"] = net.nic_of(a).tx_free_at
    return out


def _reasons(controller):
    return [reason for _at, reason in controller.invalidations]


def lan_pair(fidelity):
    """Hosts ``a`` and ``b`` on one ``Ethernet100``, a TCP stack each:
    ``(sim, net, a, b, stack_a, stack_b)``."""
    sim = Simulator()
    net = Ethernet100(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    return sim, net, a, b, TcpStack(a, fidelity=fidelity), TcpStack(b, fidelity=fidelity)


def _assert_equivalent(packet, hybrid):
    """The observable contract: bytes exact, completion times float-equal."""
    assert hybrid["ok1"] and packet["ok1"]
    assert hybrid["t0"] == packet["t0"]
    assert hybrid["t1"] == packet["t1"]
    assert hybrid["conn"].bytes_sent == packet["conn"].bytes_sent
    assert hybrid["conn"].rounds == packet["conn"].rounds
    assert hybrid["conn"].cwnd == packet["conn"].cwnd
    assert hybrid["conn"].ssthresh == packet["conn"].ssthresh
    assert hybrid["peer"].bytes_received == packet["peer"].bytes_received


def _assert_probe_equivalent(packet, hybrid):
    """Passive estimates: loss bit-exact, latency/bandwidth to float noise."""
    pe, he = packet["est"], hybrid["est"]
    assert he.loss.samples == pe.loss.samples
    assert he.loss.mean() == pe.loss.mean()
    assert hybrid["probe"].frames == packet["probe"].frames
    assert hybrid["probe"].losses == packet["probe"].losses
    assert he.latency.value == pytest.approx(pe.latency.value, rel=1e-6)
    assert he.bandwidth.value == pytest.approx(pe.bandwidth.value, rel=1e-6)


def _assert_flows_equivalent(packet, hybrid, planned=()):
    """The contract, flow by flow: stream bytes in order, every send and
    receive completion at the identical instant, the same rounds — and the
    NIC left exactly as busy.  ``planned`` lists the flows that must have
    ridden a joint epoch."""
    assert len(hybrid["flows"]) == len(packet["flows"])
    for idx, (pf, hf) in enumerate(zip(packet["flows"], hybrid["flows"])):
        assert pf["ok"] and hf["ok"], idx
        assert hf["t0"] == pf["t0"], idx
        assert hf["t1"] == pf["t1"], idx
        assert hf["received"] == pf["received"], idx
        assert hf["done"] == pf["done"], idx
        assert hf["conn"].bytes_sent == pf["conn"].bytes_sent, idx
        assert hf["conn"].rounds == pf["conn"].rounds, idx
        assert hf["conn"].cwnd == pf["conn"].cwnd, idx
        assert hf["conn"].ssthresh == pf["conn"].ssthresh, idx
        assert hf["peer"].bytes_received == pf["peer"].bytes_received, idx
    assert hybrid["tx_free_at"] == packet["tx_free_at"]
    assert hybrid["net"].drop_log == packet["net"].drop_log
    for idx in planned:
        assert hybrid["flows"][idx]["fluid"].epoch_rounds > 0, idx


# ---------------------------------------------------------------------------
# baseline equivalence: stable flows fluidize and stay exact
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chunk", [None, 64 * 1024], ids=["bulk", "chunked"])
def test_hybrid_lan_transfer_is_float_identical(chunk):
    packet = run_scenario("packet", chunk=chunk, probe=True)
    hybrid = run_scenario("hybrid", chunk=chunk, probe=True)
    _assert_equivalent(packet, hybrid)
    _assert_probe_equivalent(packet, hybrid)
    fl = hybrid["fluid"]
    # fluid from the first byte: one activation, and not one packet round
    assert fl.activations == 1
    assert fl.epoch_rounds == fl.fluid_rounds == hybrid["conn"].rounds
    if chunk is not None:
        # the first awaited 64 KiB send queues more than one *slow-start*
        # window and is one plan of 5 rounds: 2, 4, 8, 16 segments and the
        # 20536 bytes left.  That leaves cwnd at 68536, and from then on a
        # send never queues more than one window: 63 plans of one round
        assert (fl.epochs, fl.epoch_rounds) == (1 + 63, 5 + 63)


def test_fluid_collapses_event_count():
    packet = run_scenario("packet", nbytes=8 * MIB)
    hybrid = run_scenario("hybrid", nbytes=8 * MIB)
    _assert_equivalent(packet, hybrid)
    # the point of the fast path: far fewer scheduled timers for the same
    # transfer (one batched delivery per epoch instead of one per burst)
    assert (
        hybrid["sim"].stats().timers_scheduled
        < packet["sim"].stats().timers_scheduled * 0.7
    )


# ---------------------------------------------------------------------------
# fallback: loss draw (satellite 3a)
# ---------------------------------------------------------------------------


def test_loss_draw_falls_back_to_packet_and_matches():
    """Nobody can compute a loss draw ahead, so every round of a lossy WAN
    is the packet round itself, draw included — the RNG stream, and
    everything downstream, is the pure packet run's by construction."""
    packet = run_scenario("packet", net_cls=WanVthd, nbytes=16 * MIB, probe=True)
    hybrid = run_scenario("hybrid", net_cls=WanVthd, nbytes=16 * MIB, probe=True)
    _assert_equivalent(packet, hybrid)
    _assert_probe_equivalent(packet, hybrid)
    fl = hybrid["fluid"]
    # a lossy link is never planned: not a round left the packet path, and
    # nothing was logged — the flow stays fluid-active all along, ready for
    # the link to recover
    assert fl.epochs == fl.epoch_rounds == fl.fluid_rounds == 0 < hybrid["conn"].rounds
    assert _reasons(fl) == []
    assert fl.activations == 1 and fl.active
    # the packet run saw actual losses, and the hybrid run saw the same ones
    assert packet["est"].loss.mean() > 0.0
    assert hybrid["conn"].retransmitted_bytes == packet["conn"].retransmitted_bytes > 0


def test_flows_sharing_a_lossy_link_feed_its_estimator_in_packet_order():
    """Two flows, one passive probe, a lossy link: a windowed loss estimate
    depends on the order its samples arrive in, so a zero-loss sample must
    not wait in a batch while the other flow's drawn round goes by (it used
    to, and the estimate read 0.0 against the packet run's): on a lossy link
    every round reports for itself, being the packet round."""
    flows = [flow(8 * MIB), flow(8 * MIB, fill=ord("k"))]
    packet = run_scenario("packet", net_cls=WanVthd, flows=flows, probe=True)
    hybrid = run_scenario("hybrid", net_cls=WanVthd, flows=flows, probe=True)
    _assert_flows_equivalent(packet, hybrid)
    _assert_probe_equivalent(packet, hybrid)
    assert packet["est"].loss.mean() > 0.0
    for res in hybrid["flows"]:
        # both flows drew losses, and neither batched a sample
        assert res["conn"].retransmitted_bytes > 0
        assert res["fluid"].epochs == 0 and res["fluid"]._obs_bursts == 0


# ---------------------------------------------------------------------------
# fallback: link churn mid-epoch (satellite 3b)
# ---------------------------------------------------------------------------


def test_mid_epoch_degrade_rolls_back_exactly():
    """A bandwidth degrade lands mid-epoch: the uncommitted suffix of the
    plan is unwound and the flow resumes in packet mode at the precise
    virtual time the packet model would have pumped — completion times
    stay float-identical, probe estimates unchanged."""
    degrades = [(0.25, dict(bandwidth=6_000_000.0))]
    packet = run_scenario(
        "packet", nbytes=8 * MIB, probe=True, degrades=degrades
    )
    hybrid = run_scenario(
        "hybrid", nbytes=8 * MIB, probe=True, degrades=degrades
    )
    _assert_equivalent(packet, hybrid)
    _assert_probe_equivalent(packet, hybrid)
    fl = hybrid["fluid"]
    assert fl.epochs >= 1
    assert "degrade" in _reasons(fl)
    # the injector really fired, in both runs
    assert [e.kind for e in hybrid["injector"].log] == ["degrade-link"]
    assert [e.kind for e in packet["injector"].log] == ["degrade-link"]
    # after the fallback the flow re-fluidizes under the new parameters
    assert fl.activations >= 2


def test_latency_degrade_mid_epoch_matches():
    degrades = [(0.2, dict(latency=5e-3)), (0.45, dict(bandwidth=8_000_000.0))]
    packet = run_scenario("packet", nbytes=8 * MIB, degrades=degrades)
    hybrid = run_scenario("hybrid", nbytes=8 * MIB, degrades=degrades)
    _assert_equivalent(packet, hybrid)
    assert "degrade" in _reasons(hybrid["fluid"])


# ---------------------------------------------------------------------------
# fallback: contention change on a shared link (satellite 3c)
# ---------------------------------------------------------------------------


def test_second_flow_join_recuts_and_matches():
    """A second sender appearing on the same NIC changes who gets the wire
    when: the first flow's plan is re-cut (its uncommitted suffix rolled
    back) at the join, the incumbent stays fluid-active while the newcomer
    qualifies in packet mode, and then both ride one joint plan — with byte
    counts and completion times exactly equal to the pure packet run for
    *both* flows."""
    packet = run_scenario("packet", nbytes=8 * MIB, second=(0.2, 2 * MIB))
    hybrid = run_scenario("hybrid", nbytes=8 * MIB, second=(0.2, 2 * MIB))
    _assert_equivalent(packet, hybrid)
    _assert_flows_equivalent(packet, hybrid, planned=(0, 1))
    first, second = hybrid["fluid"], hybrid["flows"][1]["fluid"]
    # re-cut, not demoted: one activation carries the flow to the end, and
    # the newcomer's own drain is only logged — it unwinds nothing
    assert _reasons(first) == ["flow-join", "flow-leave"]
    assert first.activations == 1
    assert first.active
    assert _reasons(second) == []
    ledger = hybrid["net"].fluid_ledger
    assert isinstance(ledger, LinkRateLedger)
    # flows drained: contention registry is empty again
    assert not ledger._senders


def test_mid_epoch_handshake_contention_matches():
    """A connection *handshaking* mid-epoch is foreign traffic on the
    NIC: its SYN's reservation must unwind the epoch's planned-future
    slots, or the handshake would queue behind the whole remaining
    transfer instead of behind the in-flight burst."""
    packet = run_scenario(
        "packet", nbytes=8 * MIB, second=(0.2, 1 * MIB), second_connect="late"
    )
    hybrid = run_scenario(
        "hybrid", nbytes=8 * MIB, second=(0.2, 1 * MIB), second_connect="late"
    )
    _assert_equivalent(packet, hybrid)
    assert hybrid["ok2"] and packet["ok2"]
    assert hybrid["t2"] == packet["t2"]
    assert "nic-contention" in _reasons(hybrid["fluid"])


# ---------------------------------------------------------------------------
# contention: k flows through one NIC ride one joint plan, packet-exactly
# ---------------------------------------------------------------------------

WINDOW = 256 * 1024

#: per-flow send scripts: (sizes, awaited)
SIZE_SETS = {
    # whole windows only: every planned round is a full one
    "multiples": [((24 * WINDOW,), False), ((16 * WINDOW,), False), ((20 * WINDOW,), False)],
    # ragged tails, several sends finishing inside one round, an empty send
    "ragged": [
        ((4 * MIB + 123,), False),
        ((3 * MIB + 17, 777, 0, 2 * MIB), False),
        ((5 * MIB - 1,), False),
    ],
    # chunked senders: each awaited send drains the flow out of the plan,
    # and the next one joins the NIC afresh
    "chunked": [((600 * 1024 + 5,) * 7, True), ((5 * MIB,), False), ((700 * 1024,) * 6, True)],
}


def _start_offsets(k, pattern, seed=2004):
    """Start offsets from a seeded Poisson process (Lewis–Shedler thinning,
    ramping rate): ``tie`` starts every flow on one arrival, ``near`` on
    consecutive arrivals a fraction of a window's wire time apart,
    ``spread`` on arrivals whole rounds apart."""
    rate_max = {"tie": 50.0, "near": 2000.0, "spread": 12.0}[pattern]
    times = poisson_thinning_times(
        random.Random(seed), lambda t: rate_max * min(1.0, 0.25 + t), 10.0, rate_max
    )
    return [times[0]] * k if pattern == "tie" else times[:k]


@pytest.mark.parametrize("pattern", ["tie", "near", "spread"])
@pytest.mark.parametrize("sizes", sorted(SIZE_SETS))
@pytest.mark.parametrize("k", [2, 3])
def test_contended_flows_ride_one_plan_and_match(k, sizes, pattern):
    """k senders on one NIC, hybrid vs packet: every flow's completion
    instants, bytes, rounds and stream order, the NIC's occupancy and the
    passive probe's estimates are identical — and the flows really were
    planned jointly."""
    offsets = _start_offsets(k, pattern)
    flows = [
        flow(*script, awaited=awaited, start=offsets[i], fill=ord("a") + 8 * i)
        for i, (script, awaited) in enumerate(SIZE_SETS[sizes][:k])
    ]
    packet = run_scenario("packet", flows=flows, probe=True)
    hybrid = run_scenario("hybrid", flows=flows, probe=True)
    _assert_flows_equivalent(packet, hybrid, planned=range(k))
    _assert_probe_equivalent(packet, hybrid)
    if sizes != "chunked":
        # the point of planning jointly: far fewer timers than three per
        # round (a chunked sender re-cuts the plan at every chunk, which
        # costs about what its few planned rounds saved)
        assert (
            hybrid["sim"].stats().timers_scheduled
            < packet["sim"].stats().timers_scheduled * 0.6
        )


def test_latency_bound_ties_persist_and_match():
    """On a long fat link the wait is the RTT for every flow, so flows that
    start together pump at the *same instant* every round: the plan must
    break each tie the way the engine does (the flow whose previous round
    ran first), round after round, across capped and re-cut plans."""
    flows = [flow(6 * MIB), flow(6 * MIB + 1), flow(4 * MIB, fill=ord("p"))]
    policy = FluidPolicy(first_plan_rounds=5)
    packet = run_scenario("packet", flows=flows, latency=0.03)
    hybrid = run_scenario("hybrid", flows=flows, latency=0.03, policy=policy)
    _assert_flows_equivalent(packet, hybrid, planned=range(3))
    # capped at 5 rounds per flow, then at 10, then whatever is left: plan
    # after plan, none of them cut (the only thing logged is the others
    # draining), every flow's own plans summing to its rounds
    assert all(res["fluid"].epochs >= 3 for res in hybrid["flows"])
    assert all(res["fluid"].epoch_rounds == res["conn"].rounds for res in hybrid["flows"])
    assert all(set(_reasons(res["fluid"])) <= {"flow-leave"} for res in hybrid["flows"])


PAIR = [flow(8 * MIB), flow(6 * MIB + 99, fill=ord("k"))]


@pytest.mark.parametrize(
    "degrades",
    [
        [(0.4, dict(bandwidth=6_000_000.0))],
        [(0.3, dict(latency=5e-3)), (0.85, dict(bandwidth=8_000_000.0))],
    ],
    ids=["bandwidth", "latency-then-bandwidth"],
)
def test_contended_mid_plan_degrade_rolls_every_member_back(degrades):
    """Churn lands inside a joint plan: every member's uncommitted suffix is
    unwound, both resume in packet mode at the instants the packet model
    would have pumped, and re-plan jointly under the new parameters."""
    packet = run_scenario("packet", flows=PAIR, probe=True, degrades=degrades)
    hybrid = run_scenario("hybrid", flows=PAIR, probe=True, degrades=degrades)
    _assert_flows_equivalent(packet, hybrid, planned=(0, 1))
    _assert_probe_equivalent(packet, hybrid)
    for res in hybrid["flows"]:
        assert "degrade" in _reasons(res["fluid"])
        assert res["fluid"].activations >= 2
        assert res["fluid"].epochs >= 2


def test_third_flow_joining_recuts_the_joint_plan():
    """A third sender (connected early, so only its *data* is new) starts
    mid-plan: the pair's plan is cut at the join, nobody is demoted, and
    once the newcomer qualifies all three are planned together."""
    flows = PAIR + [flow(3 * MIB + 5, start=0.45, fill=ord("t"))]
    packet = run_scenario("packet", flows=flows, probe=True)
    hybrid = run_scenario("hybrid", flows=flows, probe=True)
    _assert_flows_equivalent(packet, hybrid, planned=(0, 1, 2))
    _assert_probe_equivalent(packet, hybrid)
    for res in hybrid["flows"][:2]:
        # one cut at the join; after it only drains, which unwind nothing
        assert _reasons(res["fluid"])[0] == "flow-join"
        assert set(_reasons(res["fluid"])[1:]) <= {"flow-leave"}
        assert res["fluid"].activations == 1


def test_late_connect_syn_is_a_foreign_reservation_on_the_joint_plan():
    """A connection handshaking mid-plan: its SYN must take the wire right
    behind the in-flight round, not behind the pair's laid-out future."""
    flows = PAIR + [flow(2 * MIB, start=0.45, connect="late", fill=ord("t"))]
    packet = run_scenario("packet", flows=flows)
    hybrid = run_scenario("hybrid", flows=flows)
    _assert_flows_equivalent(packet, hybrid, planned=(0, 1, 2))
    for res in hybrid["flows"][:2]:
        assert _reasons(res["fluid"])[0] == "nic-contention"


def test_member_closing_mid_plan_matches():
    """One member closes with rounds still planned: that cuts the plan
    (before the FIN takes the wire), the peer sees exactly the bytes the
    packet model had put on the wire — the batched prefix *before* the
    close, never after — and the surviving member carries on, alone in its
    next plan."""
    flows = [flow(8 * MIB), flow(6 * MIB, close_at=0.5, fill=ord("k"))]
    packet = run_scenario("packet", flows=flows)
    hybrid = run_scenario("hybrid", flows=flows)
    _assert_flows_equivalent(packet, hybrid, planned=(0, 1))
    assert 0 < hybrid["flows"][1]["received"] < 6 * MIB
    assert "close" in _reasons(hybrid["flows"][1]["fluid"])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fin_overtaking_a_batch_after_a_latency_drop_matches(k):
    """The latency drops just before a member closes: its FIN, sent at the
    new latency right behind the in-flight round, reaches the peer *before*
    the last rounds of the batch the cut committed.  The packet model hands
    the reader the rounds that arrived ahead of the FIN and takes in the
    rest after the close; the batch must be dissolved the same way."""
    flows = [flow(6 * MIB, fill=ord("a") + i) for i in range(k - 1)]
    flows.append(flow(6 * MIB, close_at=0.2585, fill=ord("k")))
    degrades = [(0.2580, dict(latency=3e-4))]
    packet = run_scenario("packet", flows=flows, latency=2e-3, degrades=degrades)
    hybrid = run_scenario("hybrid", flows=flows, latency=2e-3, degrades=degrades)
    _assert_flows_equivalent(packet, hybrid, planned=range(k))
    closer, peer = hybrid["flows"][-1], hybrid["flows"][-1]["peer"]
    # the FIN did overtake: the reader was cut off short of what arrived
    assert 0 < closer["received"] < peer.bytes_received == closer["conn"].bytes_sent
    assert "degrade" in _reasons(closer["fluid"])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_receiver_hanging_up_mid_plan_matches(k):
    """The *receiving* endpoint of one member closes with rounds planned.
    Its stack drops what arrives from then on, so of the pending batch it
    keeps the rounds that had arrived; the sender learns of it when the FIN
    reaches it, and what the plan had laid out beyond that instant must be
    unwound — or the co-senders would queue behind rounds nobody sends."""
    flows = [flow(8 * MIB, fill=ord("a") + i) for i in range(k - 1)]
    flows.append(flow(8 * MIB, hangup_at=0.3, fill=ord("k")))
    packet = run_scenario("packet", flows=flows)
    hybrid = run_scenario("hybrid", flows=flows)
    _assert_flows_equivalent(packet, hybrid, planned=range(k))
    hung = hybrid["flows"][-1]
    assert hybrid["net"].frames_dropped == packet["net"].frames_dropped > 0
    assert hung["conn"].closed and not hung["done"]
    assert 0 < hung["peer"].bytes_received < hung["conn"].bytes_sent < 8 * MIB
    assert "peer-close" in _reasons(hung["fluid"])


def test_receiver_hanging_up_matches_whatever_the_two_stacks_fidelities():
    """The four ``{packet, hybrid}`` pairings of sender and receiver: what a
    hang-up means to the plans towards the closing endpoint is the closing
    connection's business, not its fluid controller's — a packet-fidelity
    receiver has none (its hybrid sender used to finish the whole send into
    the void in one uncut plan, the receiver keeping none of its batch)."""
    flows = [flow(8 * MIB, hangup_at=0.3)]
    fidelities = ("packet", "hybrid")
    runs = {(tx, rx): run_scenario(tx, peer_fidelity=rx, flows=flows)
            for tx in fidelities for rx in fidelities}
    seen = {
        pair: (run["peer"].bytes_received, run["conn"].bytes_sent, run["conn"].rounds,
               run["net"].frames_dropped, run["tx_free_at"], run["net"].drop_log)
        for pair, run in runs.items()
    }
    assert len(set(map(repr, seen.values()))) == 1
    received, sent, _rounds, dropped, _busy, _log = seen["packet", "packet"]
    assert 0 < received < sent < 8 * MIB and dropped == 1
    for rx in fidelities:
        assert "peer-close" in _reasons(runs["hybrid", rx]["fluid"])


def test_send_queued_behind_a_flow_the_plan_drained_recuts():
    """More data queued on a member whose drain the plan had laid out: the
    short last round and the missing pump after it are no longer what the
    packet model does, so the plan is cut when the data is queued."""
    flows = [flow(8 * MIB), flow(4 * MIB + 300, 3 * MIB, gap=0.4, fill=ord("k"))]
    packet = run_scenario("packet", flows=flows)
    hybrid = run_scenario("hybrid", flows=flows)
    _assert_flows_equivalent(packet, hybrid, planned=(0, 1))
    assert "send" in _reasons(hybrid["flows"][1]["fluid"])


def test_cut_puts_the_send_queue_back_entry_for_entry():
    """A cut followed by a lossy round: the packet model defers the
    completion of the *last send a lost round retires*, so it matters which
    queue entries a round retires — the cut must rewind the sends' own
    entries, not requeue their bytes in fragments (a fragment retiring
    last used to absorb the deferral, completing the send too early)."""
    flows = [
        flow(2 * MIB, 500_000, 100, 1_310_720, 100, start=0.2326577397097602),
        flow(2 * MIB, start=0.23958764896277326, fill=ord("k")),
    ]
    degrades = [(0.5519881656548778, dict(loss_rate=0.001))]
    packet = run_scenario("packet", flows=flows, degrades=degrades, latency=0.004)
    hybrid = run_scenario("hybrid", flows=flows, degrades=degrades, latency=0.004)
    _assert_flows_equivalent(packet, hybrid, planned=(0, 1))
    # the scenario still does what it is here for: the loss lands on a round
    # retiring the first send, right after the cut
    assert packet["flows"][0]["conn"].retransmitted_bytes > 0
    assert "degrade" in _reasons(hybrid["fluid"])


def test_small_round_after_a_capped_plan_queues_behind_the_batch():
    """The round after a capped plan is tiny: it arrives well before the
    plan's batch is readable, and must wait its turn behind it (the batch
    advances the peer's receive cursor only when it is delivered, so the
    tiny round's own plan is seeded from the cursor the batch *will* have
    left: ``FluidController._seed``)."""
    # a plan of exactly 64 rounds — the slow-start ramp (2, 4, ... 128
    # segments of 1460 bytes: 7 rounds) and 57 full windows — then 100 bytes
    body = 127 * 2 * 1460 + 57 * WINDOW
    flows = [flow(body, 100)]
    packet = run_scenario("packet", flows=flows)
    hybrid = run_scenario("hybrid", flows=flows)
    _assert_flows_equivalent(packet, hybrid, planned=(0,))
    fl = hybrid["fluid"]
    # the capped plan, and the plan of one round behind it
    assert (fl.epochs, fl.epoch_rounds) == (2, 64 + 1) and hybrid["conn"].rounds == 65
    # a drain reader cannot see a reorder of *instants*; one taking what is
    # there does: the batch, then the 100 bytes, both when the packet run's
    # last full window is readable (its copy outlasts the tiny round's trip)
    packet = run_scenario("packet", flows=flows, reader="trickle")["flows"][0]
    hybrid = run_scenario("hybrid", flows=flows, reader="trickle")["flows"][0]
    at, last = packet["reads"][-1]
    assert last == 100 and packet["reads"][-2] == (at, WINDOW)
    assert hybrid["reads"] == [(at, body), (at, 100)]
    assert hybrid["done"] == packet["done"]


def test_one_round_plan_behind_a_packet_frame_in_flight_waits_its_turn():
    """The same hazard across the packet->plan handoff: the link stops being
    lossy while the last full window — a packet round's frame — is on the
    wire, and the 100 bytes behind it are a plan of one round, seeded from a
    cursor that frame has yet to advance.  The frame finds the plan's batch
    pending when it arrives, ahead of it, and dissolves it: the tiny round
    arrives on its own and is clamped behind the frame's bytes."""
    body = 127 * 2 * 1460 + 3 * WINDOW
    flows = [flow(body, 100)]
    # "lossy" at a rate that never draws a loss: rounds as on a clean link
    degrades = [(0.0, dict(loss_rate=1e-12)), (0.09, dict(loss_rate=0.0))]
    packet = run_scenario("packet", flows=flows, degrades=degrades, reader="trickle")
    hybrid = run_scenario("hybrid", flows=flows, degrades=degrades, reader="trickle")
    at, last = packet["flows"][0]["reads"][-1]
    assert last == 100 and packet["flows"][0]["reads"][-2] == (at, WINDOW)
    assert hybrid["flows"][0]["reads"] == packet["flows"][0]["reads"]
    assert hybrid["flows"][0]["done"] == packet["flows"][0]["done"]
    fl = hybrid["fluid"]
    assert (fl.epochs, fl.epoch_rounds) == (1, 1) and hybrid["conn"].rounds == 11


def test_rollback_timer_order_does_not_depend_on_object_addresses():
    """Planned flows on three NICs of one link hit by churn, run twice in
    one process with the heap perturbed in between: the pump / delivery
    timers must be scheduled with identical ``(when, seq)`` both times (the
    ledger used to iterate sets of objects, i.e. in address order, so the
    order in which the rollbacks re-scheduled their pumps moved with the
    allocator)."""
    flows = PAIR + [flow(5 * MIB, fill=ord("t"), src="c"), flow(7 * MIB, fill=ord("u"), src="d")]
    degrades = [(0.3, dict(bandwidth=6_000_000.0)), (0.9, dict(latency=2e-3))]

    def timers():
        out = run_scenario("hybrid", flows=flows, degrades=degrades, trace=True)
        assert all("degrade" in _reasons(res["fluid"]) for res in out["flows"])
        assert all(res["fluid"].epoch_rounds > 0 for res in out["flows"])
        return sorted(out["sim"].timer_log), sum(res["fluid"].epochs for res in out["flows"])

    first, nshares = timers()
    garbage = [[object() for _ in range(n % 13)] for n in range(5000)]
    second, _ = timers()
    del garbage
    assert first == second
    # the log holds what the rollbacks re-scheduled: every flow's part of
    # every plan (two cuts: at least three plans on the shared NIC) has its
    # trailing pump and its batched delivery, and nothing ran per round
    names = Counter(name for _when, _seq, name in first)
    assert nshares >= 10
    assert names["_pump"] >= nshares and names["_epoch_deliver"] >= nshares
    assert len(first) < 100


# ---------------------------------------------------------------------------
# the ramp: a flow is planned from its first pump, its window growing inside
# the plan (slow start, then additive growth)
# ---------------------------------------------------------------------------

MSS = 1460
#: what a flow sends before slow start (2, 4, ... 128 segments: 7 rounds)
#: reaches the receiver cap — a shorter flow never sends a full window
RAMP = 127 * 2 * MSS
#: the small rounds are RTT-bound (4 ms each) at this latency, so the ramp
#: spans some 40 ms and there is room to land things inside it
RAMP_LATENCY = 2e-3


def _assert_packet_rounds(hybrid, *expected):
    """How many rounds each flow ran on the packet path (default: none).  On
    a loss-free link the one thing that puts a round there is a co-sender
    that cannot be planned with at that pump: one that churn deactivated and
    that has not pumped since, or one that closed and has yet to notice."""
    expected += (0,) * (len(hybrid["flows"]) - len(expected))
    for idx, res in enumerate(hybrid["flows"]):
        assert res["conn"].rounds - res["fluid"].epoch_rounds == expected[idx], idx


@pytest.mark.parametrize("offsets", [(0.0, 0.0, 0.0), (0.0, 0.006, 0.013)],
                         ids=["tied", "staggered"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_flows_in_slow_start_are_planned_from_their_first_round(k, offsets):
    """k flows on one NIC, each starting at the initial window, together or
    a few rounds apart: they double inside one joint plan, round sizes,
    instants, final windows and probe estimates as in the packet run."""
    sizes = [RAMP + 3 * WINDOW + 17, 300_000, RAMP - 1]
    flows = [flow(sizes[i], start=offsets[i], fill=ord("a") + 8 * i) for i in range(k)]
    packet = run_scenario("packet", flows=flows, probe=True, latency=RAMP_LATENCY)
    hybrid = run_scenario("hybrid", flows=flows, probe=True, latency=RAMP_LATENCY)
    _assert_flows_equivalent(packet, hybrid, planned=range(k))
    _assert_probe_equivalent(packet, hybrid)
    for res in hybrid["flows"]:
        # every round of every flow was laid out by a plan: its own first
        # pump cut the plan it found and laid the next out, ramp included
        assert res["fluid"].epoch_rounds == res["conn"].rounds
    # a plan costs a few timers per flow, whatever it covers
    assert hybrid["sim"].stats().timers_scheduled < packet["sim"].stats().timers_scheduled * 0.5


#: what lands inside the ramp: (extra run_scenario arguments, the script of
#: the flow that brings it — sent next to the k others —, the cut it logs)
INSIDE_THE_RAMP = {
    "degrade-bandwidth": (dict(degrades=[(0.015, dict(bandwidth=6_000_000.0))]), None, "degrade"),
    "degrade-latency": (dict(degrades=[(0.015, dict(latency=5e-4))]), None, "degrade"),
    "joiner": ({}, dict(start=0.012), "flow-join"),
    "late-syn": ({}, dict(start=0.012, connect="late"), "nic-contention"),
    "close": ({}, dict(close_at=0.011), "close"),
    "hangup": ({}, dict(hangup_at=0.011), "peer-close"),
}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("what", sorted(INSIDE_THE_RAMP))
def test_a_cut_inside_the_ramp_restores_the_window_and_matches(what, k):
    """Every flow here is shorter than the ramp, so whatever happens to it
    happens in slow start: the cut leaves each member the window its
    committed rounds had grown, and the next plan doubles on from there."""
    extra, script, reason = INSIDE_THE_RAMP[what]
    flows = [flow(300_000 + i, fill=ord("a") + 8 * i) for i in range(k)]
    if script is not None:
        flows.append(flow(250_000, fill=ord("t"), **script))
    packet = run_scenario("packet", flows=flows, latency=RAMP_LATENCY, **extra)
    hybrid = run_scenario("hybrid", flows=flows, latency=RAMP_LATENCY, **extra)
    _assert_flows_equivalent(packet, hybrid, planned=range(len(flows)))
    # churn deactivates both flows: the first to pump again finds the other
    # still inactive, and that pump is a packet round
    _assert_packet_rounds(hybrid, *[1] * (k - 1 if reason == "degrade" else 0))
    assert all(res["conn"].rounds <= 7 for res in packet["flows"])
    subject = hybrid["flows"][-1 if what in ("close", "hangup") else 0]
    assert reason in _reasons(subject["fluid"])
    if what in ("close", "hangup"):
        # cut off mid-ramp: the window stops where the committed rounds left it
        assert 0 < subject["peer"].bytes_received < 250_000
        assert 2 * MSS < subject["conn"].cwnd < WINDOW


@pytest.mark.parametrize(
    "scripts, epochs, rounds",
    [
        # each send queues one more window than the last one left: 2 rounds
        ([(4096, 8192, 16384, 32768, 65536)], [5], [10]),
        # the deployment's writes: the first is one 4-round plan (2, 4, 8
        # segments and the rest), which leaves the window above 32 KB — and
        # each of the 7 others a plan of one round
        ([(32768,) * 8], [1 + 7], [4 + 7]),
        ([(32768,) * 8, (32768,) * 8], [8, 8], [11, 11]),
        # 5 rounds for the first send, one each for the three that fit
        ([(65536, 4096, 49152, 8192)] * 3, [4, 4, 4], [8, 8, 8]),
    ],
    ids=["doubling", "32k-writes", "32k-writes-x2", "mixed-x3"],
)
def test_awaited_sends_of_a_few_windows_are_short_plans(scripts, epochs, rounds):
    flows = [flow(*script, awaited=True, fill=ord("a") + 8 * i)
             for i, script in enumerate(scripts)]
    packet = run_scenario("packet", flows=flows, probe=True)
    hybrid = run_scenario("hybrid", flows=flows, probe=True)
    _assert_flows_equivalent(packet, hybrid, planned=range(len(flows)))
    _assert_probe_equivalent(packet, hybrid)
    _assert_packet_rounds(hybrid)
    assert [res["fluid"].epochs for res in hybrid["flows"]] == epochs
    assert [res["conn"].rounds for res in hybrid["flows"]] == rounds


@pytest.mark.parametrize("k", [1, 2])
def test_additive_growth_after_a_loss_is_planned_and_matches(k):
    """A lossy spell sets ``ssthresh`` (every round of it on the packet
    path, RNG streams in step), then the link recovers: the flows climb one
    segment per round *inside* plans, far below the receiver cap."""
    flows = [flow(2 * MIB + 99 * i, fill=ord("a") + 8 * i) for i in range(k)]
    degrades = [(0.0, dict(loss_rate=0.02)), (0.03, dict(loss_rate=0.0))]
    packet = run_scenario("packet", flows=flows, probe=True, degrades=degrades)
    hybrid = run_scenario("hybrid", flows=flows, probe=True, degrades=degrades)
    _assert_flows_equivalent(packet, hybrid, planned=range(k))
    _assert_probe_equivalent(packet, hybrid)
    for res in hybrid["flows"]:
        conn, fl = res["conn"], res["fluid"]
        # the spell's rounds, drawn or not, were packet rounds; the recovery
        # (churn: one deactivation each) handed the flows to the planner
        assert conn.retransmitted_bytes > 0 and conn.rounds > fl.epoch_rounds
        assert _reasons(fl).count("degrade") == 1 and fl.activations == 2
        # one segment per round since the last loss, most of them planned
        climbed, rest = divmod(conn.cwnd - conn.ssthresh, MSS)
        assert rest == 0 and conn.cwnd < WINDOW
        assert climbed >= fl.epoch_rounds > 10


#: where a booked ramp ends or is cut: per case, the extra run_scenario
#: arguments (both runs; ``policy`` the hybrid run's only) and the senders
RAMP_EDGES = {
    # the second flow starts once the first is pinned: the joint plan its
    # join brings books that flow's whole ramp next to the other's stretch
    "ramp-beside-a-stretch": ({}, [flow(RAMP + 20 * WINDOW),
                                   flow(RAMP + 3 * WINDOW + 5, start=0.05, fill=ord("j"))]),
    # head entries shorter than the next ramp window: the booking stops at
    # the window an entry cannot fill, and the ordinary round after it
    # takes the rest and the next entry's first bytes
    "short-head-entry": ({}, [flow(20_000, 300_000, 70_001),
                              flow(9 * MSS + 1, 500_000, fill=ord("j"))]),
    # first plans of 3 rounds: a cap lands mid-ramp, and the merge it ends
    # gives back what the other member booked beyond it
    "cap-mid-ramp": (dict(policy=FluidPolicy(first_plan_rounds=3)),
                     [flow(RAMP + 2 * WINDOW), flow(RAMP + WINDOW + 1, fill=ord("j"))]),
    # a degrade cuts the joint plan while both members are mid-ramp
    "degrade-mid-ramp": (dict(degrades=[(0.02, dict(bandwidth=8_000_000.0))]),
                         [flow(RAMP + 4 * WINDOW),
                          flow(RAMP + 2 * WINDOW, start=0.006, fill=ord("j"))]),
    # ssthresh below the receive window: slow start up to it, then one
    # segment more per round, every window a run of the booking
    "congestion-avoidance": (dict(model=TcpModel(initial_ssthresh=16 * MSS)),
                             [flow(2 * MIB), flow(MIB + 7, fill=ord("j"))]),
    "three-flows": ({}, [flow(RAMP + 2 * WINDOW + i, start=0.003 * i, fill=ord("a") + 8 * i)
                         for i in range(3)]),
}


@pytest.mark.parametrize("what", sorted(RAMP_EDGES))
def test_a_booked_ramp_matches_the_packet_run(what, monkeypatch):
    """A flow's ramp is booked whole, as its turn starts, and laid out
    inside ``_advance``'s rotation: wherever the booking stops, and whatever
    cuts or caps it, every instant, byte, round and final window is the
    packet run's, and the flows' rounds are all planned."""
    extra, flows = RAMP_EDGES[what]
    extra = dict(extra, latency=RAMP_LATENCY)
    policy = extra.pop("policy", None)
    book = fluid._NicPlan._book
    given_back = []

    def booking(plan, share):
        given_back.append(share.left)
        book(plan, share)

    packet = run_scenario("packet", flows=flows, **extra)
    monkeypatch.setattr(fluid._NicPlan, "_book", booking)
    hybrid = run_scenario("hybrid", flows=flows, policy=policy, **extra)
    _assert_flows_equivalent(packet, hybrid, planned=range(len(flows)))
    if what == "degrade-mid-ramp":
        # churn deactivates both flows: the first to pump again finds the
        # other still inactive, and that pump is a packet round
        assert all(_reasons(res["fluid"]).count("degrade") == 1 for res in hybrid["flows"])
        _assert_packet_rounds(hybrid, 1, 0)
    else:
        _assert_packet_rounds(hybrid)
    if what == "cap-mid-ramp":
        assert any(given_back)
    if what == "congestion-avoidance":
        for res in hybrid["flows"]:
            conn = res["conn"]
            assert conn.ssthresh == 16 * MSS < conn.cwnd < WINDOW
            assert (conn.cwnd - conn.ssthresh) % MSS == 0


def test_a_planned_sends_bytes_become_readable_at_its_batchs_ready_time():
    """The stated divergence (fidelity contract, intermediate availability),
    from a flow's first round on: a reader taking what is there sees a
    planned 32 KB send all at once, at the instant its last round is
    readable in the packet run — where it had trickled in round by round.
    Whoever reads the send whole, and the sender, cannot tell."""
    packet = run_scenario("packet", flows=[flow(32768)], reader="trickle")["flows"][0]
    hybrid = run_scenario("hybrid", flows=[flow(32768)], reader="trickle")["flows"][0]
    assert [n for _at, n in packet["reads"]] == [2 * MSS, 4 * MSS, 8 * MSS, 32768 - 14 * MSS]
    assert hybrid["reads"] == [(packet["reads"][-1][0], 32768)]
    assert hybrid["done"] == packet["done"]


# ---------------------------------------------------------------------------
# a plan as long as the flow has earned: the per-flow round bound follows the
# flow's own cut history (``FluidController._horizon``)
# ---------------------------------------------------------------------------

#: a first plan of 4 rounds, so that growth shows at MiB sizes
EARNED = FluidPolicy(first_plan_rounds=4)


@pytest.fixture
def plan_log(monkeypatch):
    """Every share a plan retires, in order, as ``(controller, cap, rounds,
    cut)``: the round bound the flow had in that plan, how many of its rounds
    happened, and whether a cut had unwound part of the plan by then."""
    log = []
    retire = fluid._NicPlan._retire

    def recording(plan, share):
        retire(plan, share)
        log.append((share.ctl, share.cap, share.nrounds, plan.ncommitted is not None))

    monkeypatch.setattr(fluid._NicPlan, "_retire", recording)
    return log


def _history(plan_log, res):
    return [entry[1:] for entry in plan_log if entry[0] is res["fluid"]]


def _assert_horizons_follow_the_rule(plan_log, hybrid):
    """The rule itself, replayed over every flow's plans: a plan that ran to
    its end adds its rounds to the flow's streak and the next may lay out
    twice the streak (never less than before); a cut that unwound something
    restarts the streak at what the flow had committed of that plan."""
    for idx, res in enumerate(hybrid["flows"]):
        horizon, streak = EARNED.first_plan_rounds, 0
        for cap, nrounds, cut in _history(plan_log, res):
            assert cap == horizon and 0 <= nrounds <= cap, idx
            if cut:
                streak = nrounds
                horizon = max(2, 2 * streak)
            else:
                streak += nrounds
                horizon = max(horizon, 2 * streak)
        assert res["fluid"]._horizon == horizon, idx


def test_an_uncut_flows_plans_grow_with_what_it_has_committed(plan_log):
    packet = run_scenario("packet", nbytes=8 * MIB)
    hybrid = run_scenario("hybrid", nbytes=8 * MIB, policy=EARNED)
    _assert_equivalent(packet, hybrid)
    # 38 rounds: 4, then twice the 4 committed, then twice the 12 — and the
    # last plan, which may lay out 72, finds 2 left
    uncut = [(4, 4, False), (8, 8, False), (24, 24, False), (72, 2, False)]
    assert _history(plan_log, hybrid["flows"][0]) == uncut
    assert hybrid["fluid"]._horizon == 76 and hybrid["fluid"].epochs == 4
    _assert_horizons_follow_the_rule(plan_log, hybrid)
    # the policy's 64 is where a flow starts, not where it stays: 1030
    # rounds are plans of 64, 128, 384 and the 454 left (17 plans of 64 before)
    del plan_log[:]
    default = run_backlog("hybrid", (256 * MIB,))
    assert [cap for _ctl, cap, _n, _cut in plan_log] == [64, 128, 384, 1152]
    assert default["conn"].rounds == default["conn"].fluid.epoch_rounds == 1030


#: when the cut lands, per number of flows on the NIC: inside a plan whose
#: bound has grown at least twice (and, for the FIN, while the closing flow's
#: own round is the one in flight)
CUT_AT = {1: 0.3, 2: 0.614, 3: 0.9}
#: for the cut by ``send``: the full windows of a first send that a grown
#: plan drains, and how long after it the second send is queued — while that
#: plan is live
SEND_BEHIND = {1: (25, 0.3), 2: (25, 0.614), 3: (15, 0.6)}
GROWN = [(4, 4, False), (8, 8, False)]

#: what cuts the grown plan: (the reason logged, run_scenario arguments as a
#: function of the instant, the script of the flow bringing the cut as a
#: function of the instant and k, whether that flow replaces the last
#: incumbent, and the sole incumbent's plans from the cut one on (k = 1))
CUTS = {
    "degrade-bandwidth": (
        "degrade", lambda at: dict(degrades=[(at, dict(bandwidth=6_000_000.0))]), None, False,
        [(24, 7, True), (14, 14, False), (42, 5, False)]),
    "degrade-latency": (
        "degrade", lambda at: dict(degrades=[(at, dict(latency=5e-4))]), None, False,
        [(24, 7, True), (14, 14, False), (42, 5, False)]),
    # the SYN cuts, the first data behind the handshake cuts again one round
    # on; the last plan of 12 leaves one round, a plan of its own
    "late-syn": (
        "nic-contention", None, lambda at, k: flow(300_000, start=at, connect="late"), False,
        [(24, 7, True), (14, 1, True), (2, 2, False), (6, 3, False), (12, 12, False),
         (36, 1, False)]),
    # the plan with the joiner ends at the joiner's own first bound of 4
    "joiner": (
        "flow-join", None, lambda at, k: flow(300_000, start=at), False,
        [(24, 7, True), (14, 3, False), (20, 16, False)]),
    "send": (
        "send", None,
        lambda at, k: flow(RAMP + SEND_BEHIND[k][0] * WINDOW, 2 * MIB, gap=SEND_BEHIND[k][1]), True,
        [(24, 7, True), (14, 14, False), (42, 7, False)]),
    "close": ("close", None, lambda at, k: flow(8 * MIB, close_at=at), True, [(24, 7, True)]),
    "hangup": (
        "peer-close", None, lambda at, k: flow(8 * MIB, hangup_at=at), True, [(24, 7, True)]),
    # the latency drops, and the FIN sent right behind the round in flight
    # overtakes the tail of the batch the cut committed: the dissolve path
    "fin-overtakes-batch": (
        "degrade", lambda at: dict(latency=2e-3, degrades=[(at, dict(latency=3e-4))]),
        lambda at, k: flow(8 * MIB, close_at=at + 0.0005), True, [(24, 7, True)]),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("what", sorted(CUTS))
def test_a_cut_shrinks_the_next_plan_to_twice_what_survived_and_it_grows_back(
    what, k, plan_log
):
    """k flows whose round bounds have grown at least twice (4, 8, then 16
    or more), cut mid-plan for every reason a plan is cut for.  Float-identical
    to packet as ever — and the bound itself is pinned: after a cut that left
    a flow c committed rounds its next plan may lay out 2c, and from there it
    grows back with what the flow commits."""
    reason, extra, script, replaces, sole = CUTS[what]
    at = CUT_AT[k]
    flows = [flow(8 * MIB + 11 * i, fill=ord("a") + 8 * i) for i in range(k)]
    if script is not None:
        flows[-1 if replaces else k:] = [dict(script(at, k), fill=ord("k"))]
    extra = extra(at) if extra is not None else {}
    packet = run_scenario("packet", flows=flows, **extra)
    hybrid = run_scenario("hybrid", flows=flows, policy=EARNED, **extra)
    _assert_flows_equivalent(packet, hybrid, planned=range(len(flows)))
    ends = what in ("close", "hangup", "fin-overtakes-batch")
    # churn deactivates the k flows and a closed one is no longer eligible:
    # each incumbent pumping before the last of them has pumped again (which
    # re-activates it, or retires it) runs that one round on the packet path
    _assert_packet_rounds(hybrid, *[1] * (k - 1 if ends or reason == "degrade" else 0))
    _assert_horizons_follow_the_rule(plan_log, hybrid)
    subject = hybrid["flows"][k - 1]
    assert reason in _reasons(subject["fluid"])
    for res in hybrid["flows"][:k]:
        history = _history(plan_log, res)
        cut = next(i for i, (_cap, _n, unwound) in enumerate(history) if unwound)
        cap, committed, _ = history[cut]
        # grown at least twice when the cut came, and cut mid-plan
        assert cut >= 2 and cap >= 16 and 0 < committed < cap
        if res is subject and ends:
            assert len(history) == cut + 1
        else:
            # twice what survived, whatever the bound was, and re-grown since
            assert history[cut + 1][0] == 2 * committed
            assert res["fluid"]._horizon > 2 * committed
    if k == 1:
        assert _history(plan_log, subject) == GROWN + sole
    if what == "fin-overtakes-batch":
        # the FIN did overtake: the reader was cut off short of what arrived
        peer = subject["peer"]
        assert 0 < subject["received"] < peer.bytes_received == subject["conn"].bytes_sent


FOREIGN_FRAME_EVERY = {"never": None, "every-500ms": 0.5, "every-50ms": 0.05}


@pytest.mark.parametrize("rate", sorted(FOREIGN_FRAME_EVERY))
def test_plan_layout_work_is_amortised_whatever_cuts_the_flow(rate, monkeypatch):
    """The recorded measurement behind ``FluidController._horizon``, machine-
    independent: rounds passed through ``fluid._advance`` — laid out, and
    replayed when a cut needs them — per round the flow sends.  A 256 MiB
    sole sender (1030 rounds) on whose NIC a foreign frame takes the wire
    never / every 0.5 s / every 50 ms: 1.0 / 4.0 / 4.1.  A constant bound of
    64 rounds gave 1.0 / 5.5 / 53.9 (and 17 plans where nothing cuts), no
    bound at all 1.0 / 46.7 / 446 — every cut re-lays the whole rest out.
    These are rounds, not steps: laying a sole sender's run out costs a few
    steps per binade of its pump times, and only a replay steps per round
    (``test_event_budget.py`` pins the steps)."""
    counted = []
    advance = fluid._advance

    def counting(*args):
        n = advance(*args)
        counted.append(n)
        return n

    monkeypatch.setattr(fluid, "_advance", counting)

    def run(fidelity):
        sim, net, a, b, sa, sb = lan_pair(fidelity)
        accepting, connecting = sb.listen(PORT).accept(), sa.connect(b, PORT)
        sim.run()
        conn = connecting.value
        accepting.value.set_data_callback(lambda peer: peer.read_iov())
        every = FOREIGN_FRAME_EVERY[rate]
        if every is not None:
            sim.every(every, net.transmit, a, b, b"not tcp's")
        sim.run(until=conn.send(bytes(256 * MIB)), max_time=600.0)
        return sim.now, conn, net

    packet_end, packet_conn, packet_net = run("packet")
    assert not counted
    hybrid_end, conn, net = run("hybrid")
    assert hybrid_end == packet_end
    assert conn.rounds == packet_conn.rounds == conn.fluid.fluid_rounds == 1030
    assert net.drop_log == packet_net.drop_log
    # the stack drops each foreign frame it is handed; each one cut a plan
    assert ("nic-contention" in _reasons(conn.fluid)) == bool(net.drop_log) == (rate != "never")
    assert 1.0 <= sum(counted) / conn.rounds <= 4.5


def _unit(e):
    """``u`` of the binade ``[2**(e-1), 2**e)``: its doubles' spacing."""
    return math.ldexp(1.0, e - 53)


@st.composite
def _recurrences(draw):
    """Inputs of one ``_advance`` call, biased to where laying out in closed
    form could go wrong: a pump time just below a power of two, zero or tiny
    against the round's wire time; constants that are round-half-even ties
    in the pump time's binade or the next; a NIC still busy at the first
    pump; a ``bound`` that stops a run midway; latency- and wire-bound
    rounds; up to 5,000 rounds."""
    e = draw(st.integers(-12, 8))
    t0 = draw(st.one_of(
        st.floats(math.ldexp(1.0, e - 1), math.ldexp(1.0, e), exclude_max=True),
        st.integers(1, 2000).map(lambda k: math.ldexp(1.0, e) - k * _unit(e)),
        st.sampled_from([0.0, 5e-324, 1e-12]),
    ))
    binade = math.frexp(t0)[1] if t0 > 1e-9 else e

    def constant():
        c = draw(st.floats(0.0, 0.05))
        if draw(st.booleans()):
            # c = (m + 1/2) * u: a tie in t0's binade or the next one
            u = _unit(binade + draw(st.integers(0, 1)))
            c = (math.floor(c / u) + 0.5) * u
        return c

    ser, latency, rc = constant(), constant(), constant()
    rtt = draw(st.sampled_from([2.0 * latency, constant()]))
    tx_free = t0 + draw(st.sampled_from([-1e-3, 0.0, constant()]))
    rx_ready = t0 + draw(st.sampled_from([0.0, constant(), 10.0]))
    count = draw(st.integers(1, 5000))
    step = max(rtt, ser, 1e-9)
    bound = draw(st.sampled_from([math.inf, t0 + draw(st.floats(0.0, 1.2)) * count * step]))
    return rtt, latency, tx_free, t0, rx_ready, count, bound, ser, rc


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_recurrences())
# a first round that leaves the NIC busy at the next pump: it ends at
# tx_free = 0.5 + 2**-53, but its wait, end - 2**-54, and the next pump,
# 2**-54 + wait, are both ties that round down to 0.5
@example((0.0, 0.0, 0.5, 2.0**-54, 0.0, 10, math.inf, 2.0**-53, 0.0))
def test_laying_a_run_out_is_stepping_it(case):
    """Planning (``rounds is None``) jumps over uniform runs in closed form;
    replay steps every round.  Both from the same state must agree on every
    bit: the rounds taken and the recurrence state they leave."""
    rtt, latency, tx_free, t0, rx_ready, count, bound, ser, rc = case

    def advance(rounds):
        plan = SimpleNamespace(rtt=rtt, latency=latency, tx_free=tx_free)
        share = SimpleNamespace(t=t0, rx_ready=rx_ready, t_last=None, end=None)
        n = fluid._advance(plan, share, count, bound, 1, ser, rc, 1, rounds)
        return n, plan.tx_free, share.t, share.t_last, share.rx_ready, share.end

    replayed = []
    planned = advance(None)
    assert planned == advance(replayed)
    assert len(replayed) == planned[0]


def run_joint(fidelity, sizes, offsets=None, latency=None, window=None, first_plan_rounds=None):
    """One send of ``sizes[i]`` bytes on each of ``len(sizes)`` connections
    from host ``a`` to host ``b`` over ``Ethernet100`` (so the flows share
    ``a``'s NIC), send i posted ``offsets[i]`` seconds after *every*
    handshake is done — unlike :func:`run_scenario`, whose flows start from
    their own handshakes, so flows posted together here pump together;
    ``latency`` and the receive ``window`` replace the link's and the
    model's, ``first_plan_rounds`` the hybrid policy's.  Returns, per flow,
    ``(send completion, read completion, rounds)``."""
    sim = Simulator()
    net = Ethernet100(sim)
    if latency is not None:
        net.latency = latency
        net.changed("degrade")
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    model = TcpModel()
    if window is not None:
        model.receive_window = window
    if fidelity == "hybrid" and first_plan_rounds is not None:
        policy = dict(fluid_policy=FluidPolicy(first_plan_rounds=first_plan_rounds))
    else:
        policy = dict(fidelity=fidelity)
    sa, sb = TcpStack(a, model, **policy), TcpStack(b, model, **policy)
    pairs = []
    for port in range(PORT, PORT + len(sizes)):
        accepting, connecting = sb.listen(port).accept(), sa.connect(b, port)
        sim.run()
        pairs.append((connecting.value, accepting.value))
    start = sim.now
    out = []
    for (conn, peer), nbytes, at in zip(pairs, sizes, offsets or [0.0] * len(sizes)):
        sent, read = sim.event(), peer.recv_exact(nbytes)
        sim.call_at(start + at, lambda conn=conn, n=nbytes, ev=sent: conn.send(bytes(n), done=ev))
        when = []
        for ev in (sent, read):
            ev.add_callback(lambda _ev, when=when: when.append(sim.now))
        out.append((when, conn))
    sim.run()
    assert all(peer.bytes_received == n for (_conn, peer), n in zip(pairs, sizes))
    return [(*when, conn.rounds) for when, conn in out]


@pytest.mark.parametrize("rounds", [0, -1])
def test_a_first_plan_of_no_round_is_rejected(rounds):
    """A plan whose first member may lay out no round never ends its merge:
    ``first_plan_rounds`` is at least 1."""
    with pytest.raises(ValueError):
        FluidPolicy(first_plan_rounds=rounds)


def test_a_first_plan_of_one_round_on_a_window_pinned_from_the_start_matches():
    """A receive window equal to the initial window (2 segments) pins the
    flow from its first round, so its first plan is a stretch of one round,
    as long as its cap (a cap of 0 hung the simulator); the plans after it
    grow as the flow earns them, at the packet run's instants."""
    packet = run_joint("packet", [MIB], window=2920)
    hybrid = run_joint("hybrid", [MIB], window=2920, first_plan_rounds=1)
    assert hybrid == packet
    assert packet[0][2] == 360 and packet[0][0] == pytest.approx(0.0887, abs=1e-4)


@st.composite
def _joint_plans(draw):
    """Two or three flows on one NIC: sizes of whole windows or ragged, equal
    or not, the sends posted together, a fraction of a window's wire time
    apart or whole rounds apart, on a wire-bound or an RTT-bound link, and
    first plans of a few rounds — the plans after them grow to 2, 4, 12, ...
    times that, so a member's cap falls inside a rotation of ramps or stretches."""
    k = draw(st.integers(2, 3))
    window = draw(st.sampled_from([WINDOW, 64 * 1024]))
    sizes = [draw(st.integers(6, 40)) * window + draw(st.sampled_from([0, 1, 777, window - 1]))
             for _ in range(k)]
    if draw(st.booleans()):
        # flows in lockstep: on an RTT-bound link their pumps tie round
        # after round, and the rotation must break every tie as the merge does
        sizes = sizes[:1] * k
    # in units of a window's wire time on a 100 Mbit/s link
    spread = draw(st.sampled_from([0.0, 0.2, 3.0])) * window * 8 / 100e6
    offsets = [draw(st.floats(0.0, spread)) for _ in range(k)]
    latency = draw(st.sampled_from([None, 0.03]))
    return sizes, offsets, latency, window, draw(st.integers(1, 12))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_joint_plans())
def test_laying_a_joint_plan_out_is_replaying_it(case):
    """Planning a joint plan books its members' ramps and stretches once
    and rotates them inside ``_advance``; ``materialize`` replays it turn by turn,
    one member at a time.  Right after every plan's construction the replay
    must leave each share's recurrence state and ledger — and the NIC's
    ``tx_free`` — exactly as planning did, and return every round laid out.
    No member lays out more than its cap, and the merge ends only when
    every member drained or the one that took the last turn is at its cap."""
    sizes, offsets, latency, window, first = case
    commit = fluid._NicPlan._commit
    joint = []

    def state(plan):
        return plan.tx_free, [(share.t, share.t_last, share.rx_ready, share.end, share.nrounds,
                               share.nbytes, [list(run) for run in share.runs])
                              for share in plan.shares]

    def replaying(plan, ctl, laid_out, unfinished):
        commit(plan, ctl, laid_out, unfinished)
        planned = state(plan)
        rounds = plan.materialize()
        assert state(plan) == planned
        assert len(rounds) == sum(share.nrounds for share in plan.shares)
        assert all(share.nrounds <= share.cap for share in plan.shares)
        last = rounds[-1][fluid.R_SHARE]
        assert last.nrounds == last.cap or all(share.drained for share in plan.shares)
        joint.append(len(plan.shares) > 1)

    fluid._NicPlan._commit = replaying
    try:
        run_joint("hybrid", sizes, offsets, latency, window, first)
    finally:
        fluid._NicPlan._commit = commit
    assert any(joint)


def test_a_partial_reader_lags_by_at_most_the_last_plans_bytes():
    """The fidelity cost of long plans, stated and bounded: a plan's bytes
    become readable together, so a reader that takes what is there — 8 KB a
    read, each read costing ``read_cost`` — starts on the *last* plan's bytes
    when the packet run's reader is nearly through them, and finishes later
    by at most the time it needs to consume them.  Nothing else moves: the
    sender's completion, and a reader that waits for the whole transfer
    (every other test here), are float-identical."""
    nbytes, piece, read_cost = 64 * MIB, 8192, 1e-6

    def run(fidelity):
        sim, _net, _a, b, sa, sb = lan_pair(fidelity)
        listener = sb.listen(PORT)
        out = {}

        def client():
            conn = out["conn"] = yield sa.connect(b, PORT)
            yield conn.send(bytes(nbytes))
            out["sent"] = sim.now

        def server():
            conn = yield listener.accept()
            got = 0
            while got < nbytes:
                got += len((yield conn.recv(piece, None, True, lambda: read_cost)))
            out["read"] = sim.now

        sim.process(client())
        sim.process(server())
        sim.run(max_time=600.0)
        return out

    packet, hybrid = run("packet"), run("hybrid")
    assert hybrid["sent"] == packet["sent"]
    # 262 rounds: plans of 64, 128 and the last 70, of which 69 full windows
    fl = hybrid["conn"].fluid
    assert (fl.epochs, fl.epoch_rounds) == (3, 262)
    last_plan = nbytes - (RAMP + (64 + 128 - 7) * WINDOW)
    assert 69 * WINDOW < last_plan <= 70 * WINDOW
    lag = hybrid["read"] - packet["read"]
    assert 0.0 < lag <= last_plan / piece * read_cost
    # 2.2 ms on a transfer of 5.67 s (0.16 ms when no plan exceeded 64 rounds)
    assert lag == pytest.approx(2.2e-3, rel=0.05)
    assert packet["read"] == pytest.approx(5.667, rel=1e-3)


# ---------------------------------------------------------------------------
# stream-order integrity: distinct payloads, queued sends, mid-epoch churn
# ---------------------------------------------------------------------------

SEND_SIZES = (1 * MIB, 4096, 4096, 1 * MIB)
SEND_PAYLOAD = b"".join(bytes([ch]) * n for ch, n in zip(b"abcd", SEND_SIZES))


def run_multisend(fidelity, t_inv=None, loss_rate=0.0, clean_at=None, probe=False):
    """Queue four sends with *distinct* contents back-to-back (no awaiting
    between them), so multiple queue entries can complete inside a single
    planned round, and optionally force a fluid invalidation at ``t_inv``
    or make the link lossy (until ``clean_at``, if given).

    Unlike :func:`run_scenario`'s uniform payloads, distinct bytes make any
    reordering of the delivered stream visible.
    """
    sim = Simulator()
    net = Ethernet100(sim)
    net.loss_rate = loss_rate
    net.changed("degrade")
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    sa = TcpStack(a, fidelity=fidelity)
    sb = TcpStack(b, fidelity=fidelity)
    out = {"done": []}
    if probe:
        out["est"] = est = LinkEstimator()
        out["probe"] = PassiveLinkProbe(net, est.update)
    listener = sb.listen(PORT)

    def client():
        conn = yield sa.connect(b, PORT)
        out["conn"] = conn
        for i, (ch, n) in enumerate(zip(b"abcd", SEND_SIZES)):
            ev = conn.send(bytes([ch]) * n)
            ev.add_callback(lambda _ev, i=i: out["done"].append((i, sim.now)))

    def server():
        conn = yield listener.accept()
        data = yield conn.recv_exact(len(SEND_PAYLOAD))
        out["t1"] = sim.now
        out["data"] = bytes(data)

    sim.process(client())
    sim.process(server())
    if t_inv is not None:
        sim.call_at(t_inv, net.changed, "test-churn")
    if clean_at is not None:
        FaultInjector(sim, TopologyKB(), seed=11, announce=False).degrade_link_at(
            clean_at, net, loss_rate=0.0)
    sim.run(max_time=600.0)
    return out


def test_hybrid_preserves_byte_order_across_handoff():
    """Distinct-content sends must arrive in exact stream order.  A plan's
    batch advances the peer's receive cursor when it is handed over, not
    when it is laid out, so a packet-mode frame still in flight at the
    packet->fluid handoff keeps its place ahead of the fluid bytes that
    follow it (an early watermark bump used to push the in-flight frame's
    bytes behind the whole fluid batch).  The handoff is a lossy link
    recovering — a lossy link's rounds are the one thing the packet path
    still runs alone — and there is none on a clean one."""
    packet = run_multisend("packet", loss_rate=2e-3, clean_at=0.1)
    hybrid = run_multisend("hybrid", loss_rate=2e-3, clean_at=0.1)
    assert hybrid["data"] == SEND_PAYLOAD
    assert packet["data"] == SEND_PAYLOAD
    assert hybrid["t1"] == packet["t1"]
    assert hybrid["done"] == packet["done"]
    conn, fl = hybrid["conn"], hybrid["conn"].fluid
    # both sides of the handoff did rounds: the lossy spell's (losses drawn)
    # on the packet path, the rest planned
    assert conn.retransmitted_bytes > 0
    assert 0 < fl.epoch_rounds < conn.rounds == packet["conn"].rounds
    clean = run_multisend("hybrid")
    assert clean["data"] == SEND_PAYLOAD
    assert clean["conn"].fluid.epoch_rounds == clean["conn"].rounds


def test_rollback_splits_sends_completing_in_same_round():
    """Churn cutting an epoch before a round in which *two* queued sends
    complete together: the rollback must attribute each send its own byte
    end offset (a shared per-round offset used to raise IndexError on the
    second completion and reorder the restored bytes)."""
    # 0.044s lands inside the first epoch, before the planned round that
    # finishes both 4 KiB sends (the 1 MiB entry ahead of them keeps that
    # round in the plan's uncommitted suffix).
    packet = run_multisend("packet", t_inv=0.044, probe=True)
    hybrid = run_multisend("hybrid", t_inv=0.044, probe=True)
    assert hybrid["data"] == SEND_PAYLOAD
    assert packet["data"] == SEND_PAYLOAD
    assert hybrid["t1"] == packet["t1"]
    assert hybrid["done"] == packet["done"]
    _assert_probe_equivalent(packet, hybrid)
    fl = hybrid["conn"].fluid
    assert "test-churn" in _reasons(fl)
    # the epoch hit by the invalidation rolled back, and the flow
    # re-fluidized into a fresh epoch afterwards
    assert fl.epochs >= 2


def test_unobserved_epoch_rollback_keeps_obs_counters_clean():
    """With no passive probe attached, an epoch accumulates no
    synthesized observations — its rollback must not rewind the counters
    anyway (they went negative, and a probe attaching before the next
    flush would have received a negative-weight burst report)."""
    hybrid = run_multisend("hybrid", t_inv=0.044)
    fl = hybrid["conn"].fluid
    assert "test-churn" in _reasons(fl)
    assert fl.epochs >= 2
    assert fl._obs_bursts == 0
    assert fl._obs_npkts == 0
    assert fl._obs_nbytes == 0


# ---------------------------------------------------------------------------
# a stuck reader is no criterion: the packet model has no flow control
# ---------------------------------------------------------------------------


def run_backlog(fidelity, sends, posted=None):
    """Awaited ``sends`` a second apart towards a peer that never reads, or
    that parks one ``recv_exact(posted)`` up front: either way the bytes
    pile up in its receive buffer while the sender is still at it."""
    sim, _net, _a, b, sa, sb = lan_pair(fidelity)
    listener = sb.listen(PORT)
    out = {"times": []}

    def client():
        conn = out["conn"] = yield sa.connect(b, PORT)
        for n in sends:
            # zero pages nobody reads: the backlog costs no resident memory
            yield conn.send(bytes(n))
            out["times"].append(sim.now)
            yield sim.timeout(1.0)

    def server():
        conn = out["peer"] = yield listener.accept()
        if posted is not None:
            got = yield conn.recv_exact(posted, None, True)  # by reference
            out["read"] = (sim.now, len(got))

    sim.process(client())
    sim.process(server())
    sim.run(max_time=600.0)
    return out


@pytest.mark.parametrize(
    "sends, posted, plans",
    [
        # 24 MiB nobody ever reads: 96 receive windows of backlog
        ((8 * MIB, 12 * MIB, 4 * MIB), None, [1, 1, 1]),
        # the reader of a staged file: one exact read of all 64 MiB, parked
        # from the start.  262 rounds, plans of 64, 128 and the 70 left
        ((64 * MIB,), 64 * MIB, [3]),
    ],
    ids=["never-reads", "parked-on-one-exact-read"],
)
def test_a_stuck_reader_does_not_demote_its_sender(sends, posted, plans):
    """Whatever piles up at the receiver changes no byte and no instant of
    the sender's rounds, so it is no reason to leave the fluid planner (a
    backlog of 64 windows used to be one: ``conditions-changed`` after 192
    of the 262 rounds of the 64 MiB transfer, the rest on the packet path,
    at the very same instants)."""
    packet = run_backlog("packet", sends, posted)
    hybrid = run_backlog("hybrid", sends, posted)
    assert hybrid["times"] == packet["times"] and len(hybrid["times"]) == len(sends)
    assert hybrid.get("read") == packet.get("read")
    unread = 0 if posted else sum(sends)
    assert hybrid["peer"].available() == packet["peer"].available() == unread
    assert hybrid["peer"].bytes_received == packet["peer"].bytes_received == sum(sends)
    assert hybrid["conn"].bytes_sent == packet["conn"].bytes_sent
    assert hybrid["conn"].rounds == packet["conn"].rounds
    fl = hybrid["conn"].fluid
    assert fl.active and fl.activations == 1
    assert _reasons(fl) == []
    # every round planned, in as few plans as the flow's history allows
    assert fl.epoch_rounds == fl.fluid_rounds == hybrid["conn"].rounds
    assert fl.epochs == sum(plans)


# ---------------------------------------------------------------------------
# partition boundary: cross-shard flows never fluidize
# ---------------------------------------------------------------------------


def test_cross_partition_flow_stays_packet():
    sim = Simulator(partitions=2)
    wan = WanVthd(sim, "wan-fluid")
    a, b = Host(sim, "a"), Host(sim, "b")
    b.partition = 1
    wan.connect(a)
    wan.connect(b)
    sa = TcpStack(a, fidelity="hybrid")
    sb = TcpStack(b, fidelity="hybrid")
    listener = sb.listen(PORT)
    out = {}
    nbytes = 2 * MIB

    def client():
        conn = yield sa.connect(b, PORT)
        out["conn"] = conn
        yield conn.send(b"x" * nbytes)

    def server():
        conn = yield listener.accept()
        data = yield conn.recv_exact(nbytes)
        out["ok"] = data == b"x" * nbytes

    with sim.in_partition(0):
        sim.process(client())
    with sim.in_partition(1):
        sim.process(server())
    sim.run(max_time=600.0)
    assert out["ok"]
    fl = out["conn"].fluid
    assert fl.activations == 0
    assert fl.fluid_rounds == 0


# ---------------------------------------------------------------------------
# ledger unit coverage
# ---------------------------------------------------------------------------


class _StubController:
    def __init__(self, conn):
        self.conn = conn
        self.active = False
        self.invalidated = []
        self.invalidations = []

    def invalidate(self, reason):
        self.invalidated.append(reason)


class _StubPlan:
    def __init__(self):
        self.cuts = []

    def cut(self, reason=None):
        self.cuts.append(reason)


class _StubConn:
    def __init__(self, host):
        self.host = host
        self.sim = host.sim
        self._fluid = _StubController(self)


def _stub_conn(host):
    return _StubConn(host)


def test_ledger_membership():
    sim = Simulator()
    net = Ethernet100(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    ledger = ledger_for(net)
    assert ledger is net.fluid_ledger
    assert ledger_for(net) is ledger  # lazily created once

    c1, c2, c3 = _stub_conn(a), _stub_conn(a), _stub_conn(b)
    ledger.join(c1)
    assert not ledger.co_senders(c1)
    ledger.join(c2)
    assert ledger.co_senders(c1) == [c2]
    assert ledger.co_senders(c2) == [c1]
    # a sender on the *other* host does not contend with c1's NIC
    ledger.join(c3)
    assert ledger.co_senders(c1) == [c2]
    assert not ledger.co_senders(c3)
    # the fluid flows a leaver leaves behind on its NIC log the change
    c1._fluid.active = c3._fluid.active = True
    ledger.leave(c2)
    assert not ledger.co_senders(c1)
    assert c1._fluid.invalidations == [(0.0, "flow-leave")]
    assert c3._fluid.invalidations == []
    ledger.leave(c1)
    ledger.leave(c3)
    assert not ledger._senders
    # idempotent: leaving twice or before joining is a no-op
    ledger.leave(c1)


def test_ledger_join_cuts_the_plan_on_that_nic_only():
    sim = Simulator()
    net = Ethernet100(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    ledger = ledger_for(net)
    ca, cb = _stub_conn(a), _stub_conn(b)
    fa, fb = _StubController(ca), _StubController(cb)
    ledger.join(ca)
    ledger.join(cb)
    ledger.register_fluid(fa)
    ledger.register_fluid(fb)
    pa, pb = _StubPlan(), _StubPlan()
    net.nic_of(a)._fluid_holder = pa
    net.nic_of(b)._fluid_holder = pb
    # a new sender on host a re-cuts the plan on a's NIC — nobody is demoted
    ledger.join(_stub_conn(a))
    assert pa.cuts == ["flow-join"]
    assert pb.cuts == []
    assert fa.invalidated == fb.invalidated == []
    # a sender draining disturbs nothing: plans lay a member's exit out
    ledger.leave(ca)
    assert pa.cuts == ["flow-join"]
    # foreign traffic on a NIC cuts its plan before taking the wire
    net.nic_of(b).reserve_tx(0.0, 1e-6)
    assert pb.cuts == ["nic-contention"]
    # a full-link invalidation (churn) demotes everyone, in registration order
    net.changed("degrade")
    assert fa.invalidated == fb.invalidated == ["degrade"]


# ---------------------------------------------------------------------------
# batched estimator updates (the probe-side half of the fidelity contract)
# ---------------------------------------------------------------------------


def test_sliding_window_batch_update_is_bit_exact():
    seq = SlidingWindowEstimator(window=32)
    bat = SlidingWindowEstimator(window=32)
    for v, n in [(0.0, 5), (0.25, 1), (0.0, 40), (0.1, 3)]:
        for _ in range(n):
            seq.update(v)
        bat.update_many(v, n)
    assert bat.samples == seq.samples
    assert bat.mean() == seq.mean()
    assert list(bat._values) == list(seq._values)


def test_ewma_batch_update_matches_sequential():
    seq = EwmaEstimator(alpha=0.25)
    bat = EwmaEstimator(alpha=0.25)
    for v, n in [(10.0, 1), (12.0, 7), (9.0, 32), (12.5, 2)]:
        for _ in range(n):
            seq.update(v)
        bat.update_many(v, n)
    assert bat.samples == seq.samples
    assert bat.value == pytest.approx(seq.value, rel=1e-12)


# ---------------------------------------------------------------------------
# analytics + knobs
# ---------------------------------------------------------------------------


def test_steady_state_rate_closed_form():
    sim = Simulator()
    net = Ethernet100(sim)
    rwnd = 256 * 1024
    rate = steady_state_rate(net, 10**9, rwnd)
    # serialization-bound on a 100 Mb LAN: rate = window / ser(window)
    assert rate == pytest.approx(rwnd / net.serialization_time(rwnd))
    # two flows sharing the NIC halve the serialization-bound rate
    assert steady_state_rate(net, 10**9, rwnd, nflows=2) == pytest.approx(rate / 2)
    # tiny windows are latency-bound instead
    small = steady_state_rate(net, 1024, rwnd)
    assert small == pytest.approx(1024 / (2 * net.latency))
    assert steady_state_rate(net, 0, rwnd) == 0.0


def test_fidelity_knob_validation():
    sim = Simulator()
    net = Ethernet100(sim)
    a = Host(sim, "a")
    net.connect(a)
    with pytest.raises(ValueError):
        TcpStack(a, fidelity="bogus")
    stack = TcpStack(a, fluid_policy=FluidPolicy(first_plan_rounds=4))
    assert stack.fidelity == "hybrid"
    assert stack.fluid_policy.first_plan_rounds == 4
    assert TcpStack(Host(sim, "b")).fluid_policy is None


def test_framework_fidelity_knob_reaches_stacks():
    with pytest.raises(FrameworkError):
        PadicoFramework(fidelity="fluid-only")
    fw = PadicoFramework(fidelity="hybrid")
    fw.add_host("a")
    fw.add_network(Ethernet100(fw.sim)).connect(fw.host("a"))
    node = fw.boot(["a"])[0]
    assert node.tcp.fidelity == "hybrid"
    fw2 = PadicoFramework()
    assert fw2.fidelity == "packet"
