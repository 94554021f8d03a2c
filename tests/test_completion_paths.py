"""Ordering and failure paths of the one-completion rule.

A delayed trigger runs its callbacks in its timer's ``(when, seq)`` slot and
a layer completes the operation handed down to it.  Two things must survive
that: every kernel orders any mix of triggers identically (a randomized
differential test at colliding timestamps), and an operation handed down to
a connection still completes exactly once, with what it got before, when the
connection dies under it.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abstraction.drivers import StreamBuffer
from repro.abstraction.vlink import VLinkOperation, VLinkState
from repro.core import PadicoFramework, paper_cluster
from repro.monitoring.churn import poisson_thinning_times
from repro.simnet.engine import Interrupt, ReferenceSimulator, Simulator
from repro.simnet.networks import Ethernet100, WanVthd
from repro.simnet.tcp import TcpError

from helpers import run

# ---------------------------------------------------------------------------
# ordering: Simulator == ReferenceSimulator == partitions=2
# ---------------------------------------------------------------------------

KINDS = ("delayed-succeed", "delayed-fail", "timeout", "callback", "succeed")
GRID = 1e-3  # tie spacing: arrivals and delays are multiples of it


def arrival_times(seed: int, spacing: str, count: int):
    """``count`` arrival offsets from a Lewis–Shedler thinning schedule (the
    churn generator's), quantised so that they collide: exactly (``tie``), to
    within an ulp either side (``near-tie``), or not at all (``spread``)."""
    rng = random.Random(seed)
    times = []
    while len(times) < count:
        times += poisson_thinning_times(
            rng, lambda t: 300.0 * (1.0 + math.sin(40.0 * t)), 0.05, 600.0
        )
    times = times[:count]
    if spacing == "spread":
        return times
    ticks = [max(1, round(t / (4 * GRID))) * 4 * GRID for t in times]
    if spacing == "tie":
        return ticks
    return [math.nextafter(t, rng.choice((0.0, 1.0))) if rng.random() < 0.5 else t for t in ticks]


def run_mix(sim, times, actions, nparts=2):
    """Schedule the mix (action ``i`` in partition ``i % nparts``) and return
    each partition's trace of ``(time, what)``."""
    traces = [[] for _ in range(nparts)]

    def note(part, what):
        traces[part].append((sim.now, what))

    def completed(part, label, ev):
        note(part, f"{label}:{'ok' if ev.ok else type(ev.value).__name__}")
        # a completion that schedules: its follow-up takes the next seq of
        # whichever slot the callbacks ran in
        sim.call_later(0.0, note, part, f"{label}:after")

    def act(part, label, kind, ticks):
        note(part, f"{label}:post")
        delay = ticks * GRID
        if kind == "callback":
            sim.call_later(delay, note, part, f"{label}:ok")
            return
        ev = sim.timeout(delay, name=label) if kind == "timeout" else sim.event(name=label)
        ev.add_callback(lambda e: completed(part, label, e))
        if kind == "delayed-succeed":
            ev.succeed(label, delay=delay)
        elif kind == "delayed-fail":
            ev.fail(KeyError(label), delay=delay)
        elif kind == "succeed":
            ev.succeed(label)

    for index, (when, (kind, ticks)) in enumerate(zip(times, actions)):
        part = index % nparts
        with sim.in_partition(part):
            sim.call_at(when, act, part, f"{kind}#{index}", kind, ticks)
    sim.run()
    return traces


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    spacing=st.sampled_from(["tie", "near-tie", "spread"]),
    actions=st.lists(
        st.tuples(st.sampled_from(KINDS), st.integers(min_value=0, max_value=8)),
        min_size=2,
        max_size=48,
    ),
)
def test_every_kernel_orders_a_mix_of_triggers_identically(seed, spacing, actions):
    times = arrival_times(seed, spacing, len(actions))
    wheel = run_mix(Simulator(), times, actions)
    assert run_mix(ReferenceSimulator(), times, actions) == wheel
    assert run_mix(Simulator(partitions=2, lookahead=0.01), times, actions) == wheel
    # nothing was lost: every action posted and completed, in time order
    for trace in wheel:
        assert [t for t, _ in trace] == sorted(t for t, _ in trace)
    done = [what for trace in wheel for _, what in trace if not what.endswith((":post", ":after"))]
    assert len(done) == len(actions)


# ---------------------------------------------------------------------------
# failure paths: a handed-down operation completes exactly once
# ---------------------------------------------------------------------------


def outcomes_of(op):
    """Every time ``op``'s callbacks run: ``("ok", value)`` or the failure's type."""
    seen = []
    op.add_callback(lambda ev: seen.append(("ok", ev.value) if ev.ok else type(ev.value)))
    return seen


def sysio_pair(port=4300):
    fw, group = paper_cluster(2)
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    accepting = n1.vlink_listen(port).accept()
    connecting = n0.vlink_connect(n1, port, method="sysio")
    fw.sim.run()
    return fw, connecting.value, accepting.value


@pytest.mark.parametrize("buffered", [b"", b"half"])
@pytest.mark.parametrize("closer", ["active close", "FIN"])
def test_read_pending_when_the_tcp_connection_closes(closer, buffered):
    fw, client, server = sysio_pair()
    if buffered:
        client.write(buffered)
        fw.sim.run()
    op = server.read(64)  # exact: stays pending behind the short buffer
    seen = outcomes_of(op)
    fw.sim.run()
    assert seen == []
    (server if closer == "active close" else client).close()
    fw.sim.run()
    if buffered:
        assert seen == [("ok", buffered)]
        assert server.bytes_read == len(buffered)
    else:
        assert len(seen) == 1 and issubclass(seen[0], ConnectionError)
        assert server.bytes_read == 0
    assert op.processed and fw.sim.pending_count() == 0


def test_read_on_a_closed_connection_still_pays_its_dispatch():
    fw, client, server = sysio_pair()
    client.close()
    fw.sim.run()
    sysio = server.conn.sysio
    dispatches, t0 = sysio.dispatches, fw.sim.now
    assert server.state is VLinkState.ESTABLISHED  # nobody told the descriptor
    op = server.read(1)
    seen = outcomes_of(op)
    assert not op.triggered  # the failure is charged the dispatch delay too
    fw.sim.run()
    assert len(seen) == 1 and issubclass(seen[0], ConnectionError)
    assert fw.sim.now == t0 + sysio.core.dispatch_cost("sysio")
    assert sysio.dispatches == dispatches + 1


def test_read_pending_at_relay_teardown_fails_once_at_both_ends():
    fw = PadicoFramework()
    edge, gw, remote = fw.add_host("edge"), fw.add_host("gw"), fw.add_host("remote")
    lan = fw.add_network(Ethernet100(fw.sim, "lan"))
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    lan.connect(edge), lan.connect(gw)
    wan.connect(gw), wan.connect(remote)
    fw.boot()
    listener = fw.node("remote").vlink_listen(8600)
    relay = fw.node("gw").gateway_relay
    seen = {}

    def scenario():
        accepting = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 8600)
        server = yield accepting
        client.write(b"through the splice")
        assert (yield server.read(18)) == b"through the splice"
        seen["server"] = outcomes_of(server.read(1))
        seen["client"] = outcomes_of(client.read(1))
        relay.shutdown()
        yield fw.sim.timeout(0.5)

    run(fw, scenario(), max_time=300)
    for end in ("server", "client"):
        assert len(seen[end]) == 1 and issubclass(seen[end][0], ConnectionError)
    assert relay.sessions() == []


@pytest.mark.parametrize("buffered", [b"", b"xy"])
def test_read_pending_at_stream_buffer_close(buffered):
    sim = Simulator()
    buf = StreamBuffer(sim)
    buf.append(buffered)
    op = VLinkOperation(sim, "read")
    seen = outcomes_of(op)
    assert buf.recv_exact(8, done=op) is op
    buf.close()
    sim.run()
    assert seen == ([("ok", buffered)] if buffered else [ConnectionError])
    # and one posted after the close
    late = VLinkOperation(sim, "read")
    seen = outcomes_of(late)
    assert buf.recv(8, done=late) is late
    sim.run()
    assert seen == [ConnectionError]


# -- a read posted after the close: what is buffered, at once, never a hang -----


@pytest.mark.parametrize("gather", [False, True])
def test_exact_read_posted_after_stream_buffer_close_completes_short(gather):
    sim = Simulator()
    buf = StreamBuffer(sim)
    buf.append(b"abc")
    buf.close()
    # 0 < buffered < nbytes: this read used to be parked for ever, while the
    # same read posted before the close completed short
    seen = outcomes_of(buf.recv_exact(10, gather=gather))
    after = outcomes_of(buf.recv_exact(10, gather=gather))
    sim.run()
    assert seen == [("ok", b"abc")] and after == [ConnectionError]
    assert sim.pending_count() == 0 and buf.available() == 0


@pytest.mark.parametrize("closer", ["active close", "FIN"])
def test_exact_read_posted_after_the_tcp_close_completes_short(closer):
    fw, client, server = sysio_pair()
    client.write(b"half")
    fw.sim.run()
    tcp = server.conn.conn
    (tcp if closer == "active close" else client).close()
    fw.sim.run()
    assert tcp.closed and tcp.available() == 4
    seen = outcomes_of(tcp.recv_exact(64))
    after = outcomes_of(tcp.recv(64))
    fw.sim.run()
    assert seen == [("ok", b"half")]
    assert len(after) == 1 and issubclass(after[0], TcpError)
    assert fw.sim.pending_count() == 0


def test_handed_down_read_posted_after_fin_completes_short_one_dispatch_later():
    """The same, through VLink -> SysIO: the caller's own operation is the
    one completed, and the short completion pays ``charge`` like any other."""
    fw, client, server = sysio_pair()
    client.write(b"half")
    fw.sim.run()
    client.close()
    fw.sim.run()
    sysio = server.conn.sysio
    dispatches, t0 = sysio.dispatches, fw.sim.now
    op = VLinkOperation(fw.sim, "read")
    seen = outcomes_of(op)
    assert server.read(64, done=op) is op and not op.triggered
    fw.sim.run()
    assert seen == [("ok", b"half")] and server.bytes_read == 4
    assert fw.sim.now == t0 + sysio.core.dispatch_cost("sysio")
    assert sysio.dispatches == dispatches + 1
    assert op.processed and fw.sim.pending_count() == 0


def test_interrupt_while_waiting_on_a_handed_down_read_resumes_once():
    """The read's trigger is already on the timer queue (bytes handed over,
    dispatch delay running) when the waiting process is interrupted: the
    trigger must complete the operation without re-entering the generator."""
    fw, client, server = sysio_pair()
    steps = []

    def reader():
        op = server.read(4)
        steps.append(op)
        try:
            data = yield op
            steps.append(("read", data))
        except Interrupt as intr:
            steps.append(("interrupted", intr.cause, op.triggered))
        yield fw.sim.timeout(1.0)
        steps.append(("slept", op.value))

    proc = fw.sim.process(reader())
    client.write(b"data")
    tcp = server.conn.conn
    # stop right after TCP handed the bytes to the read, before its dispatch
    # delay has elapsed
    while not tcp.bytes_received:
        assert fw.sim.step()
    op = steps[0]
    assert not op.triggered and tcp.available() == 0
    proc.interrupt("stop")
    fw.sim.run(until=proc, max_time=10.0)
    assert steps[1:] == [("interrupted", "stop", False), ("slept", b"data")]
    assert op.processed and server.bytes_read == 4
