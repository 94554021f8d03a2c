"""The event budget: engine events and timers per operation, exactly.

One asynchronous operation is one completion event, fired once: a layer
completes the operation its caller handed down (``done=``) instead of
chaining an event of its own onto the layer's below, and a delayed trigger
is one loop entry.  These are the deterministic work counters that hold that
rule in tier-1 — the same on any machine, so a layer that re-grows a hop
fails here rather than in a wall-clock gate.  Each budget is committed next
to what the same operation cost before the rule (PR 14), and each completion
instant is checked against its closed form, so removing a hop can never move
model time.

Counts are everything the loop ran between posting the operation and
quiescence (or, for the middleware round trips, between two points of the
driving process): the network's own timers (pump, frame arrival, receive
append) are part of an operation's budget.

The bulk-TCP section holds the fluid planner to the same standard, per
transfer instead of per operation: at hybrid fidelity an 8 MiB stream on a
clean link is a handful of events whatever its length, at the packet run's
completion instants, and a staged file (awaited 64 MiB sends) costs as few
plans as its flow has earned — plans, events, timers, the planner's Python
calls and the rounds it steps one by one exact, and events per delivered
MiB.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import inspect
import pstats
import random
import sys
from pathlib import Path

import pytest

import repro
from repro.abstraction.circuit import CIRCUIT_LAYER_OVERHEAD
from repro.abstraction.common import CROSS_PARADIGM_STREAM_OVERHEAD, VLINK_LAYER_OVERHEAD
from repro.arbitration.madio import DEMUX_OVERHEAD
from repro.core import PadicoFramework, paper_cluster
from repro.madeleine.message import segment_overhead
from repro.monitoring.probes import LOOKAHEAD
from repro.simnet import fluid
from repro.simnet.buffers import Gather, StreamBuffer
from repro.simnet.engine import Simulator
from repro.simnet.host import Host, HostGroup
from repro.simnet.networks import Ethernet100, WanVthd, grid_deployment
from repro.simnet.tcp import TcpStack

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import stack  # noqa: E402 - perfbench's ladder is the transport

PAYLOAD = b"8 bytes!"


class Window:
    """Events and timers the loop spends between ``__init__`` and ``close``."""

    def __init__(self, sim):
        self.sim = sim
        self.t0 = sim.now
        self._before = sim.stats()

    def close(self):
        after = self.sim.stats()
        return (
            after.events_processed - self._before.events_processed,
            after.timers_scheduled - self._before.timers_scheduled,
        )


def completion_time(op):
    """Stamp the instant ``op``'s callbacks run."""
    seen = []
    op.add_callback(lambda ev: seen.append(ev.sim.now))
    return seen


class _FrameTap:
    """A stand-in passive probe that keeps the frames a link carries."""

    def __init__(self):
        self.frames = []

    def frame(self, frame):
        self.frames.append(frame)

    def burst(self, *args):
        pass

    def loss(self, nbytes):
        pass


def frames_of(network):
    tap = network.probe = _FrameTap()
    return tap.frames


def vlink_pair(method, port=4100):
    """An established VLink over ``method`` on the paper's two-node cluster,
    with the loop drained: ``(fw, client, server)``."""
    fw, group = paper_cluster(2)
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    dst = n0 if method == "loopback" else n1
    accepting = dst.vlink_listen(port).accept()
    connecting = n0.vlink_connect(dst, port, method=method)
    fw.sim.run()
    assert connecting.value.driver_name == method
    return fw, connecting.value, accepting.value


# -- VLink over SysIO/TCP: the stream path of every deployment ------------------


def test_vlink_write_over_sysio_is_four_events_and_lands_at_the_last_bytes_arrival():
    fw, client, server = vlink_pair("sysio")
    tcp = client.conn.conn
    frames = frames_of(tcp.network)
    window = Window(fw.sim)
    op = client.write(PAYLOAD)
    done_at = completion_time(op)
    fw.sim.run()
    # pump, frame arrival, receive append, and the send completion — whose
    # timer fires the operation itself (6 events before: + tcp-send event,
    # + VLinkOperation through .chain())
    assert window.close() == (4, 4)
    assert op.value == len(PAYLOAD)
    (frame,) = frames
    assert done_at == [frame.meta["arrival"]]
    cpu = tcp.host.cpu
    send_cost = cpu.syscall_overhead + len(PAYLOAD) / cpu.memcpy_bandwidth
    assert done_at[0] == pytest.approx(
        window.t0 + send_cost + tcp.network.one_way_time(len(PAYLOAD)), rel=1e-12
    )
    assert server.available() == len(PAYLOAD)


def test_vlink_read_over_sysio_is_one_event_one_dispatch_cost_after_the_bytes_are_ready():
    fw, client, server = vlink_pair("sysio")
    sysio = server.conn.sysio
    client.write(PAYLOAD)
    fw.sim.run()
    dispatches = sysio.dispatches

    # bytes already buffered: the read is its dispatch-delay trigger, nothing
    # else (4 events before: tcp-recv, the delay timer, sysio-read, the op)
    window = Window(fw.sim)
    op = server.read(len(PAYLOAD))
    done_at = completion_time(op)
    fw.sim.run()
    assert window.close() == (1, 1)
    assert op.value == PAYLOAD and server.bytes_read == len(PAYLOAD)
    assert done_at == [window.t0 + sysio.core.dispatch_cost("sysio")]
    assert sysio.dispatches == dispatches + 1

    # read posted first: it completes one dispatch cost after the instant
    # TCP appends the bytes (10 events before for the pair)
    window = Window(fw.sim)
    op = server.read(len(PAYLOAD))
    done_at = completion_time(op)
    client.write(PAYLOAD)
    fw.sim.run()
    assert window.close() == (5, 5)
    ready = server.conn.conn._last_rx_ready
    assert done_at == [ready + sysio.core.dispatch_cost("sysio")]
    assert sysio.dispatches == dispatches + 2


# -- VLink over MadIO: the cross-paradigm stream of the Myrinet cluster -----------


def test_vlink_over_madio_write_is_its_local_completion_and_read_is_arrival_plus_receive_cost():
    fw, client, server = vlink_pair("madio")
    driver = client.conn.driver
    frames = frames_of(driver.network)

    window = Window(fw.sim)
    read = server.read(len(PAYLOAD))
    write = client.write(PAYLOAD)
    read_at, write_at = completion_time(read), completion_time(write)
    fw.sim.run()
    # frame arrival, stream append, the write's delayed trigger, the read
    # (7 events before: + mad-send event, + write op, + stream-read event)
    assert window.close() == (4, 3)
    assert read.value == PAYLOAD
    (frame,) = frames
    # local completion: the send-side cost has elapsed, the frame leaves
    assert write_at == [frame.meta["tx_begin"]]
    costs = driver.madio.driver.costs
    nsegs = frame.meta["segments"]
    receive_cost = (
        costs.recv_overhead
        + costs.per_segment_overhead * nsegs
        + (frame.nbytes - segment_overhead(nsegs)) / costs.pipeline_copy_bandwidth
        + server.conn.driver.madio.core.dispatch_cost("madio")
        + DEMUX_OVERHEAD
        + VLINK_LAYER_OVERHEAD
        + CROSS_PARADIGM_STREAM_OVERHEAD
    )
    assert read_at == [pytest.approx(frame.meta["arrival"] + receive_cost, rel=1e-12)]

    # the two halves on their own
    window = Window(fw.sim)
    client.write(PAYLOAD)
    fw.sim.run()
    assert window.close() == (3, 3)  # 5 before
    window = Window(fw.sim)
    server.read(len(PAYLOAD))
    fw.sim.run()
    assert window.close() == (1, 0)  # 2 before


def test_loopback_pipe_write_and_read_complete_together_after_the_copy():
    fw, client, server = vlink_pair("loopback")
    window = Window(fw.sim)
    read = server.read(len(PAYLOAD))
    write = client.write(PAYLOAD)
    read_at, write_at = completion_time(read), completion_time(write)
    fw.sim.run()
    # the append, the write's delayed trigger, the read (6 events before)
    assert window.close() == (3, 2)
    pipe = client.conn
    driver = pipe.driver
    copy = driver.per_message_overhead + len(PAYLOAD) / driver.host.cpu.memcpy_bandwidth
    assert read_at == write_at == [window.t0 + copy]
    assert (read.value, write.value) == (PAYLOAD, len(PAYLOAD))


@pytest.mark.parametrize(
    "method, budget", [("sysio", (1, 1)), ("madio", (1, 0)), ("loopback", (1, 0))]
)
def test_a_gathered_read_costs_what_the_flat_read_costs(method, budget):
    """``gather=True`` changes the type of a read's value, nothing else: the
    same events and timers, the same completion instant after posting."""
    fw, client, server = vlink_pair(method)
    seen = []
    for gather in (False, True):
        client.write(Gather((b"head", PAYLOAD)))
        fw.sim.run()
        window = Window(fw.sim)
        op = server.read(4 + len(PAYLOAD), gather=gather)
        done_at = completion_time(op)
        fw.sim.run()
        seen.append((window.close(), bytes(op.value), done_at[0] - window.t0))
        assert type(op.value) is (Gather if gather else bytes)
    assert seen[0][:2] == seen[1][:2] == (budget, b"head" + PAYLOAD)
    assert seen[0][2] == pytest.approx(seen[1][2], rel=1e-9)
    assert server.bytes_read == 2 * (4 + len(PAYLOAD))


# -- bulk TCP at hybrid fidelity: a transfer's budget, not a round's ---------------------


@contextlib.contextmanager
def fluid_calls():
    """Count Python calls into ``simnet/fluid.py``: ``sys.setprofile``'s
    ``call`` events of code compiled from that file, comprehensions left
    out (Python 3.12 inlines them into their function).  Puts the previous
    profiler back.  Yields a one-element list holding the count."""
    filename = fluid.__file__
    inlined = {"<listcomp>", "<dictcomp>", "<setcomp>"}
    calls = [0]

    def count(frame, event, arg):
        if (event == "call" and frame.f_code.co_filename == filename
                and frame.f_code.co_name not in inlined):
            calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        yield calls
    finally:
        sys.setprofile(previous)


def bulk_tcp(fidelity, nflows, nbytes=8 * 1024 * 1024):
    """``nflows`` connections from one host to another over ``Ethernet100``,
    established and drained; then ``nbytes`` sent on each at once.  Returns
    ``((events, timers), instants, calls)`` of the transfers: what the loop
    ran from the sends to quiescence, when each send completed and each
    reader had its bytes, and the Python calls into the fluid planner the
    run made (:func:`fluid_calls`)."""
    sim = Simulator()
    net = Ethernet100(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    sa, sb = TcpStack(a, fidelity=fidelity), TcpStack(b, fidelity=fidelity)
    pairs = []
    for port in range(5000, 5000 + nflows):
        accepting = sb.listen(port).accept()
        connecting = sa.connect(b, port)
        sim.run()
        pairs.append((connecting.value, accepting.value))
    payload = bytes(nbytes)
    window = Window(sim)
    instants = []
    for conn, peer in pairs:
        instants.append(completion_time(conn.send(payload)))
        instants.append(completion_time(peer.recv_exact(nbytes)))
    with fluid_calls() as calls:
        sim.run()
    assert all(conn.rounds == 38 for conn, _peer in pairs)
    return window.close(), instants, calls[0]


@pytest.mark.parametrize(
    "nflows, packet_budget, budget, calls",
    [
        # per flow, packet: 38 rounds of pump, frame arrival and receive
        # append, the send's completion, one read.  Hybrid: the first pump
        # lays out all 38 (7 of slow start, 30 full windows, the rest), then
        # the batched delivery, the send's completion, the drained pump, the
        # read — 5 events, 4 timers, whatever the transfer's length.  When
        # a flow had to show 8 zero-loss packet rounds with its window
        # pinned before a plan would take it (PR 17): (29, 28) and (57, 56).
        # The planner's calls: the ramp and the stretch booked in one turn
        # and laid out by one `_advance` call, the completion round, the
        # plan's set-up and wind-down (44 when each of the 7 slow-start
        # rounds was a turn of the merge of its own).
        (1, (116, 115), (5, 4), 23),
        # two flows on the NIC: one joint plan, laid out by the pump that
        # runs first — the other flow's pending one is cancelled unrun.
        # Their 74 booked rounds, ramps and stretches, a turn each, rotate
        # inside 3 `_advance` calls; the 2 completion rounds remain turns
        # of the merge (82 when the 14 slow-start rounds were turns of the
        # merge, 194 when every pinned turn was one too)
        (2, (232, 230), (9, 8), 40),
        # 111 booked rounds in 5 calls (123 with the ramps turn by turn,
        # 290 with every round a turn)
        (3, (348, 345), (13, 12), 60),
    ],
    ids=["sole-sender", "two-per-nic", "three-per-nic"],
)
def test_a_hybrid_bulk_transfer_is_a_handful_of_events_at_the_packet_instants(
    nflows, packet_budget, budget, calls
):
    packet = bulk_tcp("packet", nflows)
    hybrid = bulk_tcp("hybrid", nflows)
    assert packet[0] == packet_budget
    assert hybrid[0] == budget
    # machine-independent, and exact: a flow that falls back to per-round
    # events fails here, and none of the saving moves a completion
    assert hybrid[1] == packet[1] and all(len(seen) == 1 for seen in hybrid[1])
    # the planner's own work per transfer: Python calls into simnet/fluid.py
    assert hybrid[2] == calls


MIB = 1024 * 1024


@contextlib.contextmanager
def planning_steps():
    """Count the rounds ``fluid._advance``'s per-round loop runs while it
    plans (``rounds is None``; a replay steps every round by design): one
    per execution of the loop's first statement, seen by a line tracer on
    that one function.  Yields a one-element list holding the count."""
    code = fluid._advance.__code__
    lines, first = inspect.getsourcelines(fluid._advance)
    body = first + next(i for i, line in enumerate(lines) if line.strip() == "t_last = t")
    steps = [0]

    def step(frame, event, arg):
        if event == "line" and frame.f_lineno == body:
            steps[0] += 1
        return step

    def call(frame, event, arg):
        if frame.f_code is code and frame.f_locals["rounds"] is None:
            return step
        return None

    trace = sys.gettrace()
    sys.settrace(call)
    try:
        yield steps
    finally:
        sys.settrace(trace)


def staged_tcp(fidelity, sends, parked_read, nbytes=64 * MIB):
    """One established connection over ``Ethernet100``, the loop drained;
    then ``sends`` awaited sends of one shared ``nbytes`` payload, towards a peer
    that drains its socket as the bytes come or — ``parked_read`` — has one
    exact read of everything posted from the start.  Returns ``((plans,
    events, timers, steps), instants)``: the fluid plans built, what the loop
    ran from the first send to quiescence and the rounds the planner stepped
    one by one (:func:`planning_steps`), and when each send completed and the
    read had its bytes."""
    sim = Simulator()
    net = Ethernet100(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    sa, sb = TcpStack(a, fidelity=fidelity), TcpStack(b, fidelity=fidelity)
    accepting, connecting = sb.listen(5000).accept(), sa.connect(b, 5000)
    sim.run()
    conn, peer = connecting.value, accepting.value
    payload = bytes(nbytes)  # zero pages nobody reads
    instants = []
    window = Window(sim)
    if parked_read:
        instants.append(completion_time(peer.recv_exact(sends * len(payload), None, True)))
    else:
        peer.set_data_callback(lambda c: c.read_iov())

    def sender():
        for _ in range(sends):
            yield conn.send(payload)
            instants.append(sim.now)

    sim.process(sender())
    with planning_steps() as steps:
        sim.run()
    assert peer.bytes_received == sends * len(payload)
    plans = conn.fluid.epochs if conn.fluid is not None else 0
    return (plans, *window.close(), steps[0]), instants


@pytest.mark.parametrize(
    "sends, parked_read, packet_budget, budget, events_per_mib",
    [
        # a staged file, five times over (perfbench's `bulk_staging` stream):
        # 262 + 4 x 256 rounds.  The first send is plans of 64, 128 and the
        # 70 left — by then the flow has earned 524 — and every later send is
        # one plan: 7 plans, each its batched delivery, the send's completion
        # and the drained pump, plus the sender's five resumptions.  With a
        # constant bound of 64 rounds (PR 18): 21 plans, (54, 52).  The
        # planner steps 33 of the 1,286 rounds one by one — the ramp's, and a
        # few per binade of the clock a pinned stretch crosses; it stepped
        # all 1,286 before laying runs out in closed form.
        (5, False, (0, 3865, 3863, 0), (7, 26, 24, 33), (12.078125, 0.08125)),
        # the reader of a staged file: one exact read of the 64 MiB, parked
        # from the start.  It used to demote its sender once 64 windows had
        # piled up behind it (a receiver-pressure fallback, deleted): 3
        # plans, then 70 packet rounds, (220, 217) at the very same instants.
        # It steps 19 of its 262 rounds (all 262 before the closed form).
        (1, True, (0, 790, 787, 0), (3, 11, 8, 19), (12.34375, 0.171875)),
    ],
    ids=["five-awaited-sends", "peer-parked-on-one-exact-read"],
)
def test_a_staged_transfer_is_as_few_plans_as_its_flow_has_earned(
    sends, parked_read, packet_budget, budget, events_per_mib
):
    packet = staged_tcp("packet", sends, parked_read)
    hybrid = staged_tcp("hybrid", sends, parked_read)
    assert packet[0] == packet_budget
    assert hybrid[0] == budget
    assert hybrid[1] == packet[1] and len(hybrid[1]) == sends + parked_read
    # events per delivered MiB, compared exactly (quotients of exact counts):
    # the per-byte form of the budget ROADMAP 1(e) asks for
    delivered = sends * 64
    assert (packet[0][1] / delivered, hybrid[0][1] / delivered) == events_per_mib


def test_an_awaited_write_that_fits_the_window_is_one_plan_of_one_round():
    """The deployment's traffic: awaited 32 KiB writes.  The first is a plan
    of 4 slow-start rounds; from then on the window exceeds the write, and a
    write is one plan of one round — 4 loop entries (its pump, the send's
    completion, the batched delivery, the trailing pump that retires the
    drained flow), as many as the packet round's (pump, frame arrival,
    receive append, completion) and as the analytic single round this
    replaced, at the very same instants.  The committed before-number of
    ROADMAP 3b (extend the live plan on ``send()`` instead of re-planning)."""
    few, many = 8, 72
    runs = {(fidelity, writes): staged_tcp(fidelity, writes, False, nbytes=32 * 1024)
            for fidelity in ("packet", "hybrid") for writes in (few, many)}
    assert runs["hybrid", many][1] == runs["packet", many][1]
    assert runs["hybrid", few][0] == (8, 34, 32, 11) and runs["packet", few][0] == (0, 43, 41, 0)
    # per write, past the ramp: (plans, events, timers, steps), exact — a
    # plan of one round is one step
    per_write = {
        fidelity: tuple((m - f) / (many - few)
                        for f, m in zip(runs[fidelity, few][0], runs[fidelity, many][0]))
        for fidelity in ("packet", "hybrid")
    }
    assert per_write == {"packet": (0.0, 4.0, 4.0, 0.0), "hybrid": (1.0, 4.0, 4.0, 1.0)}


# -- Circuit and the middleware round trips ----------------------------------------


def test_one_circuit_message_is_four_events():
    fw, group = paper_cluster(2)
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    c0, c1 = n0.circuit("budget", group), n1.circuit("budget", group)
    san = c0.route_for(1).network
    frames = frames_of(san)
    fw.sim.run()
    window = Window(fw.sim)
    receiving = c1.recv()
    sending = c0.send(1, PAYLOAD)
    recv_at, send_at = completion_time(receiving), completion_time(sending)
    fw.sim.run()
    # send completion (one delayed trigger), frame arrival, the delivery
    # hop, the recv event (5 events before: + mad-send event)
    assert window.close() == (4, 3)
    (frame,) = frames
    assert send_at == [frame.meta["tx_begin"]]
    costs = n1.madeleine.costs
    nsegs = frame.meta["segments"]
    receive_cost = (
        costs.recv_overhead
        + costs.per_segment_overhead * nsegs
        + (frame.nbytes - segment_overhead(nsegs)) / costs.pipeline_copy_bandwidth
        + n1.netaccess.dispatch_cost("madio")
        + DEMUX_OVERHEAD
        + CIRCUIT_LAYER_OVERHEAD
    )
    assert recv_at == [pytest.approx(frame.meta["arrival"] + receive_cost, rel=1e-12)]
    src, incoming = receiving.value
    assert (src, incoming.unpack()) == (0, PAYLOAD)


# -- the SysIO method drivers: one delivered MiB -------------------------------------


@pytest.mark.parametrize(
    "method, budget",
    [
        ("adoc", (53, 52)),
        ("gsi", (53, 52)),
        # (181, 172) when every member burst fed the reassembler a timer,
        # whether or not it completed a slice
        ("parallel_streams", (165, 156)),
        ("vrp", (1537, 1532)),
    ],
)
def test_a_method_driver_delivers_a_mib_within_its_budget(method, budget):
    """Four 256 KiB writes of incompressible bytes across the VTHD WAN, one
    exact read of the MiB: every event and timer from the first write to
    quiescence (the records, the codec and striping delays, VRP's datagrams
    and control records, the TCP rounds under them)."""
    from repro.core import paper_wan_pair
    from repro.methods import register_method_drivers

    fw, group = paper_wan_pair()
    for host in group:
        register_method_drivers(fw.node(host.name), vrp_tolerance=0.0)
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    accepting = n1.vlink_listen(4200).accept()
    connecting = n0.vlink_connect(n1, 4200, method=method)
    fw.sim.run()
    client, server = connecting.value, accepting.value
    assert client.driver_name == method
    payload = random.Random(7).randbytes(MIB)
    window = Window(fw.sim)
    for offset in range(0, MIB, MIB // 4):
        client.write(payload[offset : offset + MIB // 4])
    read = server.read(MIB)
    fw.sim.run()
    assert window.close() == budget
    assert read.value == payload


def round_trip_budget(fw, round_trip):
    """``(events, timers, seconds)`` of one warm round trip driven from a
    process, read between two points of that process.  The tests below pin
    ``seconds`` to the value the same deployment (names included: they are
    on the wire) gave before any hop was removed."""
    out = []

    def driver():
        yield from round_trip()  # connection set-up, first-use paths
        window = Window(fw.sim)
        yield from round_trip()
        out.append((*window.close(), fw.sim.now - window.t0))

    fw.sim.run(until=fw.sim.process(driver()), max_time=10.0)
    return out[0]


@pytest.mark.parametrize(
    "standalone, seconds",
    [(False, 2.4317696969696974e-05), (True, 2.304103030303032e-05)],
    ids=["framework", "standalone"],
)
def test_mpi_round_trip_is_eight_events_on_both_bindings(standalone, seconds):
    from repro.middleware.mpi import MPICH_1_2_5, MpiRuntime, standalone_mpi_pair

    fw, group = paper_cluster(2)
    if standalone:
        san = next(n for n in group[0].networks() if n.is_parallel)
        runtimes = standalone_mpi_pair(san, group, profile=MPICH_1_2_5)
    else:
        runtimes = [
            MpiRuntime(fw.node(host.name), group, profile=MPICH_1_2_5, channel_name="bench")
            for host in group
        ]
    comm0, comm1 = (runtime.comm_world for runtime in runtimes)

    def round_trip():
        comm0.isend(PAYLOAD, 1, tag=7)
        data = yield comm1.irecv(0, 7).wait()
        comm1.isend(data, 0, tag=8)
        echoed = yield comm0.irecv(1, 8).wait()
        assert echoed == PAYLOAD

    events, timers, elapsed = round_trip_budget(fw, round_trip)
    # per direction: send request, frame arrival, the delivery timer that
    # runs MPI's receive callback, the receive request's timer resuming the
    # process (16 events before the one-completion rule; 10 while a receiver
    # process pulled each message from the channel's own queue)
    assert (events, timers) == (8, 8)
    assert elapsed == pytest.approx(seconds, rel=1e-9)


def test_omniorb_round_trip_is_ten_events():
    from repro.middleware import corba

    fw, group = paper_cluster(2)
    interface = corba.Interface(
        "IDL:t/Echo:1.0",
        [corba.Operation("ping", params=(("data", corba.TC_OCTET_SEQ),), result=corba.TC_OCTET_SEQ)],
    )

    class Echo(corba.Servant):
        def ping(self, data):
            return data

    server = corba.ORB(fw.node(group[1].name), corba.OMNIORB_4, port=14000)
    client = corba.ORB(fw.node(group[0].name), corba.OMNIORB_4, port=14001)
    proxy = client.object_to_proxy(server.activate_object(Echo(), interface, key="echo"), interface)

    def round_trip():
        echoed = yield from proxy.invoke("ping", PAYLOAD)
        assert echoed == PAYLOAD

    events, timers, seconds = round_trip_budget(fw, round_trip)
    # the client's marshalling timer, its request send, the frame arrival
    # and stream append that run the server's record callback, the
    # demarshal-and-answer timer, the reply's marshalling timer, its send,
    # the arrival and append, the caller's reply timer (28 events before the
    # one-completion rule, when every Timeout was two and every socket read
    # and write three; 14 while a reader process read each message's header,
    # then its body)
    assert (events, timers) == (10, 10)
    assert seconds == pytest.approx(3.7063907103825153e-05, rel=1e-9)


def test_java_socket_round_trip_is_ten_events():
    from repro.middleware.javasockets import JavaSocketLayer

    fw, group = paper_cluster(2)
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    layer0, layer1 = JavaSocketLayer(n0), JavaSocketLayer(n1)
    ends = {}

    def connect():
        accepting = fw.sim.process(layer1.server_socket(4600).accept())
        ends["client"] = layer0.socket()
        yield from ends["client"].connect(n1.host, 4600)
        ends["server"] = yield accepting

    fw.sim.run(until=fw.sim.process(connect()), max_time=10.0)

    def round_trip():
        yield from ends["client"].write(PAYLOAD)
        data = yield from ends["server"].read(len(PAYLOAD))
        yield from ends["server"].write(data)
        echoed = yield from ends["client"].read(len(PAYLOAD))
        assert echoed == PAYLOAD

    events, timers, seconds = round_trip_budget(fw, round_trip)
    # each read's JVM cost is its completion's delay (24 events before the
    # one-completion rule; 12 while a Timeout followed each read)
    assert (events, timers) == (10, 10)
    assert seconds == pytest.approx(8.002111737089203e-05, rel=1e-9)


def test_soap_round_trip_is_ten_events():
    from repro.middleware.soap import SoapClient, SoapServer

    fw, group = paper_cluster(2)
    server = SoapServer(fw.node(group[1].name), 18200)
    server.register("echo", lambda data="": data)
    client = SoapClient(fw.node(group[0].name), fw.node(group[1].name).host, 18200)

    def round_trip():
        echoed = yield from client.call("echo", data="8 bytes!")
        assert echoed == "8 bytes!"

    events, timers, seconds = round_trip_budget(fw, round_trip)
    # the client's encoding timer, its request send, the frame arrival and
    # stream append that run the server's HTTP parser, the decode-and-answer
    # timer, the reply's encoding timer, its send, the arrival and append,
    # the caller's decoding timer (12 events while a reader process on each
    # end posted a read for each message)
    assert (events, timers) == (10, 10)
    assert seconds == pytest.approx(0.00020615400000000003, rel=1e-9)


def test_hla_request_and_ack_budget():
    from repro.middleware.hla import RtiAmbassador, RtiGateway

    fw, group = paper_cluster(2)
    RtiGateway(fw.node(group[0].name), port=17000)
    federate = RtiAmbassador(fw.node(group[1].name), group[0], port=17000)

    def join():
        yield from federate.create_federation_execution("budget")
        yield from federate.join_federation_execution("f1", "budget")

    fw.sim.run(until=fw.sim.process(join()), max_time=10.0)

    def round_trip():
        yield from federate.publish_object_class("Aircraft")

    events, timers, seconds = round_trip_budget(fw, round_trip)
    # the RTIG and the federate take each message in their record callback
    # (13 events while a reader process on each end read a message's
    # length, then its body)
    assert (events, timers) == (9, 8)
    assert seconds == pytest.approx(6.074983333333335e-05, rel=1e-9)


def test_dsm_remote_read_budget():
    from repro.middleware.dsm import DsmNode

    fw, group = paper_cluster(2)
    DsmNode(fw.node(group[0].name), group, pages=8, page_size=256)
    reader = DsmNode(fw.node(group[1].name), group, pages=8, page_size=256)
    pages = iter((0, 2))  # both homed on rank 0, neither cached yet

    def round_trip():
        data = yield from reader.read(next(pages))
        assert data == bytes(256)

    events, timers, seconds = round_trip_budget(fw, round_trip)
    assert (events, timers) == (7, 7)
    assert seconds == pytest.approx(2.690566666666667e-05, rel=1e-9)


def test_pvm_round_trip_budget():
    from repro.middleware.pvm import PvmTask

    fw, group = paper_cluster(2)
    t0, t1 = (PvmTask(fw.node(host.name), group) for host in group)

    def round_trip():
        t0.initsend()
        t0.pkbyte(PAYLOAD)
        t0.send(t1.mytid, tag=7)
        yield from t1.recv(tag=7)
        t1.initsend()
        t1.pkbyte(t1.upkbyte())
        t1.send(t0.mytid, tag=8)
        yield from t0.recv(tag=8)
        assert t0.upkbyte() == PAYLOAD

    events, timers, seconds = round_trip_budget(fw, round_trip)
    assert (events, timers) == (8, 8)
    assert seconds == pytest.approx(3.700122222222222e-05, rel=1e-9)


# --------------------------------------------------------------------------
# Set-up: what a host pays follows what it uses, not what the grid holds
# --------------------------------------------------------------------------


@contextlib.contextmanager
def undisturbed():
    """The collector and any line tracer (coverage) off, for a region whose
    Python calls or objects are counted: a collection runs whatever
    ``gc.callbacks`` holds inside the count (hypothesis times collections
    there), a tracer written in Python allocates per frame."""
    trace = sys.gettrace()
    sys.settrace(None)
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        sys.settrace(trace)


def direct_connect_calls(cols):
    """Python calls (``cProfile``'s total) of one ``vlink_connect`` between
    two LAN neighbours of cluster 0 and the run that establishes it, on a
    booted ``2 x cols`` grid of 6-host clusters."""
    fw = PadicoFramework()
    grid = grid_deployment(fw, rows=2, cols=cols, hosts_per_cluster=6)
    fw.boot()
    src, dst = (fw.node(host.name) for host in grid.clusters[0][1:3])
    dst.vlink_listen(7000)
    profile = cProfile.Profile()
    with undisturbed():
        profile.enable()
        link = fw.sim.run(until=src.vlink_connect(dst, 7000), max_time=60)
        profile.disable()
    assert link.driver_name == "sysio"
    return pstats.Stats(profile).total_calls


def test_a_direct_connect_costs_the_same_calls_in_a_small_and_a_large_grid():
    """Two counts of one process, no committed literal: the selector reads
    the two hosts' NIC tables and searches no route for a pair it connects
    directly, so 8 times the clusters, networks and hosts add not one call
    (they added 4x when every connect scanned every registered network)."""
    direct_connect_calls(2)  # first use: lazy imports run their module bodies
    assert direct_connect_calls(2) == direct_connect_calls(16)


#: GC-tracked objects one booted, idle host adds (dicts aside), on the 2x2x10
#: grid below; 58.2 when ``boot`` built nine closures per node.
IDLE_HOST_OBJECTS = 39.2


def test_a_booted_idle_host_stays_within_its_object_budget():
    """``len(gc.get_objects())`` across ``fw.boot()``, collector off.  Dicts
    are left out: whether an instance's attribute dict is an object of its
    own is the interpreter's choice (3.10: always; 3.11 on: on demand)."""
    paper_cluster(2)  # first boot of a process: lazy imports, module caches
    fw = PadicoFramework()
    grid_deployment(fw, rows=2, cols=2, hosts_per_cluster=10)

    def tracked():
        return sum(1 for obj in gc.get_objects() if type(obj) is not dict)

    with undisturbed():
        before = tracked()
        fw.boot()
        per_host = (tracked() - before) / len(fw.nodes())
    assert per_host <= IDLE_HOST_OBJECTS


# --------------------------------------------------------------------------
# The engine's host cost per triggered event
# --------------------------------------------------------------------------


def chained_read_calls(reads):
    """Python calls under ``src/repro`` (``cProfile``'s count per function;
    builtins and the interpreter's own frames left out, so the figure is the
    same on every Python version) of a drain of ``reads`` chained 2 KiB
    ``recv_exact`` reads on a bare ``Simulator`` — ``kernel_timers``' framed
    relay reader: each read satisfied at once from the buffered stream, its
    completion's callback reading the value and posting the next, one far
    timer pending throughout."""
    sim = Simulator()
    stream = StreamBuffer(sim)
    for _ in range(reads):
        stream.append(bytes(2048))
    sim.call_later(1.0, lambda: None)
    left = [reads]

    def on_read(op):
        assert len(op.value) == 2048
        left[0] -= 1
        if left[0]:
            stream.recv_exact(2048).add_callback(on_read)

    profile = cProfile.Profile()
    with undisturbed():
        profile.enable()
        stream.recv_exact(2048).add_callback(on_read)
        sim.run(until=0.5)
        profile.disable()
    assert left == [0]
    return repro_calls(profile)


def repro_call_counts(profile):
    """``profile``'s calls of each function under ``src/repro``, keyed as
    ``pstats`` keys them: ``(filename, first line, name)``.

    No comprehension may run on a pinned path: Python 3.12 inlines them
    into their function (PEP 709), so a pin that counted one would hold on
    one interpreter only (``Operation.decode_args`` is a loop for this)."""
    root = str(Path(repro.__file__).parent)
    counts = {
        key: ncalls
        for key, (_cc, ncalls, *_rest) in pstats.Stats(profile).stats.items()
        if key[0].startswith(root)
    }
    inlined = [key for key in counts if key[2] in ("<listcomp>", "<dictcomp>", "<setcomp>")]
    assert not inlined, f"comprehensions on a pinned path: {inlined}"
    return counts


def repro_calls(profile):
    """``profile``'s calls of functions under ``src/repro``."""
    return sum(repro_call_counts(profile).values())


def test_a_satisfied_read_inside_a_drain_is_three_python_calls():
    """``recv_exact``, which slices the head chunk itself, the engine's
    ``completed``, which builds and files the already-succeeded event, and
    the reader's ``add_callback`` — and nothing per entry from the run
    loop, which drains the ready FIFO in one pass.  7 while
    ``SimEvent.value`` was a property; 6 while the read built its event in
    ``SimEvent.__init__``, took its bytes in ``ByteRing.take`` and
    triggered it through ``succeed`` and ``_push_triggered``."""
    chained_read_calls(128)  # first use
    assert chained_read_calls(256) - chained_read_calls(128) == 3 * 128


#: a timer's delay by its index: the ready FIFO, a bucket, the one being
#: drained (scheduled mid-drain by the callbacks below), later buckets and
#: the overflow heap past the default wheel's ~33 ms horizon
TIMER_DELAYS = (0.0, 3e-6, 70e-6, 1e-3, 0.05, 0.5)

TIMER_ENTRY_POINTS = {
    "call_later": lambda sim, now, when, fn, i: sim.call_later(when - now, fn, i),
    "call_at": lambda sim, now, when, fn, i: sim.call_at(when, fn, i),
    "call_at_partition": lambda sim, now, when, fn, i: sim.call_at_partition(0, when, fn, i),
}


def timer_engine_calls(schedule, count):
    """Python calls of functions in ``simnet/engine.py`` to schedule
    ``count`` timers through ``schedule(sim, now, when, fn, i)`` and fire
    them: half at the start, the other half by callbacks, 1 µs after the
    timer that schedules them."""
    from repro.simnet import engine

    sim = Simulator()
    due = {i: TIMER_DELAYS[i % len(TIMER_DELAYS)] + i * 1e-9 for i in range(count // 2)}
    fired = []

    def fire(i):
        fired.append(i)
        if i < count // 2:
            due[count // 2 + i] = due[i] + 1e-6
            schedule(sim, due[i], due[count // 2 + i], fire, count // 2 + i)

    profile = cProfile.Profile()
    with undisturbed():
        profile.enable()
        for i in range(count // 2):
            schedule(sim, 0.0, due[i], fire, i)
        sim.run()
        profile.disable()
    assert sorted(fired) == list(range(count))
    return sum(
        ncalls
        for (filename, _line, _name), (_cc, ncalls, *_rest) in pstats.Stats(profile).stats.items()
        if filename == engine.__file__
    )


@pytest.mark.parametrize("entry", list(TIMER_ENTRY_POINTS))
def test_a_timer_costs_the_engine_the_one_call_that_schedules_it(entry):
    """Filing the timer in the ready FIFO, the draining bucket, a later one
    or the overflow heap happens inside the scheduling call, and ``run()``
    pulls the next timer (across bucket advances and window rebuilds) and
    fires it inline: N timers cost N engine calls.  Six each while a helper
    filed the handle, built it in ``__init__``, found the head and popped
    and fired it; seven through ``call_at_partition``, which called
    ``call_at``."""
    schedule = TIMER_ENTRY_POINTS[entry]
    assert timer_engine_calls(schedule, 1200) - timer_engine_calls(schedule, 600) == 600


def round_trip_call_counts(make, round_trips):
    """Python calls of each function under ``src/repro`` in
    ``round_trips`` 8-byte round trips on a fresh ladder rung, built and
    warmed up as its ``stack_pingpong`` batch does."""
    rung = make()

    def warm_up():
        yield from rung.connect()
        for _ in range(3):
            yield from rung.pingpong(b"warm-up!")

    def traffic():
        for _ in range(round_trips):
            echoed = yield from rung.pingpong(PAYLOAD)
            assert echoed == PAYLOAD

    rung.sim.run(until=rung.sim.process(warm_up()), max_time=60)
    profile = cProfile.Profile()
    with undisturbed():
        profile.enable()
        rung.sim.run(until=rung.sim.process(traffic()), max_time=60)
        profile.disable()
    return repro_call_counts(profile)


def round_trip_calls(make, round_trips):
    """Python calls under ``src/repro`` of ``round_trips`` round trips."""
    return sum(round_trip_call_counts(make, round_trips).values())


#: Python calls under ``src/repro`` per 8-byte round trip, by rung, in
#: ``stack.RUNGS`` order: what each layer's code costs the simulator host
#: (each ORB 430 and Java sockets 326 while the middleware above SysWrap read
#: a message's header, then its body, and ran its read charges as Timeouts;
#: 376 and 310 while its write charges were Timeouts before the send; the
#: wire 57, Madeleine 174, MadIO 198, Circuit 272, VLink 246, MPI 340
#: (standalone 248), each ORB 368 and Java sockets 294 while Madeleine
#: recomputed its channel's identity per message and ``transmit`` called
#: the timing model's helpers; the wire 41, Madeleine 100, MadIO 114,
#: Circuit 182, VLink 162, MPI 246 (standalone 162), each ORB 286 and Java
#: sockets 210 while a timer cost the engine six calls, seven through
#: ``call_at_partition``, the Circuit and Madeleine named a message's peer
#: host and MPI recomputed its rank and size per message; the wire 25,
#: Madeleine 68, MadIO 82, Circuit 140, MPI 174 (standalone 112), each ORB
#: 234 and Java sockets 158 while ``Simulator.event`` ran
#: ``SimEvent.__init__`` and a read the buffer satisfied at once built,
#: took and triggered its event in four calls).
RUNG_CALLS = {
    "simnet.network": 24,
    "madeleine": 65,
    "arbitration.madio": 79,
    "abstraction.circuit": 136,
    "abstraction.vlink": 128,
    "middleware.mpi": 170,
    "middleware.mpi_standalone": 108,
    "middleware.corba": 233,
    "middleware.corba.omniorb3": 233,
    "middleware.corba.mico": 233,
    "middleware.corba.orbacus": 233,
    "middleware.javasockets": 156,
}


@pytest.mark.parametrize("make, layer", zip(stack.RUNGS, RUNG_CALLS), ids=list(RUNG_CALLS))
def test_a_ladder_round_trip_costs_its_python_calls_exactly(make, layer):
    """The difference of a 256- and a 128-round-trip window, so the
    set-up and the first use of each code path cancel out."""
    assert make().layer == layer
    calls = round_trip_calls(make, 256) - round_trip_calls(make, 128)
    assert calls == RUNG_CALLS[layer] * 128


def test_a_madeleine_round_trip_recomputes_nothing_fixed_at_channel_open():
    """A channel's group, ranks and hosts and a packed message's segment
    count and length are fixed before a message is sent: the 256 − 128
    round-trip difference of the Madeleine rung runs none of the helpers
    that recompute them (``PackMode.wire_code`` is gone: a segment header's
    mode code is an identity test)."""
    window = round_trip_call_counts(stack.MadeleineRung, 256)
    for key, ncalls in round_trip_call_counts(stack.MadeleineRung, 128).items():
        window[key] -= ncalls
    for fn in (HostGroup.index_of, HostGroup.__getitem__, Gather.__len__, segment_overhead):
        code = fn.__code__
        assert window.get((code.co_filename, code.co_firstlineno, code.co_name), 0) == 0, fn


class _OffLadder:
    """A rung for :func:`round_trip_calls` of a middleware the ladder does
    not carry, on the paper's two-node cluster: ``pingpong`` is one 8-byte
    call and its answer, as in the event budgets above."""

    def __init__(self):
        self.fw, group = paper_cluster(2)
        self.sim = self.fw.sim
        self.group = group
        self.node0, self.node1 = (self.fw.node(host.name) for host in group)

    def connect(self):
        return iter(())


class _SoapEcho(_OffLadder):
    def __init__(self):
        from repro.middleware.soap import SoapClient, SoapServer

        super().__init__()
        SoapServer(self.node1, 18200).register("echo", lambda data=b"": data)
        self.client = SoapClient(self.node0, self.node1.host, 18200)

    def pingpong(self, payload):
        return (yield from self.client.call("echo", data=payload))


class _RtiAck(_OffLadder):
    """An RTI request and its ack (the RTIG answers, it echoes nothing)."""

    def __init__(self):
        from repro.middleware.hla import RtiAmbassador, RtiGateway

        super().__init__()
        RtiGateway(self.node0, port=17000)
        self.federate = RtiAmbassador(self.node1, self.group[0], port=17000)

    def connect(self):
        yield from self.federate.create_federation_execution("budget")
        yield from self.federate.join_federation_execution("f1", "budget")

    def pingpong(self, payload):
        yield from self.federate.publish_object_class("Aircraft")
        return payload


class _PvmEcho(_OffLadder):
    def __init__(self):
        from repro.middleware.pvm import PvmTask

        super().__init__()
        self.t0, self.t1 = PvmTask(self.node0, self.group), PvmTask(self.node1, self.group)

    def pingpong(self, payload):
        t0, t1 = self.t0, self.t1
        t0.initsend()
        t0.pkbyte(payload)
        t0.send(t1.mytid, tag=7)
        yield from t1.recv(tag=7)
        t1.initsend()
        t1.pkbyte(t1.upkbyte())
        t1.send(t0.mytid, tag=8)
        yield from t0.recv(tag=8)
        return t0.upkbyte()


#: Python calls under ``src/repro`` per round trip of the middleware off
#: the ladder, measured as :data:`RUNG_CALLS` is (gSOAP 347 while a process
#: per connection read each request and a Timeout ran each charge; HLA 304
#: while a Timeout ran the request's charge before its send; gSOAP 310, HLA
#: 290 and PVM 336 while Madeleine recomputed its channel's identity per
#: message; gSOAP 226 while a generator expression encoded an envelope's
#: parameters; gSOAP 224, HLA 206 and PVM 242 while a timer cost the engine
#: six calls and the Circuit named a message's peer host; gSOAP 172, HLA
#: 163 and PVM 184 while ``Simulator.event`` ran ``SimEvent.__init__`` and
#: a satisfied read built, took and triggered its event in four calls).
MIDDLEWARE_CALLS = {
    "gsoap": (_SoapEcho, 171),
    "hla": (_RtiAck, 162),
    "pvm": (_PvmEcho, 180),
}


@pytest.mark.parametrize("name", list(MIDDLEWARE_CALLS))
def test_a_middleware_round_trip_off_the_ladder_costs_its_python_calls_exactly(name):
    make, per_round_trip = MIDDLEWARE_CALLS[name]
    calls = round_trip_calls(make, 256) - round_trip_calls(make, 128)
    assert calls == per_round_trip * 128


def watched_link(network_cls, seed):
    """A two-host link under a ``coalesce=8`` watch probing every 50 ms, run
    for 30 virtual seconds with no traffic: ``(events, timers, watch)``,
    the watch's set-up timer included."""
    fw = PadicoFramework()
    a, b = fw.add_host("a"), fw.add_host("b")
    net = fw.add_network(network_cls(fw.sim, "wan"))
    net.connect(a), net.connect(b)
    window = Window(fw.sim)
    watch = fw.monitoring.watch(net, interval=0.05, seed=seed, coalesce=8)
    fw.sim.run(until=30.0)
    events, timers = window.close()
    return events, timers, watch


def test_a_watched_wan_pays_a_timer_per_observable_tick_only():
    """599 ticks, 12 timers: the set-up one, the lost probe (it pushes), the
    evaluation that pushes back once that loss leaves the 32-sample window,
    and nine wake-ups a ``LOOKAHEAD`` of ticks apart (the last one pending).
    A timer per tick scheduled 600."""
    events, timers, watch = watched_link(WanVthd, seed=7)
    assert (watch.active.sent, watch.active.lost, watch.monitor.pushes) == (599, 1, 2)
    assert (events, timers) == (11, 1 + 1 + 1 + 9)


def test_a_watched_lossless_idle_lan_wakes_once_a_lookahead():
    events, timers, watch = watched_link(Ethernet100, seed=0x9806)
    assert watch.active.lost == 0 and watch.monitor.pushes == 0
    assert events <= 30.0 / (LOOKAHEAD * 0.05) + 1
    assert timers == events + 1  # one timer is always pending
