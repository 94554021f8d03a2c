"""The stream-order invariant of the one receive half.

Whatever mix of exact, partial, flat and gathered reads shares a pending
queue, and however the bytes arrive (``append``, a batched ``extend``, TCP
rounds, a fluid epoch) or stop arriving (``close``, FIN), the reads complete
in the order they were posted, with consecutive slices of the stream, each
exactly once — and asking for a gather changes nothing but the type of the
value: same bytes, same completion instants, same engine events and timers
as the same reads posted flat.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.simnet.buffers import Gather, StreamBuffer
from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.networks import Ethernet100
from repro.simnet.tcp import TcpStack

COMMON = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])



def reads_up_to(nbytes: int):
    return st.tuples(
        st.just("read"),
        st.booleans(),  # exact
        st.one_of(st.integers(min_value=1, max_value=nbytes), st.none()),
        st.booleans(),  # gather
    )



def watch(sim, ev, log):
    """Record ``(instant, outcome)`` every time ``ev``'s callbacks run."""
    ev.add_callback(
        lambda e: log.append((sim.now, e.value if e.ok else type(e.value)))
    )


def flatten(log):
    """The log with every gathered value replaced by its contiguous image."""
    return [
        (at, bytes(value) if isinstance(value, (bytes, Gather)) else value) for at, value in log
    ]


def check_order(log, stream: bytes, posted):
    """Reads completed in post order with consecutive slices of ``stream``;
    an exact read is short only if nothing completed with bytes after it."""
    assert [at for at, _ in log] == sorted(at for at, _ in log)
    offset = 0
    short = False
    for (at, value), (exact, nbytes) in zip(log, posted):
        if not isinstance(value, bytes):
            assert issubclass(value, ConnectionError)
            short = True  # nothing is left: every later read fails too
            continue
        assert not short and value and value == stream[offset : offset + len(value)]
        offset += len(value)
        assert nbytes is None or len(value) <= nbytes
        if exact and len(value) < nbytes:
            short = True  # the stream closed on it: it took what was left
    return offset


# ---------------------------------------------------------------------------
# StreamBuffer: append, extend, close
# ---------------------------------------------------------------------------

_buffer_ops = st.lists(
    st.one_of(
        reads_up_to(40),
        st.tuples(st.just("append"), st.binary(min_size=1, max_size=30)),
        st.tuples(st.just("extend"), st.lists(st.binary(max_size=12), max_size=4)),
        st.tuples(st.just("gather"), st.lists(st.binary(max_size=12), max_size=4)),
        st.tuples(st.just("close")),
    ),
    max_size=40,
)


def run_buffer(ops, gathered: bool):
    """Apply one op per virtual millisecond; ``gathered=False`` posts every
    read flat (the reference run)."""
    sim = Simulator()
    buf = StreamBuffer(sim)
    logs, posted, stream = [], [], bytearray()

    def apply(op):
        kind = op[0]
        if kind == "read":
            _, exact, nbytes, gather = op
            if exact and nbytes is None:
                nbytes = 16
            log = []
            logs.append(log)
            posted.append((exact, nbytes))
            read = buf.recv_exact if exact else buf.recv
            watch(sim, read(nbytes, gather=gather and gathered), log)
        elif kind == "close":
            buf.close()
        elif buf.closed:
            pass  # the contract of close: nothing more arrives
        elif kind == "append":
            stream.extend(op[1])
            buf.append(op[1])
        elif kind == "extend":
            stream.extend(b"".join(op[1]))
            buf.extend(op[1])
        else:
            stream.extend(b"".join(op[1]))
            buf.append(Gather(op[1]))

    for index, op in enumerate(ops):
        sim.call_at(index * 1e-3, apply, op)
    sim.run()
    stats = sim.stats()
    return logs, posted, bytes(stream), buf, (stats.events_processed, stats.timers_scheduled)


@COMMON
@given(_buffer_ops)
def test_stream_buffer_reads_complete_in_order_whatever_their_kind(ops):
    logs, posted, stream, buf, work = run_buffer(ops, gathered=True)
    flat_logs, _, _, flat_buf, flat_work = run_buffer(ops, gathered=False)
    assert all(len(log) <= 1 for log in logs)  # at most once each
    assert [flatten(log) for log in logs] == flat_logs
    assert work == flat_work and buf.available() == flat_buf.available()
    done = [log[0] for log in logs if log]
    done_posted = [p for log, p in zip(logs, posted) if log]
    # completed reads are a prefix of the posted ones, unless still pending
    assert [bool(log) for log in logs] == sorted((bool(log) for log in logs), reverse=True)
    consumed = check_order(flatten(done), stream, done_posted)
    assert consumed + buf.available() == len(stream)
    if buf.closed:
        assert len(done) == len(logs)  # nothing waits on a closed stream
    for log, (exact, nbytes) in zip(logs, posted):
        for _, value in log:
            if exact and isinstance(value, (bytes, Gather)) and not buf.closed:
                assert len(value) == nbytes


# ---------------------------------------------------------------------------
# TCP at both fidelities: rounds, fluid epochs, FIN
# ---------------------------------------------------------------------------


def run_tcp(fidelity, sends, reads, gathered: bool, fin: bool):
    sim = Simulator()
    net = Ethernet100(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    stack_a, stack_b = (TcpStack(host, fidelity=fidelity) for host in (a, b))
    listener = stack_b.listen(9100)
    logs, posted = [], []

    def client():
        conn = yield stack_a.connect(b, 9100)
        for data in sends:
            yield conn.send(data)
        if fin:
            conn.close()

    def server():
        conn = yield listener.accept()
        for _, exact, nbytes, gather in reads:
            if exact and nbytes is None:
                nbytes = 1460
            log = []
            logs.append(log)
            posted.append((exact, nbytes))
            read = conn.recv_exact if exact else conn.recv
            watch(sim, read(nbytes, gather=gather and gathered), log)
        return conn

    sim.process(client())
    serving = sim.process(server())
    sim.run(max_time=120)
    stats = sim.stats()
    return logs, posted, serving.value, (stats.events_processed, stats.timers_scheduled)


@pytest.mark.parametrize("fidelity", ["packet", "hybrid"])
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sends=st.lists(
        st.one_of(
            # up to a few receive windows: long enough for fluid epochs,
            # which deliver their rounds as one batched ``extend``
            st.integers(min_value=1, max_value=1_500_000).map(
                lambda n: (bytes(range(251)) * (n // 251 + 1))[:n]
            ),
            st.lists(st.binary(min_size=1, max_size=3000), min_size=1, max_size=3).map(Gather),
        ),
        min_size=1,
        max_size=3,
    ),
    reads=st.lists(reads_up_to(1_000_000), min_size=1, max_size=8),
    fin=st.booleans(),
)
@example(
    sends=[bytes(1_200_000), Gather((b"tail", bytes(70_000)))],
    reads=[("read", True, 900_000, True), ("read", False, None, False),
           ("read", True, 400_000, True)],
    fin=True,
)
# one round spanning three send-queue entries: every path joins it, and must
# hand the reader the same read-only view of the join
@example(
    sends=[b"\x00", Gather([b"\x00", b"\x00"])],
    reads=[("read", True, None, True)],
    fin=True,
)
# a one-round plan laid out while the plan before it is still a pending batch
# at the peer: the lone byte must not be readable ahead of the 136,699 (its
# share is seeded from the cursor that batch will have left)
@example(
    sends=[(bytes(range(251)) * 545)[:136_699], b"\x00"],
    reads=[("read", False, None, False), ("read", False, None, False)],
    fin=False,
)
def test_tcp_reads_complete_in_order_whatever_their_kind(fidelity, sends, reads, fin):
    logs, posted, conn, work = run_tcp(fidelity, sends, reads, True, fin)
    flat_logs, _, flat_conn, flat_work = run_tcp(fidelity, sends, reads, False, fin)
    stream = b"".join(bytes(data) for data in sends)
    assert all(len(log) <= 1 for log in logs)
    # gather or flat: the same bytes at the same instants for the same work
    assert [flatten(log) for log in logs] == flat_logs
    assert work == flat_work and conn.available() == flat_conn.available()
    assert conn.bytes_received == len(stream)
    done = [log[0] for log in logs if log]
    consumed = check_order(flatten(done), stream, [p for log, p in zip(logs, posted) if log])
    assert consumed + conn.available() == len(stream)
    if fin:
        assert len(done) == len(logs)
    for value in (value for _, value in done if isinstance(value, Gather)):
        # what a gathered read hands out are views of what the sender queued
        assert all(type(part) is memoryview and part.readonly for part in value.parts)


def test_a_fluid_epoch_completes_a_gathered_read_with_views_of_the_senders_buffer():
    payload = bytes(1_500_000)
    logs, _, conn, _ = run_tcp("hybrid", [payload], [("read", True, 1_400_000, True)], True, False)
    sender = next(c for c in conn.peer_host.get_service("tcp").connections())
    assert sender.fluid.epochs > 0  # rounds were delivered batched (``extend``)
    ((_, value),) = logs[0]
    assert type(value) is Gather and len(value) == 1_400_000
    assert all(part.obj is payload for part in value.parts)
    assert conn.available() == 100_000


# ---------------------------------------------------------------------------
# Records under a stream: the method drivers, a relay, a stream-mesh Circuit
# ---------------------------------------------------------------------------

STREAMS = ["adoc", "gsi", "parallel_streams", "vrp", "relay"]


def stream_pair(kind):
    """``(fw, client, server)``: an established VLink of ``kind`` — a method
    driver across the VTHD WAN (VRP at zero tolerance), or a relayed route
    through a dual-homed gateway."""
    from repro.core import PadicoFramework, paper_wan_pair
    from repro.methods import register_method_drivers
    from repro.simnet.networks import WanVthd

    if kind == "relay":
        fw = PadicoFramework()
        a, gateway, b = (fw.add_host(name, site=site) for name, site in
                         (("edge", "s1"), ("gw", "s1"), ("remote", "s2")))
        for network, hosts in ((Ethernet100(fw.sim, "lan"), (a, gateway)),
                               (WanVthd(fw.sim, "wan"), (gateway, b))):
            fw.add_network(network)
            for host in hosts:
                network.connect(host)
        fw.boot()
        method = None
    else:
        fw, (a, b) = paper_wan_pair()
        for host in (a, b):
            register_method_drivers(fw.node(host.name), vrp_tolerance=0.0)
        method = kind
    accepting = fw.node(b.name).vlink_listen(4300).accept()
    connecting = fw.node(a.name).vlink_connect(fw.node(b.name), 4300, method=method)
    fw.sim.run()
    client = connecting.value
    assert client.driver_name == ("sysio" if kind == "relay" else kind)
    return fw, client, accepting.value


def ragged(sizes):
    """One write per size, cut from one pattern (empty writes included)."""
    return [(bytes(range(251)) * (n // 251 + 1))[:n] for n in sizes]


_writes = st.lists(st.integers(min_value=0, max_value=40_000), min_size=1, max_size=6)
_reads = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=1, max_value=50_000)), min_size=1, max_size=6
)
METHODS_COMMON = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("kind", STREAMS)
@METHODS_COMMON
@given(sizes=_writes, reads=_reads)
def test_a_record_stream_reads_in_order_whatever_the_cuts(kind, sizes, reads):
    """Ragged writes come out of ragged ``recv`` / ``recv_exact`` reads in
    order, each byte once: however the records a driver frames them into
    (codec blocks, striped slices, VRP records, relayed chunks) are cut by
    the TCP bursts under them."""
    fw, client, server = stream_pair(kind)
    writes = ragged(sizes)
    stream = b"".join(writes)
    log, posted = [], []

    def reader():
        for data in writes:
            client.write(data)
        got, index = 0, 0
        while got < len(stream):
            exact, nbytes = reads[index % len(reads)]
            index += 1
            nbytes = min(nbytes, len(stream) - got)
            value = yield server.read(nbytes, exact=exact)
            log.append((fw.sim.now, value))
            posted.append((exact, nbytes))
            got += len(value)

    fw.sim.run(until=fw.sim.process(reader()), max_time=600)
    assert check_order(log, stream, posted) == len(stream)
    assert server.available() == 0
    if kind == "relay":
        assert fw.node("gw").gateway_relay.relayed == 1


@METHODS_COMMON
@given(sizes=_writes)
def test_a_stream_mesh_circuit_delivers_messages_in_order(sizes):
    """The Circuit's stream mesh frames each message as one record behind
    the stream's hello: messages of any size (empty ones too) arrive whole
    and in the order sent."""
    from repro.core import paper_wan_pair
    from repro.abstraction.adapters import StreamMeshCircuitAdapter

    fw, group = paper_wan_pair()
    sender, receiver = (fw.node(host.name).circuit("order", group) for host in group)
    assert isinstance(sender.adapter_for(1), StreamMeshCircuitAdapter)
    messages = ragged(sizes)
    log = []

    def receive():
        for data in messages:
            sender.send(1, data)
        for _ in messages:
            src, incoming = yield receiver.recv()
            assert src == 0
            log.append((fw.sim.now, incoming.unpack()))

    fw.sim.run(until=fw.sim.process(receive()), max_time=600)
    assert [value for _, value in log] == messages
    nonempty = [(at, value) for at, value in log if value]
    check_order(nonempty, b"".join(messages), [(False, None)] * len(nonempty))


def test_a_later_cheaper_message_never_overtakes_a_dearer_one_on_the_stream_mesh():
    """A middleware's copy cost reaches the adapter as ``extra_cost`` and
    delays each message's write by its size: the stream's ``Serializer``
    keeps a 10-byte message posted after a 30,000-byte one behind it."""
    from repro.core import paper_wan_pair

    fw, group = paper_wan_pair()
    sender, receiver = (fw.node(host.name).circuit("order", group) for host in group)
    cpu = group[0].cpu
    sizes = []

    def receive():
        sender.send(1, b"warm-up")
        yield receiver.recv()  # the stream exists: the posts below ride it
        for data in ragged([30_000, 10]):
            message = sender.new_message(1)
            message.pack_express(data)
            sender.post(message, extra_cost=len(data) / cpu.memcpy_bandwidth)
        for _ in range(2):
            _src, incoming = yield receiver.recv()
            sizes.append(len(incoming.unpack()))

    fw.sim.run(until=fw.sim.process(receive()), max_time=60)
    assert sizes == [30_000, 10]
