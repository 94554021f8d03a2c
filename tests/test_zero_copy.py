"""The zero-copy SAN and middleware byte path.

A bulk payload rides by reference from marshalling to delivery, through the
receiver's stream reads and demarshalling included: these tests pin the wire
image (``bytes(gather) == encode_segments(segments)``), the identity of what
is delivered, the one immutability rule, the peak memory of the whole
invocation, and the places that must flatten.
"""

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tests.helpers import chop, run

from repro.arbitration import MadIO, NetAccessCore
from repro.madeleine import MadeleineDriver, MadIncoming, MadMessage
from repro.madeleine.message import (
    PackMode,
    SegmentGather,
    decode_segments,
    encode_segments,
    segment_overhead,
)
from repro.middleware.corba import (
    Interface,
    OMNIORB_4,
    ORB,
    Operation,
    Servant,
    TC_LONG,
    TC_OCTET_SEQ,
)
from repro.middleware.javasockets import JavaSocketLayer
from repro.middleware.mpi import MpiRuntime
from repro.simnet.buffers import ByteRing, Gather, immutable
from repro.simnet.engine import Simulator
from repro.simnet.host import Host, HostGroup
from repro.simnet.networks import Ethernet100, Myrinet2000
from repro.simnet.tcp import TcpStack

COMMON = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

MB = 1_000_000


# ---------------------------------------------------------------------------
# the buffer primitives
# ---------------------------------------------------------------------------


def test_immutable_aliases_what_cannot_change_and_snapshots_the_rest():
    data = b"payload"
    assert immutable(data) is data
    view = memoryview(data)[2:]
    assert immutable(view) is view
    gather = Gather((b"ab", b"cd"))
    assert immutable(gather) is gather
    for mutable in (bytearray(data), memoryview(bytearray(data)),
                    memoryview(bytearray(data)).toreadonly()):
        snapshot = immutable(mutable)
        assert type(snapshot) is bytes and snapshot == data


def test_gather_splices_nested_parts_and_drops_empty_ones():
    body = bytes(1000)
    inner = Gather((b"hdr", b"", body))
    outer = Gather((b"frame", inner, bytearray(b"tail")))
    assert len(outer) == 5 + 3 + 1000 + 4
    assert bytes(outer) == b"frame" + b"hdr" + body + b"tail"
    assert outer.parts[2] is body
    assert all(type(part) is bytes for part in outer.parts)
    assert len(Gather(())) == 0 and bytes(Gather((b"", b""))) == b""


def test_byte_ring_hands_back_the_part_a_read_matches():
    body = bytes(range(256)) * 16
    ring = ByteRing()
    ring.append(Gather((b"12-byte-head", body, b"tail")))
    assert len(ring) == 12 + len(body) + 4
    assert ring.take(12) == b"12-byte-head"
    assert ring.take(len(body)) is body
    assert ring.take() == b"tail"


# ---------------------------------------------------------------------------
# the wire image: one definition, by value and by reference
# ---------------------------------------------------------------------------

_buffers = st.one_of(
    st.binary(max_size=200),
    st.binary(max_size=200).map(bytearray),
    st.binary(max_size=200).map(memoryview),
    st.binary(max_size=200).map(lambda b: memoryview(bytearray(b))),
    st.lists(st.binary(max_size=80), max_size=4).map(Gather),
)
_segments = st.lists(st.tuples(st.sampled_from(list(PackMode)), _buffers), max_size=6)


@COMMON
@given(_segments, st.lists(st.integers(min_value=0, max_value=2000), max_size=6))
def test_gather_is_the_wire_image_of_its_segments(segments, cuts):
    message = MadMessage(1)
    for mode, data in segments:
        message.pack(data, mode)
    flat = [(mode, bytes(data)) for mode, data in segments]
    assert message.payload_bytes == sum(len(data) for _mode, data in flat)
    assert message.express_bytes == sum(
        len(data) for mode, data in flat if mode is PackMode.EXPRESS
    )
    wire = message.finish()
    image = encode_segments(flat)
    assert bytes(wire) == image
    assert len(wire) == len(image) == message.payload_bytes + segment_overhead(len(flat))
    assert decode_segments(wire) == flat
    assert decode_segments(image) == flat
    # ... and of the image read off a byte stream in arbitrary pieces
    assert decode_segments(chop(image, cuts)) == flat
    # the receive side sees the same segments by reference and by value
    for raw in (wire, image):
        incoming = MadIncoming(0, raw)
        assert incoming.payload_bytes == message.payload_bytes
        assert [
            (incoming.peek_mode(), bytes(incoming.unpack())) for _ in flat
        ] == flat
        incoming.end_unpacking(require_drained=True)


def test_packed_segments_are_taken_as_they_are():
    body = bytes(4096)
    wire = MadMessage(1).pack_express(b"hdr").pack_cheaper(body).finish()
    assert isinstance(wire, SegmentGather)
    incoming = MadIncoming(0, wire)
    assert incoming.unpack_express() == b"hdr"
    assert incoming.unpack_cheaper() is body
    # a plain gather of the image (a frame body read off a stream) is
    # decoded per segment: a segment that is one part is that part
    decoded = decode_segments(Gather(wire.parts))
    assert decoded == [(PackMode.EXPRESS, b"hdr"), (PackMode.CHEAPER, body)]
    assert decoded[1][1] is body


# ---------------------------------------------------------------------------
# identity: what the sender packed is what the receiver unpacks
# ---------------------------------------------------------------------------


def _san_pair():
    sim = Simulator()
    net = Myrinet2000(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    return sim, net, a, b, HostGroup("pair", [a, b])


def test_madeleine_delivers_the_packed_object():
    sim, net, a, b, group = _san_pair()
    ch_a = MadeleineDriver(a).open_channel("c", net, group)
    ch_b = MadeleineDriver(b).open_channel("c", net, group)
    got = []
    ch_b.set_receive_callback(lambda inc, d: got.append((inc.unpack(), inc.unpack(), d)))
    payload = bytes(MB)
    ch_a.send(1, b"header", payload)
    sim.run()
    header, body, delivery = got[0]
    assert header == b"header" and body is payload
    # the frame's length is the wire length: headers included, nothing joined
    assert delivery.frame.nbytes == 6 + MB + segment_overhead(2)
    assert bytes(delivery.frame.payload) == encode_segments(
        [(PackMode.EXPRESS, b"header"), (PackMode.CHEAPER, payload)]
    )


def test_madio_delivers_the_body_object():
    sim, net, a, b, group = _san_pair()
    madios = [MadIO(NetAccessCore(host)) for host in (a, b)]
    for madio in madios:
        madio.attach(net, group)
    ch_a, ch_b = (madio.open_logical_channel("c", net) for madio in madios)
    got = []
    ch_b.set_receive_callback(lambda src, header, body, d: got.append((header, body)))
    payload = bytes(MB)
    ch_a.send(1, b"hd", payload)
    sim.run()
    assert got[0][0] == b"hd" and got[0][1] is payload


def test_circuit_and_vlink_over_madio_deliver_the_written_object(cluster):
    fw, group = cluster
    node0, node1 = (fw.node(host.name) for host in group)
    payload = bytes(MB)

    c0, c1 = node0.circuit("zc", group), node1.circuit("zc", group)
    assert c0.route_for(1).method == "madio"
    listener = node1.vlink_listen(7100)

    def scenario():
        c0.send(1, b"express", payload)
        _src, incoming = yield c1.recv()
        assert incoming.unpack() == b"express"
        via_circuit = incoming.unpack()

        accepting = listener.accept()
        client = yield node0.vlink_connect(node1, 7100)
        server = yield accepting
        assert client.driver_name == "madio"
        client.write(payload)
        via_vlink = yield server.read(len(payload))
        return via_circuit, via_vlink

    via_circuit, via_vlink = run(fw, scenario())
    assert via_circuit is payload
    assert via_vlink is payload


def test_gather_write_is_one_madio_message_with_the_flat_wire_length(cluster):
    fw, group = cluster
    node0, node1 = (fw.node(host.name) for host in group)
    san = next(net for net in group[0].networks() if net.is_parallel)
    listener = node1.vlink_listen(7101)
    body = bytes(100_000)

    def scenario(data):
        accepting = listener.accept()
        client = yield node0.vlink_connect(node1, 7101)
        server = yield accepting
        frames, carried = san.frames_sent, san.bytes_carried
        t0 = fw.sim.now
        client.write(data)
        got = yield server.read(len(data))
        return got, san.frames_sent - frames, san.bytes_carried - carried, fw.sim.now - t0

    flat = b"header" + body + b"tail"
    flat_got, flat_frames, flat_bytes, flat_time = run(fw, scenario(flat))
    got, frames, nbytes, elapsed = run(fw, scenario(Gather((b"header", body, b"tail"))))
    assert got == flat_got == flat
    assert (frames, nbytes, elapsed) == (flat_frames, flat_bytes, flat_time) and frames == 1


# ---------------------------------------------------------------------------
# one TCP send for a gather, timed like the flat send
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fidelity", ["packet", "hybrid"])
def test_tcp_gather_send_equals_the_flat_send(fidelity):
    parts = (b"h" * 12, bytes(range(256)) * 4000, b"t" * 7)

    def transfer(data):
        sim = Simulator()
        net = Ethernet100(sim)
        a, b = Host(sim, "a"), Host(sim, "b")
        net.connect(a)
        net.connect(b)
        stack_a, stack_b = (TcpStack(host, fidelity=fidelity) for host in (a, b))
        listener = stack_b.listen(9000)
        out = {}

        def client():
            conn = yield stack_a.connect(b, 9000)
            sent = yield conn.send(data)
            out["sent"] = (sent, sim.now)

        def server():
            conn = yield listener.accept()
            out["data"] = yield conn.recv_exact(len(data))
            out["at"] = sim.now
            out["rounds"] = conn.rounds

        sim.process(client())
        sim.run(until=sim.process(server()))
        sim.run()
        return out, net.frames_sent, net.bytes_carried

    flat = transfer(b"".join(parts))
    gathered = transfer(Gather(parts))
    assert gathered == flat
    assert flat[0]["sent"][0] == len(b"".join(parts))


# ---------------------------------------------------------------------------
# mutation safety: a buffer changed after the call is not what the peer reads
# ---------------------------------------------------------------------------


def test_bytearray_mutated_after_pack_does_not_reach_the_madeleine_peer():
    sim, net, a, b, group = _san_pair()
    ch_a = MadeleineDriver(a).open_channel("c", net, group)
    ch_b = MadeleineDriver(b).open_channel("c", net, group)
    got = []
    ch_b.set_receive_callback(lambda inc, d: got.append((inc.unpack(), inc.unpack())))
    header, body = bytearray(b"head"), bytearray(b"original body")
    message = ch_a.begin_packing(1)
    message.pack_express(header).pack_cheaper(memoryview(body))
    header[:] = b"XXXX"
    body[:8] = b"MUTATED!"
    ch_a.end_packing(message)
    sim.run()
    assert got == [(b"head", b"original body")]


def test_bytearray_mutated_after_write_does_not_reach_the_vlink_peer(cluster):
    fw, group = cluster
    node0, node1 = (fw.node(host.name) for host in group)
    listener = node1.vlink_listen(7102)

    def scenario():
        accepting = listener.accept()
        client = yield node0.vlink_connect(node1, 7102)
        server = yield accepting
        data = bytearray(b"stream bytes as written")
        client.write(data)
        data[:6] = b"XXXXXX"
        wrapped = bytearray(b"gathered")
        client.write(Gather((b"<", wrapped, b">")))
        wrapped[:] = b"scramble"
        first = yield server.read(23)
        second = yield server.read(10)
        return first, second

    assert run(fw, scenario()) == (b"stream bytes as written", b"<gathered>")


ECHO_IDL = Interface(
    "IDL:repro/ZeroCopy:1.0",
    [
        Operation("store", params=(("data", TC_OCTET_SEQ),), result=TC_LONG),
        Operation("echo", params=(("data", TC_OCTET_SEQ),), result=TC_OCTET_SEQ),
    ],
)


class _Store(Servant):
    def __init__(self):
        self.stored = None

    def store(self, data):
        self.stored = data
        return len(data)

    def echo(self, data):
        return data


def _orb_pair(fw, group, method=None):
    servant = _Store()
    server = ORB(fw.node(group[1].name), OMNIORB_4, forced_method=method)
    client = ORB(fw.node(group[0].name), OMNIORB_4, forced_method=method)
    reference = server.activate_object(servant, ECHO_IDL, key="zc")
    return servant, client.object_to_proxy(reference, ECHO_IDL)


def test_bytearray_mutated_after_invoke_does_not_reach_the_corba_servant(cluster):
    fw, group = cluster
    servant, proxy = _orb_pair(fw, group)
    argument = bytearray(b"octets as marshalled")

    def scenario():
        invocation = proxy.invoke("store", argument)
        first_wait = next(invocation)  # marshalled; the stub now waits to send
        argument[:6] = b"XXXXXX"
        yield first_wait
        return (yield from invocation)

    assert run(fw, scenario()) == 20
    assert servant.stored == b"octets as marshalled"
    assert type(servant.stored) is bytes


def test_corba_round_trips_every_octet_sequence_shape(cluster):
    fw, group = cluster
    _servant, proxy = _orb_pair(fw, group)

    def scenario():
        out = []
        for data in (b"", b"x", bytes(range(256)) * 300, bytearray(b"mutable"),
                     memoryview(b"a view")):
            out.append((yield from proxy.invoke("echo", data)))
        return out

    assert run(fw, scenario()) == [b"", b"x", bytes(range(256)) * 300, b"mutable", b"a view"]


# ---------------------------------------------------------------------------
# peak memory of a whole invocation: marshalling, transport, demarshalling
# ---------------------------------------------------------------------------


def _peak_over(fw, scenario):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run(fw, scenario)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_four_megabyte_octet_sequence_reaches_the_servant_as_the_clients_object(cluster):
    """Over the SAN nothing between ``proxy.invoke`` and the servant copies:
    the parameter *is* the argument, and so is the echoed result."""
    fw, group = cluster
    servant, proxy = _orb_pair(fw, group)
    run(fw, proxy.invoke("store", b"warm-up"))  # connection set-up is not the path
    payload = bytes(4 * MB)
    result, peak = _peak_over(fw, proxy.invoke("store", payload))
    assert result == len(payload) and servant.stored is payload
    assert peak < 0.1 * len(payload), f"peak {peak / len(payload):.2f} x payload"
    assert run(fw, proxy.invoke("echo", payload)) is payload


def test_four_megabyte_octet_sequence_over_tcp_is_copied_once(cluster):
    """TCP delivers the bytes in rounds: the gathered read hands the ORB views
    of the sender's buffer, and the one join is the servant's ``bytes``."""
    fw, group = cluster
    servant, proxy = _orb_pair(fw, group, method="sysio")
    run(fw, proxy.invoke("store", b"warm-up"))
    payload = bytes(range(256)) * (4 * MB // 256)
    result, peak = _peak_over(fw, proxy.invoke("store", payload))
    assert result == len(payload)
    assert type(servant.stored) is bytes and servant.stored == payload
    assert peak < 1.1 * len(payload), f"peak {peak / len(payload):.2f} x payload"


def test_four_megabyte_java_socket_read_over_tcp_is_copied_once(cluster):
    fw, group = cluster
    layers = [JavaSocketLayer(fw.node(host.name), forced_method="sysio") for host in group]
    payload = bytes(range(256)) * (4 * MB // 256)

    def connect():
        accepting = fw.sim.process(layers[1].server_socket(4700).accept())
        client = layers[0].socket()
        yield from client.connect(group[1], 4700)
        return client, (yield accepting)

    client, server = run(fw, connect())

    def transfer():
        yield from client.write(payload)
        return (yield from server.read(len(payload)))

    received, peak = _peak_over(fw, transfer())
    assert type(received) is bytes and received == payload
    assert peak < 1.1 * len(payload), f"peak {peak / len(payload):.2f} x payload"


def test_megabyte_circuit_message_over_tcp_is_copied_once(ethernet_cluster):
    """The stream adapter takes the frame body as a gather and
    ``decode_segments`` joins per segment: one copy, not join + slice."""
    fw, group = ethernet_cluster
    c0, c1 = (fw.node(host.name).circuit("zc", group) for host in group)
    assert c0.route_for(1).method == "sysio"
    payload = bytes(range(256)) * (MB // 256)

    def scenario(body):
        c0.send(1, b"express", body)
        _src, incoming = yield c1.recv()
        return incoming.unpack(), incoming.unpack()

    run(fw, scenario(b"warm-up"))
    (express, body), peak = _peak_over(fw, scenario(payload))
    assert express == b"express" and type(body) is bytes and body == payload
    assert peak < 1.1 * len(payload), f"peak {peak / len(payload):.2f} x payload"


def test_four_megabyte_mpi_send_stays_under_a_tenth_of_a_payload(cluster):
    fw, group = cluster
    comm0, comm1 = (MpiRuntime(fw.node(h.name), group).comm_world for h in group)
    payload = bytes(4 * MB)

    def scenario():
        comm0.isend(payload, 1, tag=3)
        return (yield comm1.irecv(0, 3).wait())

    received, peak = _peak_over(fw, scenario())
    assert received is payload
    assert peak < 0.1 * len(payload), f"peak {peak / len(payload):.2f} x payload"


# ---------------------------------------------------------------------------
# a frame's gather payload crossing a partition boundary
# ---------------------------------------------------------------------------


def _boundary_madeleine_trace(partitions):
    """Madeleine messages from partition 0 to partition 1 over a SAN; the
    receiver's trace of (time, wire length, segments)."""
    sim = Simulator(partitions=partitions)
    net = Myrinet2000(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    if partitions:
        b.partition = 1
    net.connect(a)
    net.connect(b)
    group = HostGroup("pair", [a, b])
    ch_a = MadeleineDriver(a).open_channel("c", net, group)
    ch_b = MadeleineDriver(b).open_channel("c", net, group)
    trace = []

    def on_message(incoming, delivery):
        segments = []
        while incoming.remaining_segments:
            mode = incoming.peek_mode()
            segments.append((mode.value, bytes(incoming.unpack())))
        trace.append((
            round(sim.now, 12),
            round(delivery.ready_time(), 12),
            delivery.frame.nbytes,
            bytes(delivery.frame.payload),
            segments,
        ))

    ch_b.set_receive_callback(on_message)

    def send(index):
        message = ch_a.begin_packing(1)
        message.pack_express(b"hdr-%d" % index)
        # a nested gather body (what Circuit over MadIO packs) and a plain one
        message.pack_cheaper(Gather((b"inner", bytes([index]) * (3000 * index), b"")))
        message.pack_cheaper(bytes([index]) * 17)
        ch_a.end_packing(message)

    for index in range(1, 6):
        sim.call_at_partition(0, index * 1e-4, send, index)
    sim.run(until=1e-3)
    return trace


def test_madeleine_frame_crossing_a_partition_boundary_is_payload_and_trace_equal():
    single = _boundary_madeleine_trace(None)
    assert len(single) == 5
    for _now, _ready, nbytes, payload, segments in single:
        assert nbytes == len(payload)
        assert payload == encode_segments(
            [(PackMode(mode), data) for mode, data in segments]
        )
    assert _boundary_madeleine_trace(2) == single
