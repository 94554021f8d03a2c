"""Tests for the CORBA middleware: CDR, GIOP, ORB invocation, profiles."""

import struct

import numpy as np
import pytest

from tests.helpers import run

from repro.middleware.corba import (
    CdrError,
    CdrInputStream,
    CdrOutputStream,
    CorbaError,
    GiopError,
    GiopMessage,
    Interface,
    MICO_2_3_7,
    MSG_REPLY,
    MSG_REQUEST,
    OMNIORB_3,
    OMNIORB_4,
    ORB,
    ORBACUS_4_0_5,
    ObjectReference,
    Operation,
    Servant,
    SequenceTC,
    StructTC,
    TC_DOUBLE,
    TC_DOUBLE_SEQ,
    TC_FLOAT,
    TC_LONG,
    TC_LONGLONG,
    TC_OCTET_SEQ,
    TC_STRING,
    TC_VOID,
)
from repro.middleware.corba.cdr import TC_SHORT
from repro.middleware.corba.giop import GIOP_HEADER, body_size, make_reply, make_request
from repro.personalities.syswrap import SysWrap, SysWrapSocket
from repro.simnet.buffers import Gather


# --------------------------------------------------------------------------
# CDR
# --------------------------------------------------------------------------


def test_cdr_primitive_roundtrip_with_alignment():
    out = CdrOutputStream()
    out.put_octet(7)
    out.put_double(3.5)       # forces 8-byte alignment after a 1-byte value
    out.put_long(-42)
    out.put_string("héllo")
    out.put_boolean(True)
    inp = CdrInputStream(out.getvalue())
    assert inp.get_octet() == 7
    assert inp.get_double() == 3.5
    assert inp.get_long() == -42
    assert inp.get_string() == "héllo"
    assert inp.get_boolean() is True
    assert inp.remaining == 0


def test_cdr_truncation_detected():
    out = CdrOutputStream()
    out.put_long(1)
    inp = CdrInputStream(bytes(out.getvalue())[:2])
    with pytest.raises(CdrError):
        inp.get_long()


def test_cdr_typed_sequences():
    out = CdrOutputStream()
    out.put_octet(1)  # the double sequence's body then needs padding
    TC_DOUBLE_SEQ.encode(out, np.array([1.0, 2.5, -3.0]))
    TC_OCTET_SEQ.encode(out, b"raw-bytes")
    out.put_string("tail")
    wire = out.getvalue()
    image = bytes(wire)
    # over the sender's parts, the flat image, and the image split in two at
    # every offset — inside the count, the padding, a double, the octets,
    # the string — or into single bytes: always the same values
    splits = [Gather((image[:cut], image[cut:])) for cut in range(len(image) + 1)]
    for data in (wire, image, Gather(image[i : i + 1] for i in range(len(image))), *splits):
        inp = CdrInputStream(data)
        assert inp.get_octet() == 1
        arr = TC_DOUBLE_SEQ.decode(inp)
        assert arr.dtype == np.float64 and arr.tolist() == [1.0, 2.5, -3.0]
        octets = TC_OCTET_SEQ.decode(inp)
        assert type(octets) is bytes and octets == b"raw-bytes"
        assert inp.get_string() == "tail" and inp.remaining == 0
    with pytest.raises(CdrError):
        TC_OCTET_SEQ.encode(CdrOutputStream(), 12345)
    with pytest.raises(CdrError):
        CdrInputStream(Gather((image[:20], image[20:-3]))).get_view(len(image))


def test_cdr_octet_sequence_is_the_part_when_it_is_exactly_one():
    payload = bytes(1000)
    out = CdrOutputStream()
    TC_OCTET_SEQ.encode(out, payload)
    TC_OCTET_SEQ.encode(out, payload)
    wire = out.getvalue()
    inp = CdrInputStream(wire)
    assert TC_OCTET_SEQ.decode(inp) is payload and TC_OCTET_SEQ.decode(inp) is payload
    # a part that only contains it, or a view of it, is materialised once
    image = bytes(wire)
    inside = TC_OCTET_SEQ.decode(CdrInputStream(image))
    assert type(inside) is bytes and inside == payload and inside is not payload
    viewed = CdrInputStream(Gather((image[:4], memoryview(payload), image[1004:])))
    assert TC_OCTET_SEQ.decode(viewed) is payload  # a view of all of it *is* it
    # and never something the sender could still change
    mutable = bytearray(b"\x00\x00\x00\x03abc")
    snapshot = CdrInputStream(mutable).get_octet_sequence()
    mutable[4:] = b"XYZ"
    assert type(snapshot) is bytes and snapshot == b"abc"


def test_cdr_struct_and_nested_sequence():
    point = StructTC(
        "Point",
        [
            ("x", TC_DOUBLE),
            ("y", TC_DOUBLE),
            ("label", TC_STRING),
            ("layer", TC_SHORT),
            ("stamp", TC_LONGLONG),
            ("weight", TC_FLOAT),
        ],
    )
    path = SequenceTC(point)
    out = CdrOutputStream()
    value = [
        {"x": 1.0, "y": 2.0, "label": "a", "layer": -7, "stamp": 2**40 + 1, "weight": 0.25},
        {"x": -1.0, "y": 0.5, "label": "b", "layer": 300, "stamp": -(2**33), "weight": -1.5},
    ]
    path.encode(out, value)
    assert path.decode(CdrInputStream(out.getvalue())) == value
    with pytest.raises(CdrError):
        point.encode(CdrOutputStream(), {"x": 1.0})  # missing fields


def test_cdr_void():
    out = CdrOutputStream()
    TC_VOID.encode(out, None)
    assert len(out) == 0
    with pytest.raises(CdrError):
        TC_VOID.encode(out, 1)


# --------------------------------------------------------------------------
# GIOP
# --------------------------------------------------------------------------


def test_giop_request_roundtrip():
    req = make_request(17, b"objkey", "compute", b"\x01\x02\x03")
    wire = bytes(req.encode())
    fields, payload = GIOP_HEADER.unpack(wire[:12]), wire[12:]
    assert fields[4] == MSG_REQUEST and body_size(fields) == len(payload)
    decoded = GiopMessage.decode(fields, payload)
    assert decoded.request_id == 17
    assert decoded.object_key == b"objkey"
    assert decoded.operation == "compute"
    assert decoded.body == b"\x01\x02\x03"


def test_giop_reply_roundtrip_and_errors():
    rep = make_reply(9, b"result", status=0)
    wire = bytes(rep.encode())
    fields = GIOP_HEADER.unpack(wire[:12])
    decoded = GiopMessage.decode(fields, wire[12:])
    assert decoded.msg_type == MSG_REPLY and decoded.request_id == 9
    with pytest.raises(GiopError):
        GiopMessage.decode(GIOP_HEADER.unpack(b"NOPE" + wire[4:12]), wire[12:])
    with pytest.raises(GiopError):
        GiopMessage.decode(fields, wire[12:] + b"extra")
    with pytest.raises(GiopError):  # a payload shorter than its own prefix
        GiopMessage.decode((b"GIOP", 1, 2, 0, MSG_REPLY, 4), b"1234")
    # a part boundary inside the prefix: decoded all the same, body intact
    split = GiopMessage.decode(fields, Gather((wire[12:15], wire[15:19], wire[19:])))
    assert (split.request_id, split.reply_status, bytes(split.body)) == (9, 0, b"result")


# --------------------------------------------------------------------------
# Interface / Operation
# --------------------------------------------------------------------------


def test_interface_declaration_and_arg_checking():
    iface = Interface(
        "IDL:Test:1.0",
        [Operation("add", params=(("a", TC_LONG), ("b", TC_LONG)), result=TC_LONG)],
    )
    assert iface.operation_names() == ["add"]
    with pytest.raises(LookupError):
        iface.operation("sub")
    with pytest.raises(ValueError):
        iface.add_operation(Operation("add"))
    out = CdrOutputStream()
    with pytest.raises(CdrError):
        iface.operation("add").encode_args(out, [1])  # wrong arity


# --------------------------------------------------------------------------
# End-to-end ORB invocations
# --------------------------------------------------------------------------

CALC_IDL = Interface(
    "IDL:repro/Calculator:1.0",
    [
        Operation("add", params=(("a", TC_DOUBLE), ("b", TC_DOUBLE)), result=TC_DOUBLE),
        Operation("concat", params=(("s", TC_STRING), ("n", TC_LONG)), result=TC_STRING),
        Operation("checksum", params=(("data", TC_OCTET_SEQ),), result=TC_LONG),
        Operation("fail", params=(), result=TC_VOID),
        Operation("notify", params=(("msg", TC_STRING),), result=TC_VOID, oneway=True),
    ],
)


class Calculator(Servant):
    def __init__(self):
        self.notifications = []

    def add(self, a, b):
        return a + b

    def concat(self, s, n):
        return s * n

    def checksum(self, data):
        return sum(data) % 2**31

    def fail(self):
        raise ValueError("servant-side failure")

    def notify(self, msg):
        self.notifications.append(msg)


def make_orbs(fw, group, profile=OMNIORB_4):
    server_orb = ORB(fw.node(group[1].name), profile)
    client_orb = ORB(fw.node(group[0].name), profile)
    servant = Calculator()
    ref = server_orb.activate_object(servant, CALC_IDL, key="calc")
    proxy = client_orb.object_to_proxy(ref, CALC_IDL)
    return servant, proxy, server_orb, client_orb, ref


def test_orb_invocation_roundtrip(cluster):
    fw, group = cluster
    servant, proxy, server_orb, client_orb, ref = make_orbs(fw, group)

    def scenario():
        total = yield from proxy.invoke("add", 2.5, 4.0)
        text = yield from proxy.invoke("concat", "ab", 3)
        digest = yield from proxy.invoke("checksum", b"\x01\x02\x03\x04")
        return total, text, digest

    total, text, digest = run(fw, scenario())
    assert total == 6.5 and text == "ababab" and digest == 10
    assert server_orb.requests_served == 3


def test_orb_ior_stringification(cluster):
    fw, group = cluster
    servant, proxy, server_orb, client_orb, ref = make_orbs(fw, group)
    ior = ref.to_string()
    assert ior.startswith("corbaloc::")
    parsed = ObjectReference.from_string(ior)
    assert parsed.host_name == ref.host_name
    assert parsed.object_key == ref.object_key
    proxy2 = client_orb.string_to_object(ior, CALC_IDL)

    def scenario():
        return (yield from proxy2.invoke("add", 1.0, 1.0))

    assert run(fw, scenario()) == 2.0
    with pytest.raises(CorbaError):
        ObjectReference.from_string("IOR:00deadbeef")


def test_orb_system_exception_propagates(cluster):
    fw, group = cluster
    servant, proxy, *_ = make_orbs(fw, group)

    def scenario():
        try:
            yield from proxy.invoke("fail")
        except CorbaError as exc:
            return str(exc)

    assert "servant-side failure" in run(fw, scenario())


def test_orb_unknown_object_key(cluster):
    fw, group = cluster
    servant, proxy, server_orb, client_orb, ref = make_orbs(fw, group)
    bogus = ObjectReference(ref.host_name, ref.port, b"missing", CALC_IDL.repo_id)
    bogus_proxy = client_orb.object_to_proxy(bogus, CALC_IDL)

    def scenario():
        try:
            yield from bogus_proxy.invoke("add", 1.0, 1.0)
        except CorbaError:
            return "rejected"

    assert run(fw, scenario()) == "rejected"


def test_orb_call_whose_socket_closes_during_the_marshal_charge_fails_only_its_caller(cluster):
    """The marshalling cost delays the request's send; a client socket
    closed meanwhile fails that call, and the run goes on."""
    fw, group = cluster
    servant, proxy, server_orb, client_orb, ref = make_orbs(fw, group)

    def caller():
        try:
            yield from proxy.invoke("add", 1.0, 2.0)
        except OSError as exc:
            return exc

    def scenario():
        yield from proxy.invoke("add", 0.0, 0.0)  # opens and caches the connection
        call = fw.sim.process(caller())
        yield fw.sim.timeout(client_orb.profile.per_call_overhead / 2)
        proxy.session.sock.close()
        failure = yield call
        yield fw.sim.timeout(1e-3)
        return failure, fw.sim.now

    failure, now = run(fw, scenario())
    assert isinstance(failure, OSError) and now > 1e-3
    assert server_orb.requests_served == 1


def test_orb_call_in_flight_when_the_server_closes_fails_with_connection_error(cluster):
    """The server hangs up on a cached connection while the next request is
    on its way: the request is never answered, and the close fails the
    call instead of leaving its caller parked for good."""
    fw, group = cluster
    servant, proxy, server_orb, client_orb, ref = make_orbs(fw, group)

    def scenario():
        yield from proxy.invoke("add", 0.0, 0.0)  # opens and caches the connection
        for sock in list(server_orb.syswrap._sockets.values()):
            if sock.connected:  # the accepted connection, not the listener
                sock.close()
        try:
            yield from proxy.invoke("add", 1.0, 2.0)
        except ConnectionError as exc:
            return str(exc)

    assert "closed" in run(fw, scenario())
    assert server_orb.requests_served == 1


def close_accepted(syswrap):
    """Hang up every connection ``syswrap``'s listener accepted."""
    for sock in list(syswrap._sockets.values()):
        if sock.connected:  # an accepted connection, not the listener
            sock.close()


@pytest.mark.parametrize("network", ["cluster", "ethernet_cluster"])
def test_orb_call_after_the_server_closed_reopens_the_connection(network, request):
    """The server hangs up between two calls: the close drops the client's
    connection, and the next call connects anew, as the first one did."""
    fw, group = request.getfixturevalue(network)
    servant, proxy, server_orb, client_orb, ref = make_orbs(fw, group)

    def scenario():
        yield from proxy.invoke("add", 0.0, 0.0)
        close_accepted(server_orb.syswrap)
        yield fw.sim.timeout(1e-3)
        return (yield from proxy.invoke("add", 1.0, 2.0))

    assert run(fw, scenario()) == 3.0
    assert server_orb.requests_served == 2
    assert client_orb.syswrap.open_fds() == [4]  # the closed one is released


@pytest.mark.parametrize("network", ["cluster", "ethernet_cluster"])
def test_orb_server_goes_on_when_a_client_hangs_up_before_its_reply(network, request):
    """The demarshalling and marshalling charges delay the reply's send: a
    client that closes meanwhile loses its reply, and the run and the
    server go on (MICO: its copying marshaller charges long enough)."""
    fw, group = request.getfixturevalue(network)
    servant, proxy, server_orb, client_orb, ref = make_orbs(fw, group, MICO_2_3_7)
    out = CdrOutputStream()
    CALC_IDL.operation("checksum").encode_args(out, (b"x" * 64 * 1024,))
    wire = make_request(1, ref.object_key, "checksum", out.getvalue()).encode()

    def scenario():
        sock = SysWrap(fw.node(group[0].name).vlink).socket()
        yield sock.connect((fw.node(group[1].name).host, ref.port))
        yield sock.send(wire)
        sock.close()
        yield fw.sim.timeout(1e-3)
        return (yield from proxy.invoke("add", 2.0, 3.0))

    assert run(fw, scenario()) == 5.0
    assert server_orb.requests_served == 2


def test_orb_oneway_invocation(cluster):
    fw, group = cluster
    servant, proxy, *_ = make_orbs(fw, group)

    def scenario():
        yield from proxy.invoke("notify", "fire-and-forget")
        yield fw.sim.timeout(1e-3)
        return servant.notifications

    assert run(fw, scenario()) == ["fire-and-forget"]


class _CallLog(Servant):
    """Records the order the ORB dispatches its calls in."""

    def __init__(self):
        self.calls = []

    def notify(self, msg):
        self.calls.append(("notify", len(msg)))

    def add(self, a, b):
        self.calls.append(("add", a))
        return a + b

    def checksum(self, data):
        self.calls.append(("checksum", len(data)))
        return len(data)


def test_orb_concurrent_callers_on_one_connection_get_their_own_replies_in_request_order(
    cluster, monkeypatch
):
    """A 256 KiB request, then an 8-byte one on the same cached connection:
    the small request's cheaper demarshalling must not let it overtake the
    large one, at the servant or on the wire."""
    fw, group = cluster
    server_orb = ORB(fw.node(group[1].name), MICO_2_3_7)
    client_orb = ORB(fw.node(group[0].name), MICO_2_3_7)
    servant = _CallLog()
    proxy = client_orb.object_to_proxy(server_orb.activate_object(servant, CALC_IDL), CALC_IDL)
    sent = []
    post = SysWrapSocket.post

    def recording_post(sock, data, failed=None):
        if sock.syswrap is server_orb.syswrap:
            sent.append(struct.unpack_from("!I", bytes(data), 12)[0])  # reply request id
        return post(sock, data, failed)

    monkeypatch.setattr(SysWrapSocket, "post", recording_post)
    big, small = b"B" * 256 * 1024, b"8 bytes!"

    def caller(payload, delay):
        yield fw.sim.timeout(delay)
        return (yield from proxy.invoke("checksum", payload))

    def scenario():
        yield from proxy.invoke("add", 0.0, 0.0)  # opens and caches the connection
        del servant.calls[:], sent[:]
        # the small request leaves once the large one is on the wire
        first = fw.sim.process(caller(big, 0.0))
        second = fw.sim.process(caller(small, client_orb.message_cost(len(big)) + 1e-4))
        return (yield first), (yield second)

    assert run(fw, scenario()) == (len(big), len(small))
    assert servant.calls == [("checksum", len(big)), ("checksum", len(small))]
    assert len(sent) == 2 and sent == sorted(sent)


def test_orb_oneway_then_two_way_reach_the_servant_in_order(cluster):
    fw, group = cluster
    server_orb = ORB(fw.node(group[1].name), MICO_2_3_7)
    client_orb = ORB(fw.node(group[0].name), MICO_2_3_7)
    servant = _CallLog()
    proxy = client_orb.object_to_proxy(server_orb.activate_object(servant, CALC_IDL), CALC_IDL)

    def scenario():
        yield from proxy.invoke("notify", "n" * 200_000)  # returns once sent
        return (yield from proxy.invoke("add", 1.0, 2.0))

    assert run(fw, scenario()) == 3.0
    assert servant.calls == [("notify", 200_000), ("add", 1.0)]


def test_orb_generator_servant_makes_a_nested_invocation(cluster4):
    """A servant method that is a generator runs its nested invocation (to a
    third ORB) before its own reply leaves."""
    fw, group = cluster4
    backend_orb = ORB(fw.node(group[2].name), OMNIORB_4)
    middle_orb = ORB(fw.node(group[1].name), OMNIORB_4)
    client_orb = ORB(fw.node(group[0].name), OMNIORB_4)
    backend = backend_orb.object_to_proxy(
        backend_orb.activate_object(Calculator(), CALC_IDL, key="calc"), CALC_IDL
    )
    backend = middle_orb.object_to_proxy(backend.reference, CALC_IDL)

    class Forwarder(Servant):
        def add(self, a, b):
            total = yield from backend.invoke("add", a, b)
            return total * 10

    front = client_orb.object_to_proxy(
        middle_orb.activate_object(Forwarder(), CALC_IDL, key="fwd"), CALC_IDL
    )

    def scenario():
        first = yield from front.invoke("add", 1.0, 2.0)
        second = yield from front.invoke("add", 0.5, 0.25)
        return first, second

    assert run(fw, scenario()) == (30.0, 7.5)
    assert (middle_orb.requests_served, backend_orb.requests_served) == (2, 2)


def test_orb_duplicate_key_rejected(cluster):
    fw, group = cluster
    orb = ORB(fw.node(group[0].name), OMNIORB_4)
    orb.activate_object(Calculator(), CALC_IDL, key="dup")
    with pytest.raises(CorbaError):
        orb.activate_object(Calculator(), CALC_IDL, key="dup")


def test_orb_runs_over_myrinet_through_syswrap(cluster):
    """The headline claim: an unmodified ORB uses Myrinet because SysWrap maps
    its sockets onto the MadIO VLink driver."""
    fw, group = cluster
    servant, proxy, server_orb, client_orb, ref = make_orbs(fw, group)

    def scenario():
        yield from proxy.invoke("add", 1.0, 1.0)
        return proxy.session.sock.driver_name

    assert run(fw, scenario()) == "madio"


def test_orb_profile_performance_ordering(cluster):
    """Zero-copy ORBs (omniORB) must beat copying ORBs (Mico/ORBacus) on both
    latency and large-message bandwidth — the Figure 3 / Table 1 shape."""
    fw, group = cluster
    measurements = {}
    for profile in (OMNIORB_3, OMNIORB_4, MICO_2_3_7, ORBACUS_4_0_5):
        servant, proxy, *_ = make_orbs(fw, group, profile=profile)

        def scenario(p=proxy):
            yield from p.invoke("checksum", b"w")  # warm up the connection
            t0 = fw.sim.now
            yield from p.invoke("checksum", b"p" * 8)
            latency = (fw.sim.now - t0) / 2
            t0 = fw.sim.now
            yield from p.invoke("checksum", b"B" * 500_000)
            rtt_large = fw.sim.now - t0
            return latency, rtt_large

        measurements[profile.name] = run(fw, scenario())

    lat = {name: m[0] for name, m in measurements.items()}
    bulk = {name: m[1] for name, m in measurements.items()}
    assert lat["omniORB-4.0.0"] < lat["omniORB-3.0.2"] < lat["ORBacus-4.0.5"] < lat["Mico-2.3.7"]
    assert bulk["omniORB-4.0.0"] < bulk["ORBacus-4.0.5"] < bulk["Mico-2.3.7"]
    # copying ORBs are several times slower on bulk transfers
    assert bulk["Mico-2.3.7"] / bulk["omniORB-4.0.0"] > 3.0


def test_orb_profiles_describe():
    assert "zero-copy" in OMNIORB_4.describe()
    assert "copying" in MICO_2_3_7.describe()
