"""Tests for Java sockets, SOAP, HLA, PVM and DSM middleware."""

import pytest

from tests.helpers import run

from repro.core import paper_cluster
from repro.middleware.javasockets import DataInputStream, DataOutputStream, JavaSocketLayer
from repro.middleware.soap import (
    SoapClient,
    SoapFault,
    SoapServer,
    build_envelope,
    build_fault,
    http_post,
    on_http_messages,
    parse_envelope,
)
from repro.personalities.syswrap import SysWrap
from repro.middleware.hla import (
    RTI_MESSAGE_OVERHEAD,
    FederateAmbassador,
    RtiAmbassador,
    RtiError,
    RtiGateway,
)
from repro.middleware.pvm import PvmError, PvmTask
from repro.middleware.dsm import DsmError, DsmNode


# --------------------------------------------------------------------------
# Java sockets
# --------------------------------------------------------------------------


def test_java_sockets_data_streams(cluster):
    fw, group = cluster
    layer0 = JavaSocketLayer(fw.node(group[0].name))
    layer1 = JavaSocketLayer(fw.node(group[1].name))
    server_socket = layer1.server_socket(6100)

    def scenario():
        accept = fw.sim.process(server_socket.accept())
        client = layer0.socket()
        yield from client.connect(fw.node(group[1].name).host, 6100)
        server = yield accept
        out = DataOutputStream(client)
        inp = DataInputStream(server)
        yield from out.write_int(42)
        yield from out.write_long(-(2**40) - 3)
        yield from out.write_double(2.75)
        yield from out.write_utf("grid")
        yield from out.write_fully(b"raw")
        i = yield from inp.read_int()
        j = yield from inp.read_long()
        d = yield from inp.read_double()
        s = yield from inp.read_utf()
        raw = yield from inp.read_fully(3)
        return i, j, d, s, raw, client.driver_name

    i, j, d, s, raw, driver = run(fw, scenario())
    assert (i, j, d, s, raw) == (42, -(2**40) - 3, 2.75, "grid", b"raw")
    assert driver == "madio"  # the JVM socket layer rides Myrinet transparently


def test_java_socket_latency_much_higher_than_mpi(cluster):
    fw, group = cluster
    layer0 = JavaSocketLayer(fw.node(group[0].name))
    layer1 = JavaSocketLayer(fw.node(group[1].name))
    server_socket = layer1.server_socket(6101)

    def scenario():
        accept = fw.sim.process(server_socket.accept())
        client = layer0.socket()
        yield from client.connect(fw.node(group[1].name).host, 6101)
        server = yield accept
        yield from client.write(b"w" * 8)
        yield from server.read(8)
        t0 = fw.sim.now
        yield from client.write(b"p" * 8)
        yield from server.read(8)
        return fw.sim.now - t0

    one_way = run(fw, scenario())
    assert 35e-6 < one_way < 46e-6  # paper: 40 us


def test_java_write_whose_socket_closes_during_its_charge_fails_only_the_writer(cluster):
    """The JVM cost delays the send; a socket closed meanwhile fails the
    write's caller, and the run goes on."""
    fw, group = cluster
    layer0 = JavaSocketLayer(fw.node(group[0].name))
    layer1 = JavaSocketLayer(fw.node(group[1].name))
    server_socket = layer1.server_socket(6102)

    def writer(client):
        try:
            yield from client.write(b"8 bytes!")
        except OSError as exc:
            return exc

    def scenario():
        accept = fw.sim.process(server_socket.accept())
        client = layer0.socket()
        yield from client.connect(fw.node(group[1].name).host, 6102)
        yield accept
        write = fw.sim.process(writer(client))
        yield fw.sim.timeout(client.profile.per_call_overhead / 2)
        client.close()
        failure = yield write
        yield fw.sim.timeout(1e-3)
        return failure, fw.sim.now

    failure, now = run(fw, scenario())
    assert isinstance(failure, OSError) and now > 1e-3


# --------------------------------------------------------------------------
# SOAP
# --------------------------------------------------------------------------


def test_soap_envelope_roundtrip():
    xml = build_envelope("monitor", {"step": 12, "residual": 0.5, "name": "solver<1>", "ok": True})
    op, params = parse_envelope(xml)
    assert op == "monitor"
    values = dict(params)
    assert values == {"step": 12, "residual": 0.5, "name": "solver<1>", "ok": True}


def test_soap_envelope_with_binary_and_list():
    xml = build_envelope("put", {"blob": b"\x00\x01\x02", "series": [1, 2.5, "x"]})
    _, params = parse_envelope(xml)
    values = dict(params)
    assert values["blob"] == b"\x00\x01\x02"
    assert values["series"] == [1, 2.5, "x"]


def test_soap_fault_parsing():
    with pytest.raises(SoapFault, match="broken"):
        parse_envelope(build_fault("broken"))
    with pytest.raises(SoapFault):
        parse_envelope("<not-soap/>")


def test_soap_rpc_end_to_end(cluster):
    fw, group = cluster
    server = SoapServer(fw.node(group[1].name), 18200)
    state = {}
    server.register(
        "set_progress",
        lambda step=0, residual=0.0: state.update(step=step, residual=residual) or True,
    )
    server.register("get_step", lambda: state.get("step", -1))
    client = SoapClient(fw.node(group[0].name), fw.node(group[1].name).host, 18200)

    def scenario():
        ok = yield from client.call("set_progress", step=7, residual=0.125)
        step = yield from client.call("get_step")
        return ok, step

    ok, step = run(fw, scenario())
    assert ok is True and step == 7
    assert server.requests_served == 2


def test_soap_unknown_operation_returns_fault(cluster):
    fw, group = cluster
    SoapServer(fw.node(group[1].name), 18201)
    client = SoapClient(fw.node(group[0].name), fw.node(group[1].name).host, 18201)

    def scenario():
        try:
            yield from client.call("nothing_here")
        except SoapFault as exc:
            return str(exc)

    assert "nothing_here" in run(fw, scenario())


def test_soap_generator_handler_answers_after_its_own_calls_and_in_request_order(cluster):
    """A handler that is a generator runs as a process for its request: a
    later request on the same connection is answered after it."""
    fw, group = cluster
    server = SoapServer(fw.node(group[1].name), 18202)
    log = []

    def slow(n=0):
        yield fw.sim.timeout(1e-3)
        log.append(("slow", fw.sim.now))
        return n * 2

    server.register("slow", slow)
    server.register("fast", lambda n=0: n + 1)
    client = SoapClient(fw.node(group[0].name), fw.node(group[1].name).host, 18202)

    def call(operation, n, delay):
        yield fw.sim.timeout(delay)
        value = yield from client.call(operation, n=n)
        log.append((operation, fw.sim.now))
        return value

    def scenario():
        yield from client.call("fast", n=0)  # opens the connection
        first = fw.sim.process(call("slow", 21, 0.0))
        second = fw.sim.process(call("fast", 1, 1e-4))  # sent while "slow" runs
        return (yield first), (yield second)

    assert run(fw, scenario()) == (42, 2)
    assert [name for name, _at in log] == ["slow", "slow", "fast"]
    assert server.requests_served == 3


def test_soap_requests_arriving_in_pieces_are_parsed_from_the_buffer(cluster):
    """HTTP framing is read from the connection's buffer as it fills: a
    request split inside its headers and inside its body is answered once
    whole, and a second request in the same write after it is answered too."""
    fw, group = cluster
    server = SoapServer(fw.node(group[1].name), 18203)
    server.register("echo", lambda data="": data)
    host = fw.node(group[1].name).host
    first = http_post("/soap", host.name, build_envelope("echo", {"data": "pieces"}).encode())
    second = http_post("/soap", host.name, build_envelope("echo", {"data": "next"}).encode())
    cuts = (first.index(b"\r\n") + 3, len(first) - 10)
    pieces = (first[: cuts[0]], first[cuts[0] : cuts[1]], first[cuts[1] :] + second)
    replies = []

    def scenario():
        sock = SysWrap(fw.node(group[0].name).vlink).socket()
        yield sock.connect((host, 18203))
        on_http_messages(sock, lambda body: replies.append(parse_envelope(body.decode())))
        served = []
        for piece in pieces:
            yield sock.send(piece)
            yield fw.sim.timeout(1e-3)
            served.append(server.requests_served)
        return served

    assert run(fw, scenario()) == [0, 0, 2]
    assert replies == [
        ("echoResponse", [("return", "pieces")]),
        ("echoResponse", [("return", "next")]),
    ]


def test_soap_call_fails_when_the_server_closes_the_connection(cluster):
    fw, group = cluster
    server = fw.node(group[1].name)
    listener = SysWrap(server.vlink).socket()
    listener.bind((server.host.name, 18204))
    listener.listen()
    # a peer that hangs up on the request instead of answering it
    listener.on_ready(lambda sock: sock.on_ready(lambda _stream: sock.close()))
    client = SoapClient(fw.node(group[0].name), server.host, 18204)

    def scenario():
        try:
            yield from client.call("echo", data="x")
        except ConnectionError as exc:
            return str(exc)

    assert "closed" in run(fw, scenario())


@pytest.mark.parametrize("network", ["cluster", "ethernet_cluster"])
def test_soap_server_goes_on_when_a_client_hangs_up_before_its_reply(network, request):
    """The decoding and encoding charges delay the reply's send: a client
    that closes meanwhile loses its reply, and the run and the server go on."""
    fw, group = request.getfixturevalue(network)
    server = SoapServer(fw.node(group[1].name), 18205)
    server.register("echo", lambda data="": data)
    host = fw.node(group[1].name).host
    client = SoapClient(fw.node(group[0].name), host, 18205)

    def scenario():
        sock = SysWrap(fw.node(group[0].name).vlink).socket()
        yield sock.connect((host, 18205))
        yield sock.send(http_post("/soap", host.name, build_envelope("echo", {"data": "x"}).encode()))
        sock.close()
        yield fw.sim.timeout(1e-3)
        return (yield from client.call("echo", data="next"))

    assert run(fw, scenario()) == "next"
    assert server.requests_served == 2


def close_accepted(syswrap):
    """Hang up every connection ``syswrap``'s listener accepted."""
    for sock in list(syswrap._sockets.values()):
        if sock.connected:  # an accepted connection, not the listener
            sock.close()


@pytest.mark.parametrize("network", ["cluster", "ethernet_cluster"])
def test_soap_call_after_the_server_closed_reopens_the_connection(network, request):
    """The server hangs up between two calls: the next call connects anew."""
    fw, group = request.getfixturevalue(network)
    server = SoapServer(fw.node(group[1].name), 18207)
    server.register("echo", lambda data="": data)
    client = SoapClient(fw.node(group[0].name), fw.node(group[1].name).host, 18207)

    def scenario():
        first = yield from client.call("echo", data="first")
        close_accepted(server.syswrap)
        yield fw.sim.timeout(1e-3)
        return first, (yield from client.call("echo", data="second"))

    assert run(fw, scenario()) == ("first", "second")
    assert server.requests_served == 2
    assert client.syswrap.open_fds() == [4]  # the closed one is released


@pytest.mark.parametrize("network", ["cluster", "ethernet_cluster"])
def test_soap_client_that_closes_its_connection_reconnects_on_the_next_call(network, request):
    """Closing a socket runs its close callback on every VLink driver (TCP
    runs its own only on the peer's FIN): the session forgets the closed
    connection, and the next call connects anew."""
    fw, group = request.getfixturevalue(network)
    server = SoapServer(fw.node(group[1].name), 18209)
    server.register("echo", lambda data="": data)
    client = SoapClient(fw.node(group[0].name), fw.node(group[1].name).host, 18209)

    def scenario():
        first = yield from client.call("echo", data="first")
        client.session.sock.close()
        assert client.session.sock is None
        return first, (yield from client.call("echo", data="second"))

    assert run(fw, scenario()) == ("first", "second")
    assert client.syswrap.open_fds() == [4]


@pytest.mark.parametrize("network", ["cluster", "ethernet_cluster"])
def test_soap_call_whose_connect_is_refused_fails_and_releases_its_socket(network, request):
    fw, group = request.getfixturevalue(network)
    client = SoapClient(fw.node(group[0].name), fw.node(group[1].name).host, 18208)

    def scenario():
        try:
            yield from client.call("echo", data="x")
        except ConnectionError as exc:  # refused: by the MadIO driver or by TCP
            return exc

    assert isinstance(run(fw, scenario()), ConnectionError)
    assert client.syswrap.open_fds() == []


def test_soap_generator_handler_that_raises_is_answered_with_a_fault(cluster):
    """A handler that fails after its own calls is answered in order, as a
    fault, and the connection serves the next call."""
    fw, group = cluster
    server = SoapServer(fw.node(group[1].name), 18209)

    def failing(n=0):
        yield fw.sim.timeout(1e-3)
        raise ValueError(f"cannot serve {n}")

    server.register("failing", failing)
    server.register("echo", lambda data="": data)
    client = SoapClient(fw.node(group[0].name), fw.node(group[1].name).host, 18209)

    def scenario():
        try:
            yield from client.call("failing", n=7)
        except SoapFault as exc:
            return str(exc), (yield from client.call("echo", data="next"))

    assert run(fw, scenario()) == ("cannot serve 7", "next")


def test_soap_first_calls_racing_to_connect_each_get_their_own_reply(cluster):
    """Two calls made before the client is connected each open a connection;
    each gets the reply to its own request, though the later, smaller one
    is answered first."""
    fw, group = cluster
    server = SoapServer(fw.node(group[1].name), 18206)
    server.register("echo", lambda data="": data)
    client = SoapClient(fw.node(group[0].name), fw.node(group[1].name).host, 18206)
    big = "B" * 256 * 1024

    def call(data, delay):
        yield fw.sim.timeout(delay)
        return (yield from client.call("echo", data=data))

    # the small call is encoded just after the big one, while it connects
    encoded = client.profile.cost(len(build_envelope("echo", {"data": big}).encode()))
    lag = encoded - client.profile.per_call_overhead + 1e-6

    def scenario():
        first = fw.sim.process(call(big, 0.0))
        second = fw.sim.process(call("small", lag))
        return (yield first), (yield second)

    assert run(fw, scenario()) == (big, "small")


# --------------------------------------------------------------------------
# HLA
# --------------------------------------------------------------------------


class _Recorder(FederateAmbassador):
    def __init__(self):
        self.reflections = []

    def reflect_attribute_values(self, object_id, object_class, attributes, sender, timestamp):
        self.reflections.append((object_id, object_class, attributes, sender))


def test_hla_publish_subscribe_reflection(cluster4):
    fw, group = cluster4
    RtiGateway(fw.node(group[0].name), port=17100)
    recorder = _Recorder()
    publisher = RtiAmbassador(fw.node(group[1].name), group[0], port=17100)
    subscriber = RtiAmbassador(fw.node(group[2].name), group[0], port=17100,
                               federate_ambassador=recorder)

    def scenario():
        yield from publisher.create_federation_execution("simulation")
        yield from publisher.join_federation_execution("producer", "simulation")
        yield from subscriber.join_federation_execution("consumer", "simulation")
        yield from publisher.publish_object_class("Aircraft")
        yield from subscriber.subscribe_object_class("Aircraft")
        obj = yield from publisher.register_object_instance("Aircraft")
        yield from publisher.update_attribute_values(obj, {"alt": 10_000, "speed": 240.0})
        yield fw.sim.timeout(5e-3)
        return obj, recorder.reflections

    obj, reflections = run(fw, scenario())
    assert len(reflections) == 1
    object_id, object_class, attributes, sender = reflections[0]
    assert object_id == obj and object_class == "Aircraft"
    assert attributes == {"alt": 10_000, "speed": 240.0} and sender == "producer"


def test_hla_join_unknown_federation_fails(cluster):
    fw, group = cluster
    RtiGateway(fw.node(group[0].name), port=17101)
    amb = RtiAmbassador(fw.node(group[1].name), group[0], port=17101)

    def scenario():
        try:
            yield from amb.join_federation_execution("lost", "does-not-exist")
        except Exception as exc:  # RtiError
            return type(exc).__name__

    assert run(fw, scenario()) == "RtiError"


def test_hla_rtig_drops_a_federate_whose_connection_closes(cluster):
    fw, group = cluster
    rtig = RtiGateway(fw.node(group[0].name), port=17102)
    amb = RtiAmbassador(fw.node(group[1].name), group[0], port=17102)

    def scenario():
        yield from amb.create_federation_execution("sim")
        yield from amb.join_federation_execution("leaver", "sim")
        joined = sorted(rtig._federations["sim"])
        amb.session.sock.close()
        yield fw.sim.timeout(1e-3)
        return joined, sorted(rtig._federations["sim"])

    assert run(fw, scenario()) == (["leaver"], [])


def test_hla_request_in_flight_when_the_rtig_closes_fails_with_connection_error(cluster):
    """The RTIG hangs up after a request left the federate (its overhead
    after the call) and before the answer (the RTIG's overhead after the
    request arrives): the close fails the request instead of leaving the
    federate parked for good."""
    fw, group = cluster
    rtig = RtiGateway(fw.node(group[0].name), port=17104)
    amb = RtiAmbassador(fw.node(group[1].name), group[0], port=17104)

    def join():
        try:
            yield from amb.join_federation_execution("late", "sim")
        except ConnectionError as exc:
            return str(exc)

    def scenario():
        yield from amb.create_federation_execution("sim")
        call = fw.sim.process(join())
        yield fw.sim.timeout(1.5 * RTI_MESSAGE_OVERHEAD)
        assert len(amb.session.waiters) == 1  # the request is on its way
        for sock in list(rtig.syswrap._sockets.values()):
            if sock.connected:  # the federate's connection, not the listener
                sock.close()
        return (yield call)

    assert "closed" in run(fw, scenario())


@pytest.mark.parametrize("network", ["cluster", "ethernet_cluster"])
def test_hla_request_after_the_rtig_closed_reopens_the_connection(network, request):
    """The RTIG hangs up: the next request connects anew, and the federate
    joins again on the new connection."""
    fw, group = request.getfixturevalue(network)
    rtig = RtiGateway(fw.node(group[0].name), port=17105)
    amb = RtiAmbassador(fw.node(group[1].name), group[0], port=17105)

    def scenario():
        yield from amb.create_federation_execution("sim")
        yield from amb.join_federation_execution("f1", "sim")
        close_accepted(rtig.syswrap)
        yield fw.sim.timeout(1e-3)
        name = yield from amb.join_federation_execution("f1", "sim")
        yield from amb.publish_object_class("Aircraft")
        return name, sorted(rtig._federations["sim"]["f1"].published)

    assert run(fw, scenario()) == ("f1", ["Aircraft"])
    assert amb.syswrap.open_fds() == [4]


@pytest.mark.parametrize("network", ["cluster", "ethernet_cluster"])
def test_hla_rtig_that_closes_a_federate_connection_drops_the_federate(network, request):
    fw, group = request.getfixturevalue(network)
    rtig = RtiGateway(fw.node(group[0].name), port=17108)
    amb = RtiAmbassador(fw.node(group[1].name), group[0], port=17108)

    def scenario():
        yield from amb.create_federation_execution("sim")
        yield from amb.join_federation_execution("f1", "sim")
        joined = sorted(rtig._federations["sim"])
        close_accepted(rtig.syswrap)
        return joined, sorted(rtig._federations["sim"]), len(rtig._members)

    assert run(fw, scenario()) == (["f1"], [], 0)


def test_hla_first_requests_racing_to_connect_keep_one_connection(cluster):
    """Two requests made before the federate is connected each open a
    connection and are answered on it; the one that lost the race is closed
    once its reply is in."""
    fw, group = cluster
    RtiGateway(fw.node(group[0].name), port=17107)
    amb = RtiAmbassador(fw.node(group[1].name), group[0], port=17107)

    def scenario():
        first = fw.sim.process(amb.create_federation_execution("a"))
        second = fw.sim.process(amb.join_federation_execution("f1", "nowhere"))
        yield first
        try:
            yield second
        except RtiError as exc:
            return str(exc)

    assert run(fw, scenario()) == "no such federation"
    assert len(amb.syswrap.open_fds()) == 1


def test_hla_services_before_joining_are_errors_and_the_rtig_goes_on(cluster):
    """A connection that has not joined (a new federate, or one that
    reconnected after a close) gets an error for every federation service,
    and the RTIG keeps serving."""
    fw, group = cluster
    rtig = RtiGateway(fw.node(group[0].name), port=17106)
    amb = RtiAmbassador(fw.node(group[1].name), group[0], port=17106)
    services = [
        lambda: amb.publish_object_class("Aircraft"),
        lambda: amb.subscribe_object_class("Aircraft"),
        lambda: amb.register_object_instance("Aircraft"),
        lambda: amb.update_attribute_values(1, {"alt": 1}),
    ]

    def scenario():
        errors = []
        for service in services:
            try:
                yield from service()
            except RtiError as exc:
                errors.append(str(exc))
        yield from amb.create_federation_execution("sim")
        yield from amb.join_federation_execution("f1", "sim")
        yield from amb.publish_object_class("Aircraft")
        return errors

    errors = run(fw, scenario())
    assert len(errors) == 4 and all("before joining" in error for error in errors)
    assert rtig._federations["sim"]["f1"].published == {"Aircraft"}


def test_hla_rtig_goes_on_when_a_federate_hangs_up_before_its_reply(cluster):
    """The RTIG answers a message its overhead after it arrived: a federate
    that closes meanwhile loses the answer, and the gateway goes on."""
    fw, group = cluster
    RtiGateway(fw.node(group[0].name), port=17103)
    amb = RtiAmbassador(fw.node(group[1].name), group[0], port=17103)

    def scenario():
        sock = SysWrap(fw.node(group[1].name).vlink).socket()
        yield sock.connect((group[0], 17103))
        yield sock.send(RtiGateway._encode({"kind": "create_federation", "federation": "a"}))
        sock.close()
        yield fw.sim.timeout(1e-3)
        yield from amb.join_federation_execution("late", "a")
        return "joined"

    assert run(fw, scenario()) == "joined"


# --------------------------------------------------------------------------
# PVM
# --------------------------------------------------------------------------


def test_pvm_pack_send_receive(cluster):
    fw, group = cluster
    t0 = PvmTask(fw.node(group[0].name), group)
    t1 = PvmTask(fw.node(group[1].name), group)
    assert t0.mytid != t1.mytid
    assert t1.tid_of_rank(0) == t0.mytid

    def scenario():
        t0.initsend()
        t0.pkint([1, 2, 3])
        t0.pkdouble([0.5])
        t0.pkstr("pvm")
        t0.pkbyte(b"\xff\x00")
        t0.send(t1.mytid, tag=4)
        src = yield from t1.recv(tag=4)
        ints = t1.upkint()
        dbl = t1.upkdouble()
        text = t1.upkstr()
        raw = t1.upkbyte()
        return src, ints, dbl, text, raw

    src, ints, dbl, text, raw = run(fw, scenario())
    assert src == t0.mytid
    assert ints.tolist() == [1, 2, 3] and dbl.tolist() == [0.5]
    assert text == "pvm" and raw == b"\xff\x00"


def test_pvm_usage_errors_and_nrecv(cluster):
    fw, group = cluster
    t0 = PvmTask(fw.node(group[0].name), group)
    t1 = PvmTask(fw.node(group[1].name), group)
    with pytest.raises(PvmError):
        t0.pkint([1])  # no initsend
    with pytest.raises(PvmError):
        t1.upkint()  # no active receive buffer
    assert t1.nrecv() is False

    def scenario():
        t0.initsend()
        t0.pkstr("typed")
        t0.send(t1.mytid, tag=1)
        yield fw.sim.timeout(1e-3)
        assert t1.nrecv(tag=1) is True
        with pytest.raises(PvmError):
            t1.upkint()  # type mismatch: packed a string
        return True

    assert run(fw, scenario()) is True


def test_pvm_recv_takes_an_already_queued_message_without_waiting(cluster):
    fw, group = cluster
    t0 = PvmTask(fw.node(group[0].name), group)
    t1 = PvmTask(fw.node(group[1].name), group)

    def scenario():
        for tag, text in ((1, "first"), (2, "second")):
            t0.initsend()
            t0.pkstr(text)
            t0.send(t1.mytid, tag=tag)
        yield fw.sim.timeout(1e-3)  # both queued on t1
        arrived = fw.sim.now
        src = yield from t1.recv(tag=2)
        second = t1.upkstr()
        yield from t1.recv(tag=1)
        return src, second, t1.upkstr(), fw.sim.now == arrived

    assert run(fw, scenario()) == (t0.mytid, "second", "first", True)


# --------------------------------------------------------------------------
# DSM
# --------------------------------------------------------------------------


def test_dsm_read_write_ownership(cluster):
    fw, group = cluster
    d0 = DsmNode(fw.node(group[0].name), group, pages=8, page_size=256)
    d1 = DsmNode(fw.node(group[1].name), group, pages=8, page_size=256)
    assert d0.home_of(0) == 0 and d0.home_of(1) == 1

    def scenario():
        # rank 0 writes to a page whose home is rank 1: ownership migrates
        yield from d0.write(1, b"written-by-rank0")
        data_local = yield from d0.read(1)
        # rank 1 reads it back across the network
        data_remote = yield from d1.read(1)
        return data_local[:16], data_remote[:16], d0.remote_acquires, d1.remote_reads

    local, remote, acquires, reads = run(fw, scenario())
    assert local == b"written-by-rank0"
    assert remote == b"written-by-rank0"
    assert acquires == 1 and reads == 1
    assert 1 in d0.owned_pages()


def test_dsm_invalidation_on_write_after_read(cluster):
    fw, group = cluster
    d0 = DsmNode(fw.node(group[0].name), group, pages=4, page_size=128)
    d1 = DsmNode(fw.node(group[1].name), group, pages=4, page_size=128)

    def scenario():
        # rank 1 caches page 0 (home: rank 0)
        yield from d1.read(0)
        assert d1.is_cached(0)
        # rank 0 (the home) hands ownership to rank 1? no — rank 0 writes,
        # which must invalidate rank 1's cached copy
        yield from d0.write(0, b"fresh")
        yield fw.sim.timeout(2e-3)
        was_invalidated = not d1.is_cached(0)
        data = yield from d1.read(0)
        return was_invalidated, data[:5]

    was_invalidated, data = run(fw, scenario())
    assert was_invalidated
    assert data == b"fresh"


def test_dsm_two_hop_read_is_answered_by_the_owner_to_the_reader():
    """Rank 1 owns page 0 (home: rank 0) after writing it; rank 2's read
    goes to the home, which forwards it, and the owner answers rank 2."""
    fw, group = paper_cluster(3)
    nodes = [DsmNode(fw.node(host.name), group, pages=4, page_size=64) for host in group]

    def scenario():
        yield from nodes[1].write(0, b"owned-by-rank1")
        data = yield from nodes[2].read(0)
        return data[:14]

    assert run(fw, scenario(), max_time=1.0) == b"owned-by-rank1"
    assert 0 in nodes[1].owned_pages() and nodes[2].is_cached(0)


def test_dsm_bounds_checks(cluster):
    fw, group = cluster
    d0 = DsmNode(fw.node(group[0].name), group, pages=2, page_size=64)
    with pytest.raises(DsmError):
        d0.home_of(99)

    def scenario():
        try:
            yield from d0.write(0, b"x" * 100)
        except DsmError:
            return "too-big"

    assert run(fw, scenario()) == "too-big"
