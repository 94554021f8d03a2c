"""Tests for Java sockets, SOAP, HLA, PVM and DSM middleware."""

import pytest

from tests.helpers import run

from repro.middleware.javasockets import DataInputStream, DataOutputStream, JavaSocketLayer
from repro.middleware.soap import (
    SoapClient,
    SoapFault,
    SoapServer,
    build_envelope,
    build_fault,
    parse_envelope,
)
from repro.middleware.hla import FederateAmbassador, RtiAmbassador, RtiGateway
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
