"""Tests for the Madeleine library and the NetAccess arbitration layer."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.host import Host, HostGroup
from repro.simnet.networks import Ethernet100, Myrinet2000, SciNetwork
from repro.madeleine import (
    MadeleineDriver,
    MadeleineError,
    MadIncoming,
    MadMessage,
    PackMode,
)
from repro.madeleine.message import decode_segments, encode_segments, segment_overhead
from repro.arbitration import MadIO, NetAccessCore, SysIO
from repro.arbitration.netaccess import ArbitrationError


def myrinet_pair():
    sim = Simulator()
    net = Myrinet2000(sim)
    a, b = Host(sim, "n0"), Host(sim, "n1")
    net.connect(a)
    net.connect(b)
    return sim, net, a, b, HostGroup("g", [a, b])


# --------------------------------------------------------------------------
# Madeleine messages
# --------------------------------------------------------------------------


def test_pack_modes_roundtrip():
    msg = MadMessage(1)
    msg.pack_express(b"hdr").pack_cheaper(b"body")
    raw = msg.finish()
    incoming = MadIncoming(0, raw)
    assert incoming.unpack_express() == b"hdr"
    assert incoming.unpack_cheaper() == b"body"
    incoming.end_unpacking(require_drained=True)


def test_pack_after_finish_rejected():
    msg = MadMessage(1)
    msg.pack(b"x")
    msg.finish()
    with pytest.raises(MadeleineError):
        msg.pack(b"y")
    with pytest.raises(MadeleineError):
        msg.finish()


def test_unpack_mode_mismatch_detected():
    msg = MadMessage(1)
    msg.pack_cheaper(b"data")
    incoming = MadIncoming(0, msg.finish())
    with pytest.raises(MadeleineError):
        incoming.unpack(PackMode.EXPRESS)


def test_unpack_past_end_and_drain_check():
    msg = MadMessage(1)
    msg.pack(b"only")
    incoming = MadIncoming(0, msg.finish())
    incoming.unpack()
    with pytest.raises(MadeleineError):
        incoming.unpack()
    msg2 = MadMessage(1)
    msg2.pack(b"a").pack(b"b")
    incoming2 = MadIncoming(0, msg2.finish())
    incoming2.unpack()
    with pytest.raises(MadeleineError):
        incoming2.end_unpacking(require_drained=True)


def test_segment_encoding_roundtrip_and_overhead():
    segments = [(PackMode.EXPRESS, b"h"), (PackMode.CHEAPER, b"x" * 100)]
    raw = encode_segments(segments)
    assert len(raw) == 101 + segment_overhead(2)
    assert decode_segments(raw) == segments
    with pytest.raises(MadeleineError):
        decode_segments(raw[:-5])


def test_message_accounting():
    msg = MadMessage(1)
    msg.pack_express(b"1234").pack_cheaper(b"x" * 10)
    assert msg.segment_count == 2
    assert msg.payload_bytes == 14
    assert msg.express_bytes == 4


# --------------------------------------------------------------------------
# Madeleine driver / channels
# --------------------------------------------------------------------------


def test_madeleine_end_to_end_delivery():
    sim, net, a, b, group = myrinet_pair()
    ch_a = MadeleineDriver(a).open_channel("c", net, group)
    ch_b = MadeleineDriver(b).open_channel("c", net, group)
    got = {}

    def on_msg(incoming, delivery):
        got["express"] = incoming.unpack_express()
        got["bulk"] = incoming.unpack_cheaper()
        got["src"] = incoming.src_rank

    ch_b.set_receive_callback(on_msg)
    ch_a.send(1, b"HDR", b"PAYLOAD" * 100)
    sim.run()
    assert got["express"] == b"HDR"
    assert got["bulk"] == b"PAYLOAD" * 100
    assert got["src"] == 0
    assert ch_a.connection(1).messages_sent == 1
    assert ch_b.connection(0).messages_received == 1


def test_madeleine_hardware_channel_limit():
    sim, net, a, b, group = myrinet_pair()
    driver = MadeleineDriver(a)
    driver.open_channel("one", net, group)
    driver.open_channel("two", net, group)
    with pytest.raises(MadeleineError):
        driver.open_channel("three", net, group)  # Myrinet allows only 2


def test_sci_allows_single_channel():
    sim = Simulator()
    net = SciNetwork(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    group = HostGroup("g", [a, b])
    driver = MadeleineDriver(a)
    driver.open_channel("only", net, group)
    with pytest.raises(MadeleineError):
        driver.open_channel("more", net, group)


def test_madeleine_rejects_distributed_network():
    sim = Simulator()
    eth = Ethernet100(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    eth.connect(a)
    eth.connect(b)
    with pytest.raises(MadeleineError):
        MadeleineDriver(a).open_channel("c", eth, HostGroup("g", [a, b]))


def test_madeleine_send_to_self_or_bad_rank_rejected():
    sim, net, a, b, group = myrinet_pair()
    ch = MadeleineDriver(a).open_channel("c", net, group)
    with pytest.raises(MadeleineError):
        ch.begin_packing(0)  # self
    with pytest.raises(MadeleineError):
        ch.begin_packing(5)


def test_madeleine_non_member_cannot_open():
    sim, net, a, b, group = myrinet_pair()
    c = Host(sim, "outsider")
    net.connect(c)
    with pytest.raises(MadeleineError):
        MadeleineDriver(c).open_channel("c", net, group)


# --------------------------------------------------------------------------
# NetAccess core
# --------------------------------------------------------------------------


def test_netaccess_priority_changes_dispatch_cost():
    sim = Simulator()
    h = Host(sim, "h")
    core = NetAccessCore(h)
    core.register_subsystem("madio")
    core.register_subsystem("sysio")
    base = core.dispatch_cost("madio")
    core.set_priority("madio", 4.0)
    assert core.dispatch_cost("madio") < base
    assert core.dispatch_cost("sysio") > base
    with pytest.raises(ArbitrationError):
        core.set_priority("unknown", 1.0)
    with pytest.raises(ArbitrationError):
        core.set_priority("madio", 0.0)


def test_netaccess_dispatch_cost_follows_every_knob_it_is_computed_from():
    """The per-subsystem cost is cached; each input must drop the cache."""
    sim = Simulator()
    core = NetAccessCore(Host(sim, "h"))
    core.register_subsystem("madio")
    callback = core.host.cpu.callback_overhead
    assert core.dispatch_cost("madio") == callback  # alone: no interleaving
    # late registration: a second subsystem makes the first one share
    core.register_subsystem("sysio")
    shared = core.dispatch_cost("madio")
    assert shared == callback + core.poll_slice
    core.register_subsystem("shmem", weight=2.0)
    assert core.dispatch_cost("madio") == callback + core.poll_slice * 3.0
    assert core.dispatch_cost("shmem") == callback + core.poll_slice * (2.0 / 2.0)
    # the hog toggles on and off
    cooperative = {name: core.dispatch_cost(name) for name in core.subsystems()}
    core.set_competitive_baseline("madio")
    assert core.dispatch_cost("madio") == cooperative["madio"]
    assert core.dispatch_cost("sysio") == callback + core.starvation_penalty
    core.starvation_penalty = 1e-3
    assert core.dispatch_cost("sysio") == callback + 1e-3
    core.set_competitive_baseline(None)
    assert {name: core.dispatch_cost(name) for name in core.subsystems()} == cooperative
    # the slice itself
    core.poll_slice *= 2.0
    assert core.dispatch_cost("madio") == callback + core.poll_slice * 3.0
    # and the part that is not cached at all
    core.host.cpu.callback_overhead = 2 * callback
    assert core.dispatch_cost("madio") == 2 * callback + core.poll_slice * 3.0


def test_netaccess_single_subsystem_has_no_interleave_penalty():
    sim = Simulator()
    core = NetAccessCore(Host(sim, "h"))
    core.register_subsystem("madio")
    assert core.dispatch_cost("madio") == pytest.approx(core.host.cpu.callback_overhead)


def test_netaccess_competitive_baseline_starves_others():
    sim = Simulator()
    core = NetAccessCore(Host(sim, "h"))
    core.register_subsystem("madio")
    core.register_subsystem("sysio")
    cooperative = core.dispatch_cost("sysio")
    core.set_competitive_baseline("madio")
    assert core.dispatch_cost("sysio") > 100 * cooperative
    assert core.dispatch_cost("madio") < 1e-6
    core.set_competitive_baseline(None)
    assert core.dispatch_cost("sysio") == pytest.approx(cooperative)
    with pytest.raises(ArbitrationError):
        core.set_competitive_baseline("nope")


def test_netaccess_accounting_and_report():
    sim = Simulator()
    core = NetAccessCore(Host(sim, "h"))
    core.register_subsystem("sysio")
    seconds = core.charge_dispatch("sysio", nbytes=100)
    report = core.fairness_report()
    assert report["sysio"]["dispatches"] == 1
    assert report["sysio"]["bytes"] == 100
    assert seconds == core.dispatch_cost("sysio") > 0


# --------------------------------------------------------------------------
# MadIO
# --------------------------------------------------------------------------


def build_madio_pair(combine_headers=True):
    sim, net, a, b, group = myrinet_pair()
    madio_a = MadIO(NetAccessCore(a), combine_headers=combine_headers)
    madio_b = MadIO(NetAccessCore(b), combine_headers=combine_headers)
    madio_a.attach(net, group)
    madio_b.attach(net, group)
    return sim, net, group, madio_a, madio_b


def test_madio_logical_multiplexing_beyond_hardware_channels():
    """MadIO provides arbitrarily many logical channels over one hw channel."""
    sim, net, group, ma, mb = build_madio_pair()
    received = {}
    channels = []
    for i in range(8):  # far more than Myrinet's 2 hardware channels
        ca = ma.open_logical_channel(f"chan{i}", net)
        cb = mb.open_logical_channel(f"chan{i}", net)
        cb.set_receive_callback(
            lambda src, hdr, body, d, i=i: received.setdefault(i, (hdr, body))
        )
        channels.append(ca)
    for i, ca in enumerate(channels):
        ca.send(1, f"h{i}".encode(), f"b{i}".encode())
    sim.run()
    assert len(received) == 8
    assert received[3] == (b"h3", b"b3")


def test_madio_requires_attach():
    sim, net, a, b, group = myrinet_pair()
    madio = MadIO(NetAccessCore(a))
    with pytest.raises(ArbitrationError):
        madio.open_logical_channel("x", net)
    with pytest.raises(ArbitrationError):
        madio.group_on(net)


def test_madio_header_combining_overhead_below_tenth_of_microsecond():
    """§4.1: 'the overhead of MadIO over plain Madeleine is less than 0.1 us'."""

    def one_way_latency(use_madio, combine=True):
        sim, net, a, b, group = myrinet_pair()
        out = {}
        if use_madio:
            ma = MadIO(NetAccessCore(a), combine_headers=combine)
            mb = MadIO(NetAccessCore(b), combine_headers=combine)
            ma.attach(net, group)
            mb.attach(net, group)
            ca = ma.open_logical_channel("bench", net)
            cb = mb.open_logical_channel("bench", net)
            cb.set_receive_callback(lambda s, h, body, d: out.setdefault("t", d.ready_time()))
            t0 = sim.now
            ca.send(1, b"H" * 8, b"x" * 8)
        else:
            ch_a = MadeleineDriver(a).open_channel("bench", net, group)
            ch_b = MadeleineDriver(b).open_channel("bench", net, group)
            ch_b.set_receive_callback(lambda inc, d: out.setdefault("t", d.ready_time()))
            t0 = sim.now
            ch_a.send(1, b"H" * 8, b"x" * 8)
        sim.run()
        return out["t"] - t0

    plain = one_way_latency(use_madio=False)
    combined = one_way_latency(use_madio=True, combine=True)
    uncombined = one_way_latency(use_madio=True, combine=False)
    assert combined - plain < 0.25e-6  # small overall (includes dispatch)
    assert combined - plain < 0.1e-6 + 0.16e-6  # multiplexing itself < 0.1 us
    assert uncombined > combined  # the ablation: separate headers cost more


def test_madio_rank_translation_for_subgroups():
    sim = Simulator()
    net = Myrinet2000(sim)
    hosts = [Host(sim, f"n{i}") for i in range(3)]
    for h in hosts:
        net.connect(h)
    full = HostGroup("full", hosts)
    sub = HostGroup("sub", [hosts[2], hosts[0]])  # reversed order subset
    madios = []
    for h in hosts:
        m = MadIO(NetAccessCore(h))
        m.attach(net, full)
        madios.append(m)
    got = {}
    c2 = madios[2].open_logical_channel("s", net, sub)
    c0 = madios[0].open_logical_channel("s", net, sub)
    c0.set_receive_callback(lambda src, h, b, d: got.setdefault("msg", (src, b)))
    # host2 is rank 0 of `sub`, host0 is rank 1 of `sub`
    c2.send(1, b"", b"hello")
    sim.run()
    assert got["msg"] == (0, b"hello")


# --------------------------------------------------------------------------
# SysIO
# --------------------------------------------------------------------------


def test_sysio_callback_receipt_loop():
    sim = Simulator()
    eth = Ethernet100(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    eth.connect(a)
    eth.connect(b)
    sys_a = SysIO(NetAccessCore(a))
    sys_b = SysIO(NetAccessCore(b))
    got = {}

    def on_accept(sock):
        sock.set_data_callback(lambda s: got.setdefault("data", s.read_available()))

    sys_b.listen(6000, on_accept)

    def client():
        sock = yield sys_a.connect(b, 6000)
        sock.write(b"callback-me")

    sim.process(client())
    sim.run(max_time=10)
    assert got["data"] == b"callback-me"
    assert sys_b.dispatches >= 1
    assert sys_b.core.stats("sysio").dispatches >= 1


def test_sysio_duplicate_port_rejected():
    sim = Simulator()
    eth = Ethernet100(sim)
    a = Host(sim, "a")
    eth.connect(a)
    sysio = SysIO(NetAccessCore(a))
    sysio.listen(7000)
    with pytest.raises(ArbitrationError):
        sysio.listen(7000)
