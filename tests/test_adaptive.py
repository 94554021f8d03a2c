"""Tests for adaptive VLinks (live migration without byte loss/reorder),
relay teardown propagation, and the stream-mesh message-order fix."""

import pytest

from tests.helpers import run

from repro.abstraction import LinkClass, Route, VLinkState
from repro.core import PadicoFramework
from repro.methods import register_wan_method_drivers
from repro.simnet.buffers import Gather
from repro.simnet.cost import Cost
from repro.simnet.networks import Ethernet100, WanVthd


def wan_pair_with_backup(register_methods=False):
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
    fw.boot()
    if register_methods:
        register_wan_method_drivers(fw.node("edge"))
        register_wan_method_drivers(fw.node("remote"))
    return fw, edge, gw, remote, wan, lan, wan2


def pattern(n, offset=0):
    return bytes((i + offset) % 251 for i in range(n))


# --------------------------------------------------------------------------
# Adaptive sessions: plain operation
# --------------------------------------------------------------------------


def test_adaptive_session_carries_bytes_both_ways(cluster):
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    listener = n1.vlink_listen(8000, adaptive=True)

    def scenario():
        accept_op = listener.accept()
        client = yield n0.vlink_connect(n1, 8000, adaptive=True)
        server = yield accept_op
        w = client.write(pattern(50_000))
        data = yield server.read(50_000)
        yield w  # write op completes on peer delivery (cumulative ack)
        server.write(b"pong")
        back = yield client.read(4)
        return client, server, data, back

    client, server, data, back = run(fw, scenario())
    assert data == pattern(50_000)
    assert back == b"pong"
    assert client.state is VLinkState.ESTABLISHED
    assert client.migrations == 0
    assert client.unacked == 0
    assert client.driver_name == "madio"  # SAN pair keeps the seed choice


def test_adaptive_session_reads_take_the_gather_keyword(cluster):
    """An adaptive session is VLink-shaped: ``read`` and ``read_available``
    hand out the delivered frames by reference on request."""
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    listener = n1.vlink_listen(8001, adaptive=True)

    def scenario():
        accept_op = listener.accept()
        client = yield n0.vlink_connect(n1, 8001, adaptive=True)
        server = yield accept_op
        for offset in (0, 1000, 2000):
            yield client.write(pattern(1000, offset))
        spanning = yield server.read(1500, gather=True)
        flat = yield server.read(500)
        rest = server.read_available(gather=True)
        return server, spanning, flat, rest

    server, spanning, flat, rest = run(fw, scenario())
    assert type(spanning) is Gather and len(spanning.parts) == 2
    assert bytes(spanning) == pattern(1000) + pattern(500, 1000)
    assert type(flat) is bytes and flat == pattern(500, 1500)
    assert type(rest) is bytes and rest == pattern(1000, 2000)  # one whole chunk
    assert server.bytes_read == 3000 and server.available() == 0


def test_adaptive_connect_refused_without_listener(cluster):
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    n1.vlink_listen(8050)  # plain listener: hello never answered properly

    def scenario():
        try:
            yield n0.vlink_connect(n1, 8051, adaptive=True)
        except ConnectionError:
            return "refused"

    assert run(fw, scenario()) == "refused"


def test_adaptive_close_propagates(cluster):
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    listener = n1.vlink_listen(8100, adaptive=True)

    def scenario():
        accept_op = listener.accept()
        client = yield n0.vlink_connect(n1, 8100, adaptive=True)
        server = yield accept_op
        client.write(b"bye")
        data = yield server.read(3)
        client.close()
        read_op = server.read(1)
        try:
            yield read_op
        except ConnectionError:
            return data, server.state

    data, state = run(fw, scenario())
    assert data == b"bye"
    assert state is VLinkState.CLOSED
    assert fw.node(group[0].name).vlink.adaptive_links() == []


def test_pending_write_fails_when_peer_closes(cluster):
    """A write outstanding when the peer's CLOSE lands must fail, not hang."""
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    listener = n1.vlink_listen(8150, adaptive=True)

    def scenario():
        accept_op = listener.accept()
        client = yield n0.vlink_connect(n1, 8150, adaptive=True)
        server = yield accept_op
        w = client.write(b"x" * 2_000_000)  # acks take a while
        server.close()
        try:
            yield w
            return "completed"
        except ConnectionError:
            return "failed cleanly"

    assert run(fw, scenario(), max_time=120) == "failed cleanly"


def test_close_during_migration_flushes_buffered_bytes(cluster):
    """Bytes written while a migration is in flight must still reach the
    peer when the session closes (no silent truncation)."""
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    listener = n1.vlink_listen(8160, adaptive=True)

    def scenario():
        accept_op = listener.accept()
        client = yield n0.vlink_connect(n1, 8160, adaptive=True)
        server = yield accept_op
        client._migrating = True  # as if a migration were in flight
        client.write(pattern(5000))
        client.close()
        data = yield server.read(5000)
        return data, server.truncated

    data, truncated = run(fw, scenario(), max_time=120)
    assert data == pattern(5000)
    assert not truncated


def test_closed_adaptive_listener_refuses_new_sessions(cluster):
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    listener = n1.vlink_listen(8170, adaptive=True)
    listener.close()

    def scenario():
        try:
            yield n0.vlink_connect(n1, 8170, adaptive=True)
            return "accepted"
        except ConnectionError:
            return "refused"

    assert run(fw, scenario(), max_time=120) == "refused"
    assert listener.sessions == {}


# --------------------------------------------------------------------------
# Migration under churn
# --------------------------------------------------------------------------


def test_adaptive_link_migrates_to_gateway_route_on_link_death():
    """The acceptance scenario in miniature (oracle announce): the WAN dies
    mid-transfer, the open VLink migrates to the gateway route, every byte
    arrives intact and in order."""
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    listener = fw.node("remote").vlink_listen(8200, adaptive=True)
    injector = fw.fault_injector(seed=21)
    total = 600_000
    chunk = 60_000

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 8200, adaptive=True)
        server = yield accept_op
        assert client.rail_signature[0][0] == "sysio"
        assert client.rail_signature[0][1] == "wan-direct"
        for i in range(total // chunk):
            client.write(pattern(chunk, offset=i))
            if i == 2:
                injector.fail_link_at(fw.sim.now + 0.005, wan)
        data = yield server.read(total)
        return client, server, data

    client, server, data = run(fw, scenario(), max_time=300)
    expected = b"".join(pattern(chunk, offset=i) for i in range(total // chunk))
    assert data == expected  # intact and in order across the migration
    assert client.migrations == 1
    assert isinstance(client.route, Route) and len(client.route) == 2
    assert [h.name for h in client.route.gateways()] == ["gw"]
    assert fw.node("gw").gateway_relay.relayed >= 1


def test_adaptive_server_push_survives_migration():
    """Bytes the server wrote while the old rail was dying are retransmitted
    on the resumed rail (reverse-direction recovery)."""
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    listener = fw.node("remote").vlink_listen(8300, adaptive=True)
    injector = fw.fault_injector(seed=22)
    total = 200_000

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 8300, adaptive=True)
        server = yield accept_op
        server.write(pattern(total))
        # kill the direct WAN while the server->client stream is in flight
        injector.fail_link_at(fw.sim.now + 0.02, wan)
        data = yield client.read(total)
        return client, data

    client, data = run(fw, scenario(), max_time=300)
    assert data == pattern(total)
    assert client.migrations == 1


def test_adaptive_migrates_to_better_method_on_reclassification():
    """Measured loss pushes the link to LOSSY_WAN: the open VLink migrates
    from parallel streams to the (zero-tolerance) VRP rail on the same wire."""
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup(register_methods=True)
    listener = fw.node("remote").vlink_listen(8400, adaptive=True)
    total = 120_000

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 8400, adaptive=True)
        server = yield accept_op
        assert client.driver_name == "parallel_streams"  # WAN default
        client.write(pattern(total // 2))
        # the monitoring verdict lands in the KB (here: pushed directly)
        fw.topology.apply_measurement(wan, loss_rate=0.05, detail="test push")
        yield fw.sim.timeout(0.2)
        client.write(pattern(total // 2, offset=7))
        data = yield server.read(total)
        return client, data

    client, data = run(fw, scenario(), max_time=300)
    assert data == pattern(total // 2) + pattern(total // 2, offset=7)
    assert client.migrations == 1
    assert client.driver_name == "vrp"
    assert client.route.link_class is LinkClass.LOSSY_WAN  # direct rail: RouteChoice


def _measured_flap_scenario(route_dwell=None, port=8450):
    """Open an adaptive session, then flip the direct WAN's *measured* loss
    across the lossy threshold every 50 ms (probe-noise flapping); returns
    the client after delivering a payload."""
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup(register_methods=True)
    manager = fw.node("edge").vlink
    if route_dwell is not None:
        manager.route_dwell = route_dwell
    listener = fw.node("remote").vlink_listen(port, adaptive=True)
    total = 50_000

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), port, adaptive=True)
        server = yield accept_op
        for k in range(10):
            loss = 0.05 if k % 2 == 0 else 0.0
            fw.topology.apply_measurement(wan, loss_rate=loss, detail=f"flip{k}")
            yield fw.sim.timeout(0.05)
        client.write(pattern(total))
        data = yield server.read(total)
        return client, data

    client, data = run(fw, scenario(), max_time=300)
    assert data == pattern(total)
    return client


def test_route_dwell_damps_measured_metric_flapping():
    """Minimum-dwell hysteresis: a measured-loss flip-flop that would
    migrate the session on every push is held to the dwell rate, while the
    undamped manager chases every flip (the route-flapping ROADMAP item)."""
    damped = _measured_flap_scenario()  # ships with ROUTE_MIN_DWELL
    undamped = _measured_flap_scenario(route_dwell=0.0)
    assert undamped.migrations >= 5, "control: without dwell the route chases every flip"
    assert damped.migrations <= 2
    assert damped.migrations < undamped.migrations


def test_route_dwell_does_not_pin_a_dead_route():
    """The dwell only vetoes *preference* migrations: a route through a link
    that goes down must migrate immediately, dwell or not."""
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup(register_methods=True)
    listener = fw.node("remote").vlink_listen(8460, adaptive=True)
    total = 60_000

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 8460, adaptive=True)
        server = yield accept_op
        # first migration: measured loss reclassifies the wire (vrp rail)
        fw.topology.apply_measurement(wan, loss_rate=0.05, detail="lossy push")
        yield fw.sim.timeout(0.05)
        assert client.migrations == 1
        # well inside the dwell window the whole wire dies: the session must
        # abandon it for the gateway path right away
        wan.up = False
        wan.changed("link-down")
        fw.topology.mark_link_down(wan, detail="died inside dwell")
        client.write(pattern(total))
        data = yield server.read(total)
        return client, data

    client, data = run(fw, scenario(), max_time=300)
    assert data == pattern(total)
    assert client.migrations == 2
    assert client.route is not None and not client.route.is_direct  # gateway path


def test_failed_migration_records_its_fault_and_retries():
    """The backup path is silently dead when the direct wire dies: the
    attempt times out, the session keeps the fault and retries by itself,
    and once the backup works the bytes arrive and the fault is cleared."""
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    listener = fw.node("remote").vlink_listen(8470, adaptive=True)
    total = 60_000

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 8470, adaptive=True)
        server = yield accept_op
        wan.up = wan2.up = False
        wan.changed("link-down"), wan2.changed("link-down")
        fw.topology.mark_link_down(wan, detail="died")  # wan2: nobody noticed
        client.write(pattern(total))
        yield fw.sim.timeout(5.0)
        fault = client.last_migration_error
        wan2.up = True
        wan2.changed("link-up")
        data = yield server.read(total)
        return client, fault, data

    client, fault, data = run(fw, scenario(), max_time=300)
    assert isinstance(fault, TimeoutError)
    assert data == pattern(total)
    assert client.migrations == 1 and client.last_migration_error is None


def test_adaptive_link_survives_flapping_wan():
    """A link flapping down/up (seeded Poisson schedule) never loses bytes."""
    fw, edge, gw, remote, wan, lan, wan2 = wan_pair_with_backup()
    listener = fw.node("remote").vlink_listen(8500, adaptive=True)
    injector = fw.fault_injector(seed=33)
    windows = injector.flap_link(wan, horizon=6.0, down_time=0.4, rate=0.8, start=0.05)
    assert windows, "the seeded schedule must produce at least one outage"
    total = 400_000
    chunk = 40_000

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 8500, adaptive=True)
        server = yield accept_op
        for i in range(total // chunk):
            client.write(pattern(chunk, offset=i))
            yield fw.sim.timeout(0.3)
        data = yield server.read(total)
        return client, data

    client, data = run(fw, scenario(), max_time=600)
    assert data == b"".join(pattern(chunk, offset=i) for i in range(total // chunk))
    assert client.migrations >= 1


# --------------------------------------------------------------------------
# Relay teardown (ROADMAP leak satellite)
# --------------------------------------------------------------------------


def relay_topology():
    fw = PadicoFramework()
    a = fw.add_host("edge")
    g = fw.add_host("gw")
    b = fw.add_host("remote")
    lan = fw.add_network(Ethernet100(fw.sim, "lan"))
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    lan.connect(a), lan.connect(g)
    wan.connect(g), wan.connect(b)
    fw.boot()
    return fw


def test_relay_session_reclaimed_when_client_closes():
    fw = relay_topology()
    listener = fw.node("remote").vlink_listen(8600)
    relay = fw.node("gw").gateway_relay

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 8600)
        server = yield accept_op
        client.write(b"hello")
        data = yield server.read(5)
        assert len(relay.sessions()) == 1
        client.close()
        # the far side must observe the close through the splice
        read_op = server.read(1)
        try:
            yield read_op
        except ConnectionError:
            pass
        yield fw.sim.timeout(0.5)
        return data

    assert run(fw, scenario(), max_time=300) == b"hello"
    assert relay.sessions() == []
    assert relay.reclaimed == 1


def test_relay_session_reclaimed_when_server_closes():
    fw = relay_topology()
    listener = fw.node("remote").vlink_listen(8700)
    relay = fw.node("gw").gateway_relay

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 8700)
        server = yield accept_op
        client.write(b"x")
        yield server.read(1)
        server.close()
        read_op = client.read(1)
        try:
            yield read_op
        except ConnectionError:
            pass
        yield fw.sim.timeout(0.5)
        return True

    assert run(fw, scenario(), max_time=300)
    assert relay.sessions() == []
    assert relay.reclaimed == 1


def test_refused_relay_sessions_do_not_leak():
    fw = relay_topology()

    def scenario():
        try:
            yield fw.node("edge").vlink_connect(fw.node("remote"), 48123)
        except ConnectionRefusedError:
            return "refused"

    assert run(fw, scenario()) == "refused"
    assert fw.node("gw").gateway_relay.sessions() == []


# --------------------------------------------------------------------------
# Stream-mesh circuit message order (satellite)
# --------------------------------------------------------------------------


def test_stream_mesh_send_pacing_preserves_message_order(ethernet_cluster):
    """Send-side frame pacing: a small message with a cheap send cost posted
    right after an expensive large one must not overtake it."""
    fw, group = ethernet_cluster
    grp = fw.group([h.name for h in group], "pair")
    ca = fw.node(group[0].name).circuit("order", grp)
    cb = fw.node(group[1].name).circuit("order", grp)
    big, small = b"A" * 500_000, b"B" * 8

    def scenario():
        big_msg = ca.new_message(1)
        big_msg.pack_cheaper(big)
        # a hefty send-side cost (e.g. packing copies) delays the big write
        ca.post(big_msg, extra_cost=Cost().charge(0.002))
        small_msg = ca.new_message(1)
        small_msg.pack_express(small)
        ca.post(small_msg)  # nearly free: used to leapfrog the big one
        first_src, first = yield cb.recv()
        second_src, second = yield cb.recv()
        return first.unpack(), second.unpack()

    first, second = run(fw, scenario(), max_time=300)
    assert first == big  # message order preserved on the stream adapter
    assert second == small


@pytest.mark.parametrize("method", ["adoc", "gsi"])
def test_codec_drivers_preserve_stream_order(ethernet_cluster, method):
    """Same bug family at the codec drivers: a small block's cheaper
    compression/cipher delay must not let it overtake an earlier large
    block (regression: per-block call_later on both sides)."""
    fw, group = ethernet_cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    from repro.methods import register_method_drivers

    register_method_drivers(n0)
    register_method_drivers(n1)
    listener = n1.vlink_listen(8800)
    big, small = bytes(range(256)) * 4000, b"B" * 8  # 1 MB + 8 B

    def scenario():
        accept_op = listener.accept()
        client = yield n0.vlink_connect(n1, 8800, method=method)
        server = yield accept_op
        client.write(big)
        client.write(small)
        data = yield server.read(len(big) + len(small))
        return data[: len(big)] == big and data[len(big) :] == small

    assert run(fw, scenario(), max_time=600)
