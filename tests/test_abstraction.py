"""Tests for the abstraction layer: VLink, Circuit, adapters, topology, selector."""

import pytest
from hypothesis import HealthCheck, given, settings

from tests.helpers import random_topologies, run

from repro.abstraction import (
    AbstractionError,
    LinkClass,
    Preferences,
)
from repro.abstraction.circuit import circuit_port
from repro.core import paper_cluster, two_cluster_grid
from repro.core.framework import PadicoFramework
from repro.simnet.networks import Ethernet100, LossyInternet, Myrinet2000, WanVthd


# --------------------------------------------------------------------------
# Topology knowledge base + selector
# --------------------------------------------------------------------------


def test_topology_link_classification():
    fw = PadicoFramework()
    a = fw.add_host("a", site="s1")
    b = fw.add_host("b", site="s1")
    c = fw.add_host("c", site="s2")
    myri = fw.add_network(Myrinet2000(fw.sim))
    eth = fw.add_network(Ethernet100(fw.sim))
    wan = fw.add_network(WanVthd(fw.sim))
    lossy = fw.add_network(LossyInternet(fw.sim))
    for net in (myri, eth):
        net.connect(a)
        net.connect(b)
    wan.connect(a)
    wan.connect(c)
    lossy.connect(b)
    lossy.connect(c)
    kb = fw.topology
    assert kb.link_class(a, b) is LinkClass.SAN
    assert kb.link_class(a, c) is LinkClass.WAN
    assert kb.link_class(b, c) is LinkClass.LOSSY_WAN
    assert kb.link_class(a, a) is LinkClass.LOCAL
    d = fw.add_host("d")
    assert kb.link_class(a, d) is LinkClass.NONE
    assert kb.host_by_name("a") is a
    with pytest.raises(LookupError):
        kb.host_by_name("zz")
    profile = kb.link_profile(a, b)
    assert profile.best_network is myri
    assert profile.has_parallel_network and profile.has_distributed_network
    adjacency = kb.adjacency()
    assert adjacency[("a", "b")] == "san"


def test_topology_prefers_lan_over_wan_and_san_over_all():
    fw = PadicoFramework()
    a = fw.add_host("a")
    b = fw.add_host("b")
    eth = fw.add_network(Ethernet100(fw.sim))
    wan = fw.add_network(WanVthd(fw.sim))
    for net in (eth, wan):
        net.connect(a)
        net.connect(b)
    assert fw.topology.link_class(a, b) is LinkClass.LAN
    assert fw.topology.best_network([wan, eth]) is eth


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_topologies())
def test_networks_between_reads_the_nic_tables_like_the_scan_of_every_network(topology):
    """The NIC-table intersection is the walk over every registered network
    it replaced (kept here as the reference), registration order included."""
    kb, hosts = topology
    for a in hosts:
        for b in hosts:
            if a is b:
                scan = [n for n in kb.networks() if kb.is_link_up(n) and n.is_attached(a)]
            else:
                scan = [n for n in kb.networks() if kb.is_link_up(n) and n.connects(a, b)]
            assert kb.networks_between(a, b) == scan


def test_a_removed_network_registers_again_at_the_end():
    fw = PadicoFramework()
    a, b = fw.add_host("a"), fw.add_host("b")
    nets = [fw.add_network(Ethernet100(fw.sim, f"eth{i}")) for i in range(3)]
    for net in nets:
        net.connect(a), net.connect(b)
    kb = fw.topology
    kb.remove_network(nets[1])
    assert kb.networks_between(a, b) == [nets[0], nets[2]]
    kb.register_network(nets[1])
    assert kb.networks() == kb.networks_between(a, b) == [nets[0], nets[2], nets[1]]


def test_selector_default_policy():
    fw, group = paper_cluster(2)
    selector = fw.selector
    a, b = group[0], group[1]
    available = ["madio", "sysio", "loopback"]
    choice = selector.choose_vlink(a, b, available)
    assert choice.method == "madio" and choice.cross_paradigm
    circuit_choice = selector.choose_circuit(a, b, available)
    assert circuit_choice.method == "madio" and not circuit_choice.cross_paradigm


def test_selector_falls_back_when_preferred_method_missing():
    fw, group = paper_cluster(2, myrinet=False)
    choice = fw.selector.choose_vlink(group[0], group[1], ["sysio"])
    assert choice.method == "sysio"
    assert choice.link_class is LinkClass.LAN


def test_selector_wan_prefers_parallel_streams_when_available():
    from repro.core import paper_wan_pair

    fw, group = paper_wan_pair()
    got = fw.selector.choose_vlink(group[0], group[1], ["sysio", "parallel_streams"])
    assert got.method == "parallel_streams"
    without = fw.selector.choose_vlink(group[0], group[1], ["sysio"])
    assert without.method == "sysio"


def test_selector_user_preferences_override():
    fw, group = paper_cluster(2)
    fw.preferences.prefer_vlink(LinkClass.SAN, "sysio")
    choice = fw.selector.choose_vlink(group[0], group[1], ["madio", "sysio"])
    assert choice.method == "sysio"


def test_selector_errors():
    fw, group = paper_cluster(2)
    with pytest.raises(AbstractionError):
        fw.selector.choose_vlink(group[0], group[1], [])
    lonely = fw.add_host("lonely")
    with pytest.raises(AbstractionError):
        fw.selector.choose_vlink(group[0], lonely, ["sysio"])


def test_selector_security_requirement():
    prefs = Preferences(require_security_cross_site=True)
    fw, ca, cb, grid = two_cluster_grid(1, preferences=prefs)
    assert fw.selector.needs_security(ca[0], cb[0])
    assert not fw.selector.needs_security(ca[0], ca[0])
    fw2, group2 = paper_cluster(2)
    assert not fw2.selector.needs_security(group2[0], group2[1])


# --------------------------------------------------------------------------
# VLink
# --------------------------------------------------------------------------


def vlink_pair(fw, group, port=4500, method=None):
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    listener = n1.vlink_listen(port)

    def connect():
        accept_op = listener.accept()
        client = yield n0.vlink_connect(n1, port, method=method)
        server = yield accept_op
        return client, server

    return run(fw, connect())


def test_vlink_post_poll_handler_semantics(cluster):
    fw, group = cluster
    client, server = vlink_pair(fw, group)
    handler_calls = []

    def scenario():
        op = client.write(b"hello")
        assert op.kind == "write"
        read_op = server.read(5)
        read_op.set_handler(lambda o: handler_calls.append(o.value))
        assert not read_op.poll()
        yield read_op
        assert read_op.poll()
        assert read_op.result == b"hello"
        return read_op.value

    assert run(fw, scenario()) == b"hello"
    assert handler_calls == [b"hello"]


def test_vlink_over_madio_latency_matches_table1(cluster):
    fw, group = cluster
    client, server = vlink_pair(fw, group)
    assert client.driver_name == "madio"

    def pingpong():
        # warm up
        client.write(b"w" * 8)
        yield server.read(8)
        server.write(b"w" * 8)
        yield client.read(8)
        t0 = fw.sim.now
        n = 10
        for _ in range(n):
            client.write(b"p" * 8)
            data = yield server.read(8)
            server.write(data)
            yield client.read(8)
        return (fw.sim.now - t0) / n / 2

    latency = run(fw, pingpong())
    assert 9.0e-6 < latency < 11.5e-6  # paper: 10.2 us


def test_vlink_read_not_exact(cluster):
    fw, group = cluster
    client, server = vlink_pair(fw, group)

    def scenario():
        client.write(b"abc")
        data = yield server.read(100, exact=False)
        return data

    assert run(fw, scenario()) == b"abc"


def test_vlink_close_and_use_after_close(cluster):
    fw, group = cluster
    client, server = vlink_pair(fw, group)

    def scenario():
        yield client.close()
        try:
            client.write(b"x")
        except AbstractionError:
            return "rejected"

    assert run(fw, scenario()) == "rejected"


def test_vlink_loopback_driver(cluster):
    fw, group = cluster
    node = fw.node(group[0].name)
    listener = node.vlink_listen(4700)

    def scenario():
        accept_op = listener.accept()
        client = yield node.vlink_connect(node, 4700, method="loopback")
        server = yield accept_op
        client.write(b"local")
        data = yield server.read(5)
        return client.driver_name, data

    driver, data = run(fw, scenario())
    assert driver == "loopback"
    assert data == b"local"


def test_vlink_connect_unknown_port_fails(cluster):
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)

    def scenario():
        try:
            yield n0.vlink_connect(n1, 49999, method="madio")
        except ConnectionRefusedError:
            return "refused"

    assert run(fw, scenario()) == "refused"


def test_vlink_duplicate_listen_rejected(cluster):
    fw, group = cluster
    node = fw.node(group[0].name)
    node.vlink_listen(4800)
    with pytest.raises(AbstractionError):
        node.vlink_listen(4800)


def test_vlink_unknown_driver_rejected(cluster):
    fw, group = cluster
    node = fw.node(group[0].name)
    with pytest.raises(AbstractionError):
        node.vlink.driver("no-such-driver")


# --------------------------------------------------------------------------
# Circuit
# --------------------------------------------------------------------------


def test_circuit_port_is_deterministic():
    assert circuit_port("abc") == circuit_port("abc")
    assert 20000 <= circuit_port("anything") < 40000


def test_circuit_straight_path_latency_and_integrity(cluster):
    fw, group = cluster
    c0 = fw.node(group[0].name).circuit("t", group)
    c1 = fw.node(group[1].name).circuit("t", group)
    assert c0.route_for(1).method == "madio"

    def scenario():
        msg = c0.new_message(1)
        msg.pack_express(b"HDR").pack_cheaper(b"DATA" * 50)
        c0.post(msg)
        src, incoming = yield c1.recv()
        return src, incoming.unpack_express(), incoming.unpack_cheaper()

    src, hdr, data = run(fw, scenario())
    assert (src, hdr, data) == (0, b"HDR", b"DATA" * 50)
    assert c0.messages_sent == 1
    assert c1.messages_received == 1


def test_circuit_over_sysio_on_ethernet_only_cluster(ethernet_cluster):
    fw, group = ethernet_cluster
    c0 = fw.node(group[0].name).circuit("e", group)
    c1 = fw.node(group[1].name).circuit("e", group)
    assert c0.route_for(1).method == "sysio"
    assert c0.route_for(1).cross_paradigm

    def scenario():
        c0.send(1, b"over-tcp", b"payload" * 100)
        src, incoming = yield c1.recv()
        a = incoming.unpack()
        b = incoming.unpack()
        return src, a, b

    src, a, b = run(fw, scenario())
    assert (src, a, b) == (0, b"over-tcp", b"payload" * 100)


def test_circuit_bidirectional_and_multiple_messages(cluster):
    fw, group = cluster
    c0 = fw.node(group[0].name).circuit("bi", group)
    c1 = fw.node(group[1].name).circuit("bi", group)

    def scenario():
        for i in range(5):
            c0.send(1, bytes([i]) * 10)
        got = []
        for _ in range(5):
            _, incoming = yield c1.recv()
            got.append(incoming.unpack())
        c1.send(0, b"reply")
        _, back = yield c0.recv()
        return got, back.unpack()

    got, reply = run(fw, scenario())
    assert got == [bytes([i]) * 10 for i in range(5)]
    assert reply == b"reply"


def test_circuit_forced_methods_ablation(cluster):
    """The dual-abstraction ablation: forcing the cross-paradigm path on a SAN
    (everything through the distributed abstraction) must be slower than the
    straight parallel path — the paper's Figure 1 argument."""
    fw, group = cluster

    def one_way(circuit_name, methods):
        c0 = fw.node(group[0].name).circuit(circuit_name, group, methods=methods)
        c1 = fw.node(group[1].name).circuit(circuit_name, group, methods=methods)

        def scenario():
            t0 = fw.sim.now
            c0.send(1, b"x" * 64)
            yield c1.recv()
            return fw.sim.now - t0

        return run(fw, scenario())

    straight = one_way("straight", None)
    forced_cross = one_way("forced", {0: "sysio", 1: "sysio"})
    assert straight < forced_cross


def test_circuit_rank_errors(cluster):
    fw, group = cluster
    c0 = fw.node(group[0].name).circuit("err", group)
    with pytest.raises(AbstractionError):
        c0.new_message(7)
    with pytest.raises(AbstractionError):
        c0.adapter_for(5)


def test_circuit_group_membership_enforced(cluster4):
    fw, group = cluster4
    sub = fw.group([group[0].name, group[1].name], "sub")
    outsider = fw.node(group[2].name)
    with pytest.raises(AbstractionError):
        outsider.circuit("sub-circuit", sub)


def test_circuit_multi_node_group(cluster4):
    fw, group = cluster4
    circuits = [fw.node(h.name).circuit("ring", group) for h in group]

    def scenario():
        # each rank sends to the next rank
        for i, c in enumerate(circuits):
            c.send((i + 1) % len(circuits), f"from-{i}".encode())
        got = {}
        for i, c in enumerate(circuits):
            src, incoming = yield c.recv()
            got[i] = (src, incoming.unpack())
        return got

    got = run(fw, scenario())
    for i in range(4):
        expected_src = (i - 1) % 4
        assert got[i] == (expected_src, f"from-{expected_src}".encode())
