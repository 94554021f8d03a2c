"""Tests for the multi-hop routing subsystem (routing engine, gateway relay,
cached link profiles, multi-rail drivers, routed circuits)."""

import heapq

import pytest
from hypothesis import HealthCheck, given, settings

from tests.helpers import random_topologies, run

from repro.abstraction.routing import ROUTE_RELAY_PENALTY
from repro.abstraction import (
    AbstractionError,
    GATEWAY_RELAY_PORT,
    GATEWAY_RELAY_SERVICE,
    LinkClass,
    Route,
    RoutingEngine,
    TopologyKB,
)
from repro.core import PadicoFramework, paper_cluster, paper_wan_pair
from repro.simnet.buffers import Gather
from repro.simnet.networks import Ethernet100, LossyInternet, Myrinet2000, WanVthd


def gateway_topology():
    """A cluster host, a dual-homed gateway, and a WAN-only remote host."""
    fw = PadicoFramework()
    a = fw.add_host("edge", site="s1")
    g = fw.add_host("gw", site="s1")
    b = fw.add_host("remote", site="s2")
    lan = fw.add_network(Ethernet100(fw.sim, "lan"))
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    lan.connect(a)
    lan.connect(g)
    wan.connect(g)
    wan.connect(b)
    return fw, a, g, b


# --------------------------------------------------------------------------
# Routing engine: paths, weights, caches
# --------------------------------------------------------------------------


def test_direct_route_matches_seed_selector_choice():
    """Directly connected pairs must keep the seed policy table exactly."""
    fw, group = paper_cluster(2)
    a, b = group[0], group[1]
    available = ["madio", "sysio", "loopback"]
    single = fw.selector.choose_vlink(a, b, available)
    route = fw.selector.choose_vlink_route(a, b, available)
    assert route.is_direct
    assert route.first.method == single.method == "madio"
    assert route.first.network is single.network
    assert route.first.link_class is single.link_class is LinkClass.SAN
    assert route.gateways() == []


def test_direct_route_parity_on_wan_pair():
    fw, group = paper_wan_pair()
    single = fw.selector.choose_vlink(group[0], group[1], ["sysio"])
    route = fw.selector.choose_vlink_route(group[0], group[1], ["sysio"])
    assert route.is_direct and route.first.method == single.method == "sysio"
    assert route.first.network is single.network


def test_two_hop_gateway_route():
    fw, a, g, b = gateway_topology()
    hops = fw.routing.host_path(a, b)
    assert [h.src.name for h in hops] == ["edge", "gw"]
    assert [h.dst.name for h in hops] == ["gw", "remote"]
    assert [h.network.name for h in hops] == ["lan", "wan"]
    assert fw.routing.gateways_between(a, b) == [g]
    route = fw.selector.choose_vlink_route(a, b, ["sysio", "madio", "loopback"])
    assert not route.is_direct
    assert len(route) == 2
    assert [h.method for h in route.hops] == ["sysio", "sysio"]
    assert [h.name for h in route.gateways()] == ["gw"]
    assert "gw" in route.describe()


def test_direct_link_wins_over_gateway_detour():
    """A pair that IS directly connected never gets relayed."""
    fw, a, g, b = gateway_topology()
    wan2 = fw.add_network(WanVthd(fw.sim, "wan2"))
    wan2.connect(a)
    wan2.connect(b)
    hops = fw.routing.host_path(a, b)
    assert len(hops) == 1 and hops[0].network is wan2


def test_route_cache_is_generation_stamped():
    fw, a, g, b = gateway_topology()
    first = fw.routing.host_path(a, b)
    assert fw.routing.host_path(a, b) is first  # cached while topology unchanged
    # late network registration invalidates the cache ...
    myri = fw.add_network(Myrinet2000(fw.sim, "late-myri"))
    myri.connect(a)
    myri.connect(b)
    second = fw.routing.host_path(a, b)
    assert second is not first
    assert len(second) == 1 and second[0].network is myri


def test_late_attachment_invalidates_caches_too():
    """Attaching a host to an already-registered network must also be seen."""
    fw = PadicoFramework()
    a = fw.add_host("a")
    b = fw.add_host("b")
    eth = fw.add_network(Ethernet100(fw.sim, "eth"))
    eth.connect(a)
    with pytest.raises(AbstractionError):
        fw.routing.host_path(a, b)
    assert fw.topology.link_class(a, b) is LinkClass.NONE
    eth.connect(b)  # late attachment, not a registration
    assert fw.topology.link_class(a, b) is LinkClass.LAN
    assert len(fw.routing.host_path(a, b)) == 1


def test_link_profile_cache_returns_same_object():
    fw, group = paper_cluster(2)
    p1 = fw.topology.link_profile(group[0], group[1])
    p2 = fw.topology.link_profile(group[0], group[1])
    assert p1 is p2
    fw.topology.invalidate()
    assert fw.topology.link_profile(group[0], group[1]) is not p1


def test_no_route_error_is_clear():
    fw = PadicoFramework()
    a = fw.add_host("a")
    b = fw.add_host("b")
    eth = fw.add_network(Ethernet100(fw.sim))
    eth.connect(a)
    with pytest.raises(AbstractionError, match="no route between a and b"):
        fw.routing.host_path(a, b)
    with pytest.raises(AbstractionError):
        fw.selector.choose_vlink_route(a, b, ["sysio"])


def test_routing_engine_standalone_and_describe():
    kb = TopologyKB()
    engine = RoutingEngine(kb)
    fw, a, g, b = gateway_topology()
    for network in fw.topology.networks():
        kb.register_network(network)
    for host in fw.topology.hosts():
        kb.register_host(host)
    assert engine.reachable(a, b)
    assert not engine.reachable(a, fw.add_host("island"))
    report = engine.describe()
    assert report["hosts"] >= 3 and report["edges"] >= 4


def clique_reference_path(engine, src, dst):
    """The search as it ran before the graph was walked in place: every
    network expanded into ``(weight, neighbour, network)`` tuples, each member
    towards every other, then Dijkstra over those lists.  Kept as the
    reference the in-place search must reproduce hop for hop."""
    kb = engine.topology
    registered = {id(h) for h in kb.hosts()}
    adjacency = {host: [] for host in kb.hosts()}
    for network in kb.networks():
        if not kb.is_link_up(network):
            continue
        members = [h for h in network.hosts() if id(h) in registered and kb.is_host_up(h)]
        for a in members:
            adjacency[a].extend(
                (engine.edge_weight(network), b, network) for b in members if b is not a
            )
    if src not in adjacency or dst not in adjacency:
        raise AbstractionError("host not part of the registered topology")
    dist, prev, visited, counter = {src: 0.0}, {}, set(), 0
    queue = [(0.0, counter, src)]
    while queue:
        d, _, here = heapq.heappop(queue)
        if here in visited:
            continue
        if here is dst:
            break
        visited.add(here)
        for weight, neighbour, network in adjacency[here]:
            if neighbour in visited:
                continue
            cost = d + weight + (ROUTE_RELAY_PENALTY if neighbour is not dst else 0.0)
            if cost < dist.get(neighbour, float("inf")):
                dist[neighbour] = cost
                prev[neighbour] = (here, network, weight)
                counter += 1
                heapq.heappush(queue, (cost, counter, neighbour))
    if dst not in prev:
        raise AbstractionError("no chain of common networks connects them")
    hops, here = [], dst
    while here is not src:
        earlier, network, weight = prev[here]
        hops.append((earlier, here, network, weight))
        here = earlier
    return hops[::-1]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(random_topologies())
def test_in_place_search_finds_the_clique_expansions_hops(topology):
    kb, hosts = topology
    engine = RoutingEngine(kb)
    for src in hosts:
        for dst in hosts:
            if src is dst:
                continue
            try:
                expected = clique_reference_path(engine, src, dst)
            except AbstractionError:
                with pytest.raises(AbstractionError, match="no route between"):
                    engine.host_path(src, dst)
                continue
            found = engine.host_path(src, dst)
            assert [(h.src, h.dst, h.network, h.weight) for h in found] == expected


# --------------------------------------------------------------------------
# Gateway relay: end-to-end payload through a host with no common network
# --------------------------------------------------------------------------


def test_vlink_connect_through_gateway_delivers_payload():
    """The acceptance scenario: no common network, shared gateway, payload
    bytes flow end to end in both directions through the relay."""
    fw, a, g, b = gateway_topology()
    assert fw.topology.link_class(a, b) is LinkClass.NONE
    fw.boot()
    na, nb = fw.node("edge"), fw.node("remote")
    listener = nb.vlink_listen(5000)

    def scenario():
        accept_op = listener.accept()
        client = yield na.vlink_connect(nb, 5000)
        server = yield accept_op
        client.write(b"x" * 4096)
        data = yield server.read(4096)
        server.write(b"pong")
        back = yield client.read(4)
        return client, data, back

    client, data, back = run(fw, scenario())
    assert data == b"x" * 4096
    assert back == b"pong"
    assert isinstance(client.route, Route) and len(client.route) == 2
    relay = fw.node("gw").gateway_relay
    assert relay.relayed == 1
    assert relay.bytes_forwarded >= 4096 + 4


def test_relay_connect_refused_when_no_listener():
    fw, a, g, b = gateway_topology()
    fw.boot()
    na, nb = fw.node("edge"), fw.node("remote")

    def scenario():
        try:
            yield na.vlink_connect(nb, 48999)
        except ConnectionRefusedError:
            return "refused"

    assert run(fw, scenario()) == "refused"


def test_relay_requires_booted_gateway():
    fw, a, g, b = gateway_topology()
    fw.boot(["edge", "remote"])  # gateway deliberately not booted
    na = fw.node("edge")

    def scenario():
        try:
            # bypass the node-level helper (which would boot the gateway)
            yield na.vlink.connect(b, 5000)
        except AbstractionError as exc:
            return str(exc)

    message = run(fw, scenario())
    assert "gw" in message and "relay" in message


def test_node_helper_boots_gateways_on_demand():
    fw, a, g, b = gateway_topology()
    fw.boot(["edge", "remote"])
    nb = fw.node("remote")
    listener = nb.vlink_listen(5100)

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(nb, 5100)
        yield accept_op
        return client.driver_name

    assert run(fw, scenario()) == "sysio"
    assert fw.node("gw").booted  # the framework picked and booted the gateway


def lossy_triangle():
    """``a`` and ``b`` share a lossy Internet path and each has its own fast
    WAN to the multi-homed ``g``: the cheapest *path* detours through ``g``,
    the selector connects the pair directly."""
    fw = PadicoFramework()
    a, g, b = fw.add_host("a"), fw.add_host("g"), fw.add_host("b")
    slow = fw.add_network(LossyInternet(fw.sim, "slow"))
    slow.connect(a), slow.connect(b)
    for name, end in (("wan-a", a), ("wan-b", b)):
        wan = fw.add_network(WanVthd(fw.sim, name))
        wan.connect(end), wan.connect(g)
    return fw, a, g, b, slow


def test_ensure_gateways_provisions_only_a_route_the_connect_takes():
    fw, a, g, b, slow = lossy_triangle()
    fw.boot()
    assert [h.name for h in fw.routing.gateways_between(a, b)] == ["g"]
    assert fw.route_between(a, b).describe() == "a -[sysio/slow]-> b"
    assert fw.selector.pin_circuit_route(a, b).is_direct  # circuit legs agree
    stock = {"loopback", "sysio"}
    assert fw.ensure_gateways(a, b) == []
    assert set(fw.node("g").vlink.driver_names()) == stock
    listener = fw.node("b").vlink_listen(5150)

    def connect():
        accept_op = listener.accept()
        yield fw.node("a").vlink_connect(fw.node("b"), 5150)
        yield accept_op

    run(fw, connect())
    assert set(fw.node("g").vlink.driver_names()) == stock
    assert fw.node("g").gateway_relay.relayed == 0

    # the direct link believed dead (what an adaptive migration reacts to):
    # now the route does relay, and its gateway gets the WAN method drivers
    fw.topology.mark_link_down(slow)
    fw.ensure_gateways(a, b)
    assert set(fw.node("g").vlink.driver_names()) > stock
    run(fw, connect())
    assert fw.node("g").gateway_relay.relayed == 1


def test_ensure_gateways_leaves_a_bystander_unbooted():
    fw, a, g, b, _slow = lossy_triangle()
    fw.boot(["a", "b"])
    assert fw.ensure_gateways(a, b) == []
    assert not g.has_service(GATEWAY_RELAY_SERVICE)


def test_relay_ttl_exhaustion_refuses():
    fw, a, g, b = gateway_topology()
    fw.boot()
    nb = fw.node("remote")
    nb.vlink_listen(5200)

    def scenario():
        try:
            yield fw.node("edge").vlink.connect(b, 5200, relay_ttl=0)
        except ConnectionRefusedError:
            return "refused"

    assert run(fw, scenario()) == "refused"
    assert fw.node("gw").gateway_relay.refused == 1


def test_two_gateway_chain_relays_recursively():
    """edge -> gw1 -> gw2 -> far: each relay opens the next leg itself."""
    fw = PadicoFramework()
    a = fw.add_host("edge")
    g1 = fw.add_host("gw1")
    g2 = fw.add_host("gw2")
    b = fw.add_host("far")
    lan1 = fw.add_network(Ethernet100(fw.sim, "lan1"))
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    lan2 = fw.add_network(Ethernet100(fw.sim, "lan2"))
    lan1.connect(a), lan1.connect(g1)
    wan.connect(g1), wan.connect(g2)
    lan2.connect(g2), lan2.connect(b)
    fw.boot()
    assert [h.name for h in fw.routing.gateways_between(a, b)] == ["gw1", "gw2"]
    listener = fw.node("far").vlink_listen(5300)

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("far"), 5300)
        server = yield accept_op
        client.write(b"over-two-gateways")
        data = yield server.read(17)
        return data

    assert run(fw, scenario(), max_time=120) == b"over-two-gateways"
    assert fw.node("gw1").gateway_relay.relayed == 1
    assert fw.node("gw2").gateway_relay.relayed == 1


def test_relay_preserves_byte_order_across_chunk_sizes():
    """A small chunk's shorter store-and-forward delay must not let it
    overtake an earlier large chunk (regression: per-chunk call_later)."""
    fw = PadicoFramework()
    a = fw.add_host("edge")
    g = fw.add_host("gw")
    b = fw.add_host("remote")
    myri = fw.add_network(Myrinet2000(fw.sim, "san"))  # message-based first hop
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    myri.connect(a), myri.connect(g)
    wan.connect(g), wan.connect(b)
    fw.boot()
    listener = fw.node("remote").vlink_listen(5500)
    big, small = b"A" * 1_000_000, b"B" * 10

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 5500)
        server = yield accept_op
        client.write(big)
        client.write(small)
        data = yield server.read(len(big) + len(small))
        return data

    data = run(fw, scenario(), max_time=600)
    assert data == big + small  # order preserved through the relay


def test_relay_forwards_a_burst_as_the_chunks_it_arrived_in():
    """A store-and-forward hop only forwards: what it read goes on as one
    gather write of the same objects, never joined at the gateway."""
    fw = PadicoFramework()
    a, g, b = fw.add_host("edge"), fw.add_host("gw"), fw.add_host("remote")
    myri = fw.add_network(Myrinet2000(fw.sim, "san"))
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    myri.connect(a), myri.connect(g)
    wan.connect(g), wan.connect(b)
    fw.boot()
    listener = fw.node("remote").vlink_listen(5501)
    relay = fw.node("gw").gateway_relay
    header, big = b"frame-header", bytes(range(256)) * 2000
    forwarded = []

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("edge").vlink_connect(fw.node("remote"), 5501)
        server = yield accept_op
        downstream = relay.sessions()[0].downstream.conn
        write = downstream.write
        downstream.write = lambda data, done=None: (forwarded.append(data), write(data, done))[1]
        for _ in range(3):
            client.write(Gather((header, big)))
        return (yield server.read(3 * (len(header) + len(big))))

    assert run(fw, scenario(), max_time=600) == (header + big) * 3
    parts = [part for data in forwarded for part in getattr(data, "parts", (data,))]
    assert sum(map(len, parts)) == relay.bytes_forwarded == 3 * (len(header) + len(big))
    assert [part for part in parts if len(part) >= len(big)] == [big] * 3
    assert all(part is big for part in parts if len(part) >= len(big))
    assert relay.relayed == 1


def test_madio_vlink_stream_order_with_mixed_sizes(cluster):
    """Seed bug exposed by the relay work: on a direct madio VLink each
    received message scheduled its append at its own cost-dependent ready
    time, letting small messages leapfrog large ones."""
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    listener = n1.vlink_listen(5600)

    def scenario():
        accept_op = listener.accept()
        client = yield n0.vlink_connect(n1, 5600, method="madio")
        server = yield accept_op
        client.write(b"A" * 1_000_000)
        client.write(b"B" * 10)
        data = yield server.read(1_000_010)
        return data[:3], data[-3:]

    assert run(fw, scenario(), max_time=600) == (b"AAA", b"BBB")


def test_relay_rejects_bad_handshake_magic():
    fw, a, g, b = gateway_topology()
    fw.boot()
    from repro.abstraction import GATEWAY_RELAY_PORT

    def scenario():
        conn_op = fw.node("edge").vlink.connect(g, GATEWAY_RELAY_PORT, method="sysio")
        link = yield conn_op
        link.write(b"GARBAGE-NOT-A-HELLO")
        status = yield link.read(1)
        return status

    assert run(fw, scenario()) == b"\x00"
    relay = fw.node("gw").gateway_relay
    assert relay.refused == 1 and "magic" in relay.last_error


def test_circuit_boots_gateways_on_demand():
    """PadicoNode.circuit must boot relay nodes just like vlink_connect."""
    fw, a, g, b = gateway_topology()
    fw.boot(["edge", "remote"])  # gateway deliberately not booted
    grp = fw.group(["edge", "remote"], "pair")
    ca = fw.node("edge").circuit("lazy", grp)
    cb = fw.node("remote").circuit("lazy", grp)
    assert fw.node("gw").booted

    def scenario():
        ca.send(1, b"late-boot")
        src, incoming = yield cb.recv()
        return src, incoming.unpack()

    assert run(fw, scenario(), max_time=120) == (0, b"late-boot")


# --------------------------------------------------------------------------
# Multi-rail SAN drivers (the framework.boot `break` fix)
# --------------------------------------------------------------------------


def test_one_madio_driver_per_san():
    fw = PadicoFramework()
    x = fw.add_host("x")
    y = fw.add_host("y")
    z = fw.add_host("z")
    m1 = fw.add_network(Myrinet2000(fw.sim, "myri1"))
    m2 = fw.add_network(Myrinet2000(fw.sim, "myri2"))
    m1.connect(x), m1.connect(y)
    m2.connect(x), m2.connect(z)
    fw.boot()
    names = fw.node("x").vlink.driver_names()
    assert "madio" in names and "madio:myri2" in names

    listener = fw.node("z").vlink_listen(5400)

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("x").vlink_connect(fw.node("z"), 5400)
        server = yield accept_op
        client.write(b"rail2")
        data = yield server.read(5)
        return client.driver_name, data

    driver, data = run(fw, scenario())
    assert driver == "madio:myri2"  # secondary rail used, not a WAN fallback
    assert data == b"rail2"


# --------------------------------------------------------------------------
# Routed circuits
# --------------------------------------------------------------------------


def test_circuit_over_gateway_route():
    fw, a, g, b = gateway_topology()
    fw.boot()
    grp = fw.group(["edge", "remote"], "pair")
    ca = fw.node("edge").circuit("routed", grp)
    cb = fw.node("remote").circuit("routed", grp)
    choice = ca.route_for(1)
    assert choice.method == "vlink"
    assert choice.link_class is LinkClass.ROUTED
    assert choice.cross_paradigm

    def scenario():
        ca.send(1, b"HDR", b"payload" * 64)
        src, incoming = yield cb.recv()
        return src, incoming.unpack(), incoming.unpack()

    src, hdr, data = run(fw, scenario(), max_time=120)
    assert (src, hdr, data) == (0, b"HDR", b"payload" * 64)
    assert fw.node("gw").gateway_relay.relayed >= 1


# --------------------------------------------------------------------------
# Topology KB satellites: name index, generation counter
# --------------------------------------------------------------------------


def test_host_by_name_uses_index():
    fw, group = paper_cluster(4)
    kb = fw.topology
    assert kb.host_by_name("node3") is group[3]
    with pytest.raises(LookupError):
        kb.host_by_name("nope")
    # the index is maintained at registration time, not scanned per lookup
    assert kb._hosts_by_name["node0"] is group[0]


def test_generation_bumps_on_registration():
    fw = PadicoFramework()
    g0 = fw.topology.generation
    fw.add_host("h")
    assert fw.topology.generation > g0
    g1 = fw.topology.generation
    fw.add_network(Ethernet100(fw.sim))
    assert fw.topology.generation > g1
