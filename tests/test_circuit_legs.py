"""A Circuit's byte-stream legs: every one is a VLink on its own route decision.

A leg that runs over a byte stream — plain sockets ("sysio"), a routed
VLink, or an alternate VLink method — is one VLink opened through the
VLink manager with that leg's method, network, parameters and pinned
route, and one stream-mesh adapter per circuit serves them all on the
circuit's VLink port.  Pinned here:

* a circuit over Ethernet, and the WAN leg of the two-cluster grid, cost
  exactly what they cost when these legs were raw sockets: the same events
  and timers per message, the same receive instants (``==``), and at most
  the connect operation more per leg;
* a group whose legs need several VLink methods opens on every member and
  delivers in both directions;
* a VLink connects on the network its route names, on a direct link and
  on the first leg of a relayed one;
* a closed VLink listener releases its port in every driver: a connect to
  it is refused and the port can be listened on again.
"""

from __future__ import annotations

import pytest

from repro.core import PadicoFramework, paper_cluster, two_cluster_grid
from repro.methods import register_method_drivers
from repro.simnet.networks import Ethernet100, GigabitEthernet, LossyInternet, WanVthd
from tests.helpers import run

PAYLOAD = b"8 bytes!"


def stream_of_messages(fw, tx, rx, dst_rank, count=20):
    """``count`` 8-byte messages sent one after another (each once the
    previous one arrived): the receive instants, and the loop's (events,
    timers) from the first send up to each receive."""
    fw.sim.run()
    before = fw.sim.stats()
    instants, windows = [], []

    def scenario():
        for _ in range(count):
            tx.send(dst_rank, PAYLOAD)
            _src, incoming = yield rx.recv()
            assert incoming.unpack() == PAYLOAD
            now = fw.sim.stats()
            instants.append(fw.sim.now)
            windows.append(
                (
                    now.events_processed - before.events_processed,
                    now.timers_scheduled - before.timers_scheduled,
                )
            )

    run(fw, scenario())
    steps = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(windows, windows[1:])]
    return instants, windows[0], steps


def test_a_circuit_over_ethernet_costs_what_a_raw_socket_leg_cost():
    fw, group = paper_cluster(2, myrinet=False)
    tx = fw.node(group[0].name).circuit("eth", group)
    rx = fw.node(group[1].name).circuit("eth", group)
    assert tx.route_for(1).method == "sysio"
    instants, first, steps = stream_of_messages(fw, tx, rx, 1)
    # every message after the first: the same events and timers, and the
    # same instants, as when the leg was a raw SysIO socket (the second
    # window also holds the hello the receiver writes back on the stream
    # it reuses for its own sends)
    assert steps == [(13, 11)] + [(8, 7)] * 18
    assert instants[0] == 0.00018066624999999998
    assert instants[-1] == 0.0013708737499999986
    # the first message opens the leg: (15, 13) with a raw socket, one
    # more event now — the VLink connect operation
    assert first == (16, 13)


def test_the_sysio_wan_leg_of_the_two_cluster_grid_keeps_its_instants():
    fw, _a, _b, grid = two_cluster_grid(2)
    tx = fw.node("ra0").circuit("grid", grid)
    rx = fw.node("gb0").circuit("grid", grid)
    dst = grid.index_of(fw.host("gb0"))
    assert tx.route_for(dst).method == "sysio"
    assert tx.route_for(dst).network.name == "vthd"
    instants, first, steps = stream_of_messages(fw, tx, rx, dst)
    assert steps == [(13, 11)] + [(8, 7)] * 18
    assert instants[0] == 0.02402771625
    assert instants[-1] == 0.17624987375000037
    assert first == (16, 13)


def mixed_method_grid(loss_rate):
    """``a`` reaches ``b`` over the VTHD WAN and ``c`` over a lossy
    Internet link; ``b`` and ``c`` only reach each other through ``a``."""
    fw = PadicoFramework()
    for name in "abc":
        fw.add_host(name, site=name)
    wan = fw.add_network(WanVthd(fw.sim, "vthd"))
    lossy = fw.add_network(LossyInternet(fw.sim, "inet", loss_rate=loss_rate))
    wan.connect(fw.host("a")), wan.connect(fw.host("b"))
    lossy.connect(fw.host("a")), lossy.connect(fw.host("c"))
    fw.boot()
    for name in "abc":
        register_method_drivers(fw.node(name))
    return fw, fw.group(["a", "b", "c"], "abc")


@pytest.mark.parametrize(
    "loss_rate, methods_of_a",
    [
        (0.05, {1: "vlink:parallel_streams", 2: "vlink:vrp"}),
        (0.0, {1: "vlink:parallel_streams", 2: "vlink:parallel_streams"}),
    ],
)
def test_a_circuit_whose_legs_need_several_vlink_methods_opens_and_delivers(
    loss_rate, methods_of_a
):
    fw, group = mixed_method_grid(loss_rate)
    circuits = [fw.node(name).circuit("mixed", group) for name in "abc"]
    assert {r: c.method for r, c in circuits[0].routes().items()} == methods_of_a
    # b has a routed leg to c and a direct method leg to a
    assert {r: c.method for r, c in circuits[1].routes().items()}[2] == "vlink"
    for circuit in circuits:
        adapters = {id(circuit.adapter_for(r)) for r in circuit.routes()}
        assert len(adapters) == 1
    payload = bytes(range(256)) * 8  # 2 KB: a lossy leg surrenders no byte at VRP's tolerance

    def scenario():
        for src, circuit in enumerate(circuits):
            for dst in range(3):
                if dst != src:
                    circuit.send(dst, bytes([src, dst]), payload)
        got = set()
        for dst, circuit in enumerate(circuits):
            for _ in range(2):
                src, incoming = yield circuit.recv()
                header = incoming.unpack_express()
                body = incoming.unpack_cheaper()
                got.add((src, dst, header == bytes([src, dst]), len(body)))
        return got

    got = run(fw, scenario(), max_time=120)
    assert {(s, d) for s, d, _, _ in got} == {(s, d) for s in range(3) for d in range(3) if s != d}
    assert all(ok for _, _, ok, _ in got)
    # a direct lossless leg delivers every byte
    assert {n for s, d, _, n in got if {s, d} == {0, 1}} == {len(payload)}


def two_network_pair():
    """Two hosts on Fast Ethernet (attached first) and Gigabit Ethernet."""
    fw = PadicoFramework()
    a, b = fw.add_host("a", site="s"), fw.add_host("b", site="s")
    eth = fw.add_network(Ethernet100(fw.sim, "eth"))
    gige = fw.add_network(GigabitEthernet(fw.sim, "gige"))
    for net in (eth, gige):
        net.connect(a), net.connect(b)
    fw.boot()
    return fw, a, b


def test_a_vlink_connects_on_the_network_its_route_names():
    fw, a, b = two_network_pair()
    assert fw.selector.choose_vlink(a, b, ["sysio"]).network.name == "gige"
    listener = fw.node("b").vlink_listen(7100)

    def scenario():
        accepting = listener.accept()
        link = yield fw.node("a").vlink_connect(fw.node("b"), 7100)
        yield accepting
        return link

    link = run(fw, scenario())
    assert link.route.network.name == "gige"
    assert link.conn.network.name == "gige"


def test_the_first_leg_of_a_relayed_vlink_runs_on_the_network_its_route_names():
    """``a`` reaches the gateway ``g`` over Fast Ethernet and Gigabit
    Ethernet, ``g`` reaches ``c`` over the WAN: the route's first hop is
    the Gigabit one, and so is the relay leg's TCP connection."""
    fw = PadicoFramework()
    a, g, c = (fw.add_host(name, site=name) for name in ("a", "g", "c"))
    eth = fw.add_network(Ethernet100(fw.sim, "eth"))
    gige = fw.add_network(GigabitEthernet(fw.sim, "gige"))
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    for net in (eth, gige):
        net.connect(a), net.connect(g)
    wan.connect(g), wan.connect(c)
    fw.boot()
    route = fw.route_between("a", "c")
    assert [hop.network.name for hop in route.hops] == ["gige", "wan"]
    listener = fw.node("c").vlink_listen(7200)

    def scenario():
        accepting = listener.accept()
        link = yield fw.node("a").vlink_connect(fw.node("c"), 7200)
        server = yield accepting
        link.write(b"relayed")
        data = yield server.read(7)
        return link, data

    link, data = run(fw, scenario())
    assert data == b"relayed"
    assert link.conn.network.name == "gige"


@pytest.mark.parametrize("myrinet, driver", [(True, "madio"), (False, "sysio")])
def test_a_closed_vlink_listener_refuses_connects_and_frees_its_port(myrinet, driver):
    fw, group = paper_cluster(2, myrinet=myrinet)
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    listener = n1.vlink_listen(7001)
    listener.close()

    def connect():
        try:
            link = yield n0.vlink_connect(n1, 7001)
        except ConnectionError:
            return "refused"
        return link.driver_name

    assert run(fw, connect()) == "refused"
    assert listener.accepted == 0
    again = n1.vlink_listen(7001)

    def reconnect():
        accepting = again.accept()
        link = yield n0.vlink_connect(n1, 7001)
        server = yield accepting
        link.write(b"again")
        data = yield server.read(5)
        return link.driver_name, data

    assert run(fw, reconnect()) == (driver, b"again")


def test_a_link_that_completes_its_handshake_after_the_listener_closed_is_closed():
    """A parallel-streams link surfaces on the server once every member's
    hello arrived, after the client already holds it: closing the listener
    in between closes the link instead of parking it in the dead listener."""
    fw, group = paper_cluster(2, myrinet=False)
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    for node in (n0, n1):
        register_method_drivers(node)
    listener = n1.vlink_listen(7002)

    def scenario():
        link = yield n0.vlink_connect(n1, 7002, method="parallel_streams")
        listener.close()
        return link

    link = run(fw, scenario())
    fw.sim.run()
    assert listener.accepted == 0
    # the server closed the link's member sockets: the client's saw the FIN
    assert [member.closed for member in link.conn.members] == [True] * len(link.conn.members)
