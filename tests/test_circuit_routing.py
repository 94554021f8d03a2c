"""Route-aware Circuits: per-hop method pinning and parameter derivation.

Covers the Selector's circuit-hop policy (``pin_circuit_route``), the
restriction of hop methods to drivers served on *both* hop ends, the
fallback when no WAN method is mutually served, monitoring-driven method
parameters (stream fan-out, VRP tolerance), and the relay chain executing
pinned continuations end to end.
"""

import pytest

from repro.abstraction.common import AbstractionError
from repro.abstraction.routing import (
    Route,
    RouteChoice,
    decode_pinned_hops,
    encode_pinned_hops,
)
from repro.abstraction.topology import LinkClass
from repro.core import PadicoFramework
from repro.methods import register_wan_method_drivers
from repro.simnet.networks import Ethernet100, GigabitEthernet, WanVthd


def two_cluster_deployment(*, wan_methods_on_remote_gateway: bool = True):
    """a0 -- lan-a -- ga | wan | gb -- lan-b -- b0 (one gateway per side)."""
    fw = PadicoFramework()
    for name, site in [("a0", "sa"), ("ga", "sa"), ("b0", "sb"), ("gb", "sb")]:
        fw.add_host(name, site=site)
    lan_a = fw.add_network(Ethernet100(fw.sim, "lan-a"))
    lan_b = fw.add_network(Ethernet100(fw.sim, "lan-b"))
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    for h in ("a0", "ga"):
        lan_a.connect(fw.host(h))
    for h in ("b0", "gb"):
        lan_b.connect(fw.host(h))
    wan.connect(fw.host("ga")), wan.connect(fw.host("gb"))
    fw.boot()
    register_wan_method_drivers(fw.node("ga"))
    if wan_methods_on_remote_gateway:
        register_wan_method_drivers(fw.node("gb"))
    return fw, wan


# ---------------------------------------------------------------------------
# pin_circuit_route: per-hop methods
# ---------------------------------------------------------------------------


def test_pin_circuit_route_pins_a_method_per_hop():
    fw, wan = two_cluster_deployment()
    route = fw.selector.pin_circuit_route(fw.host("a0"), fw.host("b0"))
    assert [h.method for h in route.hops] == ["sysio", "parallel_streams", "sysio"]
    assert [h.dst.name for h in route.hops] == ["ga", "gb", "b0"]
    assert route.hops[1].link_class is LinkClass.WAN
    # the WAN hop got its monitoring-derived fan-out (nominal metrics here)
    assert route.hops[1].params == {"streams": 4}


def test_hop_methods_restricted_to_drivers_on_both_ends():
    """A WAN method only served on one end of the hop cannot be pinned:
    the hop falls back to the method both gateways serve."""
    fw, wan = two_cluster_deployment(wan_methods_on_remote_gateway=False)
    route = fw.selector.pin_circuit_route(fw.host("a0"), fw.host("b0"))
    # ga serves parallel_streams/adoc/vrp, gb serves only the stock drivers:
    # no WAN method is mutually available, so the hop degrades to sysio.
    assert route.hops[1].method == "sysio"


def test_fallback_when_no_wan_method_is_mutually_served_end_to_end():
    """The degraded pick still carries a working circuit."""
    fw, wan = two_cluster_deployment(wan_methods_on_remote_gateway=False)
    group = fw.group(["a0", "b0"], "fallback-group")
    tx = fw.node("a0").circuit("fallback", group)
    rx = fw.node("b0").circuit("fallback", group)
    got = {}
    rx.set_receive_callback(lambda s, inc, r: got.setdefault("data", inc.unpack_express()))
    payload = bytes(range(256)) * 64

    def scenario():
        yield tx.send(1, payload)

    fw.sim.process(scenario())
    fw.sim.run(max_time=20.0)
    assert got.get("data") == payload


def test_pin_circuit_route_requires_remote_destination():
    fw, _ = two_cluster_deployment()
    with pytest.raises(AbstractionError):
        fw.selector.pin_circuit_route(fw.host("a0"), fw.host("a0"))


def test_circuit_hop_preferences_override_the_default_table():
    fw, _ = two_cluster_deployment()
    fw.preferences.prefer_circuit_hop(LinkClass.WAN, "adoc")
    route = fw.selector.pin_circuit_route(fw.host("a0"), fw.host("b0"))
    assert route.hops[1].method == "adoc"


# ---------------------------------------------------------------------------
# monitoring-driven parameters
# ---------------------------------------------------------------------------


def test_stream_fanout_grows_with_measured_loss():
    fw, wan = two_cluster_deployment()
    selector = fw.selector
    before = selector.pin_circuit_route(fw.host("a0"), fw.host("b0"))
    assert before.hops[1].params["streams"] == 4
    # loss below the lossy-WAN threshold: the hop keeps parallel streams
    # but widens the fan-out
    fw.topology.apply_measurement(wan, loss_rate=0.008, detail="probe estimate")
    after = selector.pin_circuit_route(fw.host("a0"), fw.host("b0"))
    assert after.hops[1].method == "parallel_streams"
    assert after.hops[1].params["streams"] == 5  # 4 + round(0.008 * 100)
    # the derivation itself is monotone and clamped
    fw.topology.apply_measurement(wan, loss_rate=0.03, detail="probe estimate")
    assert selector.derive_method_params("parallel_streams", wan) == {"streams": 7}
    fw.topology.apply_measurement(wan, loss_rate=0.30, detail="probe estimate")
    assert selector.derive_method_params("parallel_streams", wan) == {"streams": 8}
    # ...and once the loss crosses the lossy threshold, the *method* flips
    # to VRP pinned at zero tolerance (reliable hop), so the parameter and
    # the choice react together
    worst = selector.pin_circuit_route(fw.host("a0"), fw.host("b0"))
    assert worst.hops[1].method == "vrp"
    assert worst.hops[1].params == {"tolerance": 0.0}


def test_vrp_tolerance_follows_measured_loss_but_not_on_reliable_legs():
    fw, wan = two_cluster_deployment()
    selector = fw.selector
    fw.topology.apply_measurement(wan, loss_rate=0.05, detail="probe estimate")
    assert selector.derive_method_params("vrp", wan) == {"tolerance": 0.075}
    # capped: never surrender more than MAX_VRP_TOLERANCE
    fw.topology.apply_measurement(wan, loss_rate=0.5, detail="probe estimate")
    assert selector.derive_method_params("vrp", wan) == {"tolerance": 0.2}
    # relay / adaptive legs carry somebody else's framed stream: pinned at 0
    assert selector.derive_method_params("vrp", wan, reliable=True) == {"tolerance": 0.0}


def test_vlink_route_choice_carries_derived_params():
    """Plain VLink selection also benefits: a lossy WAN pick tunes VRP."""
    fw = PadicoFramework()
    a, b = fw.add_host("wa", site="s1"), fw.add_host("wb", site="s2")
    wan = fw.add_network(WanVthd(fw.sim, "wan-direct"))
    wan.connect(a), wan.connect(b)
    fw.boot()
    register_wan_method_drivers(fw.node("wa"))
    register_wan_method_drivers(fw.node("wb"))
    fw.topology.apply_measurement(wan, loss_rate=0.04, detail="probe estimate")
    route = fw.selector.choose_vlink_route(
        a, b, fw.node("wa").vlink.driver_names()
    )
    assert route.first.method == "vrp"
    assert route.first.params == {"tolerance": 0.06}


def test_per_connection_method_parameters_reach_the_drivers():
    fw, wan = two_cluster_deployment()
    ga, gb = fw.node("ga"), fw.node("gb")
    ps = ga.vlink.driver("parallel_streams")
    vrp = ga.vlink.driver("vrp")
    listener = gb.vlink_listen(9600)
    accepted = []
    listener.set_accept_callback(lambda link: accepted.append(link))

    def scenario():
        conn_ps = yield ps.connect_with_params(fw.host("gb"), 9600, {"streams": 2})
        conn_vrp = yield vrp.connect_with_params(fw.host("gb"), 9600, {"tolerance": 0.25})
        return conn_ps, conn_vrp

    conn_ps, conn_vrp = fw.sim.run(until=fw.sim.process(scenario()), max_time=10.0)
    fw.sim.run(max_time=1.0)  # let the accept-side hellos drain
    assert conn_ps.total_streams == 2
    assert conn_vrp.tolerance == 0.25
    # the receive side negotiated the same per-connection tolerance
    server_vrp = [link.conn for link in accepted if link.driver_name == "vrp"]
    assert server_vrp and server_vrp[0].tolerance == 0.25


# ---------------------------------------------------------------------------
# routed circuits execute the pinning end to end
# ---------------------------------------------------------------------------


def test_choose_circuit_route_carries_the_pinned_continuation():
    fw, _ = two_cluster_deployment()
    choice = fw.selector.choose_circuit_route(
        fw.host("a0"), fw.host("b0"), ["vlink", "sysio"]
    )
    assert choice.method == "vlink"
    assert choice.link_class is LinkClass.ROUTED
    assert choice.via is not None
    assert [h.method for h in choice.via.hops] == ["sysio", "parallel_streams", "sysio"]


def test_relay_chain_honours_the_pinned_hop_methods():
    fw, _ = two_cluster_deployment()
    group = fw.group(["a0", "b0"], "pinned-group")
    tx = fw.node("a0").circuit("pinned", group)
    rx = fw.node("b0").circuit("pinned", group)
    got = {}
    rx.set_receive_callback(lambda s, inc, r: got.setdefault("data", inc.unpack_express()))
    payload = bytes(range(251)) * 100

    def scenario():
        yield tx.send(1, payload)

    fw.sim.process(scenario())
    fw.sim.run(max_time=20.0)
    assert got.get("data") == payload
    # the gateway's downstream leg rides the pinned WAN method, not a
    # re-selected plain socket
    relay = fw.node("ga").gateway_relay
    assert relay.relayed == 1
    downstream = relay.sessions()[0].downstream
    assert downstream.driver_name == "parallel_streams"


def test_relay_falls_back_when_a_pinned_driver_is_unusable():
    """A pinned continuation naming a driver the gateway does not serve
    degrades to autonomous selection instead of failing the splice."""
    fw, _ = two_cluster_deployment()
    bogus = Route(
        fw.host("a0"),
        fw.host("b0"),
        [
            RouteChoice(
                method="sysio", network=None, link_class=LinkClass.LAN,
                src=fw.host("a0"), dst=fw.host("ga"),
            ),
            RouteChoice(
                method="no-such-driver", network=None, link_class=LinkClass.WAN,
                src=fw.host("ga"), dst=fw.host("gb"),
            ),
            RouteChoice(
                method="sysio", network=None, link_class=LinkClass.LAN,
                src=fw.host("gb"), dst=fw.host("b0"),
            ),
        ],
    )
    listener = fw.node("b0").vlink_listen(9700)
    got = {}
    listener.set_accept_callback(
        lambda link: link.set_data_handler(
            lambda l: got.setdefault("data", l.read_available())
        )
    )

    def scenario():
        client = yield fw.node("a0").vlink.connect(fw.host("b0"), 9700, route=bogus)
        yield client.write(b"pinned-fallback")

    fw.sim.process(scenario())
    fw.sim.run(max_time=20.0)
    assert got.get("data") == b"pinned-fallback"


def test_pinned_hop_wire_codec_roundtrips():
    fw, _ = two_cluster_deployment()
    route = fw.selector.pin_circuit_route(fw.host("a0"), fw.host("b0"))
    blob = encode_pinned_hops(route.hops[1:])
    decoded = decode_pinned_hops(blob)
    assert decoded == [
        ("parallel_streams", "gb", "wan", {"streams": 4}),
        ("sysio", "b0", "lan-b", {}),
    ]
    # a hop without a network leaves the relay the driver's own pick
    assert decode_pinned_hops(b"sysio@b0") == [("sysio", "b0", None, {})]
    # hops without explicit endpoints cannot be pinned
    assert encode_pinned_hops([RouteChoice("sysio", None, LinkClass.LAN)]) == b""
    with pytest.raises(ValueError):
        decode_pinned_hops(b"garbage-without-at-sign")


def test_a_relayed_hop_runs_on_the_network_its_route_names():
    """The relay handshake carries each pinned hop's network: the gateway's
    downstream leg rides the route's Gigabit Ethernet, not the Fast
    Ethernet the two hosts attached first."""
    fw = PadicoFramework()
    for name, site in [("a", "s1"), ("g", "s2"), ("c", "s2")]:
        fw.add_host(name, site=site)
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    eth = fw.add_network(Ethernet100(fw.sim, "eth"))
    gige = fw.add_network(GigabitEthernet(fw.sim, "gige"))
    wan.connect(fw.host("a")), wan.connect(fw.host("g"))
    for network in (eth, gige):
        network.connect(fw.host("g")), network.connect(fw.host("c"))
    fw.boot()
    assert fw.route_between("a", "c").describe() == "a -[sysio/wan]-> g -[sysio/gige]-> c"
    listener = fw.node("c").vlink_listen(9710)

    def scenario():
        accept_op = listener.accept()
        client = yield fw.node("a").vlink_connect(fw.node("c"), 9710)
        server = yield accept_op
        client.write(b"over gige")
        data = yield server.read(9)
        return server, data

    server, data = fw.sim.run(until=fw.sim.process(scenario()), max_time=20.0)
    assert data == b"over gige"
    assert server.conn.network is gige
    assert fw.node("g").gateway_relay.sessions()[0].downstream.conn.network is gige
