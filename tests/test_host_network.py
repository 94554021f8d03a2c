"""Unit tests for hosts, host groups, network models and NIC arbitration."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.host import CpuModel, Host, HostGroup
from repro.simnet.network import Network
from repro.simnet.networks import (
    Ethernet100,
    GigabitEthernet,
    LossyInternet,
    Myrinet2000,
    SciNetwork,
    WanVthd,
)
from repro.simnet.cost import MB


def make_pair(net_cls=Myrinet2000):
    sim = Simulator()
    net = net_cls(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    return sim, net, a, b


def test_cpu_model_copy_time():
    cpu = CpuModel(memcpy_bandwidth=100 * MB)
    assert cpu.copy_time(1_000_000) == pytest.approx(0.01)


def test_host_nic_registration():
    sim, net, a, b = make_pair()
    assert a.is_attached(net)
    assert a.nic_for(net).host is a
    assert net in a.networks()
    assert net.connect(a) is a.nic_for(net)  # re-connect returns the same NIC
    # attaching the same network twice through attach_nic is rejected
    with pytest.raises(ValueError):
        a.attach_nic(a.nic_for(net))


def test_host_services():
    sim = Simulator()
    h = Host(sim, "svc")
    h.register_service("thing", 42)
    assert h.get_service("thing") == 42
    assert h.require_service("thing") == 42
    assert h.has_service("thing")
    with pytest.raises(ValueError):
        h.register_service("thing", 43)
    h.register_service("thing", 43, replace=True)
    assert h.get_service("thing") == 43
    with pytest.raises(LookupError):
        h.require_service("missing")


def test_host_sites_and_shared_networks():
    sim, net, a, b = make_pair()
    a.site = "rennes"
    b.site = "grenoble"
    assert a.site == "rennes"
    assert net in a.shares_network_with(b)
    c = Host(sim, "c")
    assert a.shares_network_with(c) == []


def test_host_group():
    sim, net, a, b = make_pair()
    group = HostGroup("g", [a, b])
    assert len(group) == 2
    assert group.index_of(b) == 1
    assert group.contains(a)
    assert group[0] is a
    assert list(group) == [a, b]
    c = Host(sim, "c")
    assert not group.contains(c)
    with pytest.raises(ValueError):
        group.index_of(c)
    with pytest.raises(ValueError):
        HostGroup("dup", [a, a])


def test_host_group_sites():
    sim, net, a, b = make_pair()
    a.site = "s1"
    b.site = "s2"
    assert HostGroup("g", [a, b]).sites() == ["s1", "s2"]


def test_network_parameter_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Network(sim, "bad", latency=-1, bandwidth=1)
    with pytest.raises(ValueError):
        Network(sim, "bad", latency=1, bandwidth=1, loss_rate=1.5)


def test_network_timing_model():
    sim = Simulator()
    eth = Ethernet100(sim)
    assert eth.packets_for(0) == 1
    assert eth.packets_for(1460) == 1
    assert eth.packets_for(1461) == 2
    assert eth.wire_bytes(1460) == 1460 + 58
    assert eth.one_way_time(0) > eth.latency
    assert eth.serialization_time(12_500_000) > 0.9  # ~1 s at 12.5 MB/s


def test_network_paradigms():
    sim = Simulator()
    assert Myrinet2000(sim).is_parallel
    assert SciNetwork(sim).is_parallel
    assert Ethernet100(sim).is_distributed
    assert GigabitEthernet(sim).is_distributed
    assert WanVthd(sim).is_distributed
    assert LossyInternet(sim).is_distributed


def test_network_describe_and_addresses():
    sim, net, a, b = make_pair(Ethernet100)
    desc = net.describe()
    assert desc["paradigm"] == "distributed"
    assert set(desc["hosts"]) == {"a", "b"}
    assert net.nic_of(a).address.startswith("10.")
    myri = Myrinet2000(sim)
    myri.connect(a)
    assert myri.nic_of(a).address.startswith("myri://")
    with pytest.raises(LookupError):
        myri.nic_of(b)


def test_nic_single_owner_arbitration_claim():
    """Only one owner per NIC: the paper's 'arbitration layer is the only
    client of the system-level resources' property."""
    sim, net, a, b = make_pair()
    nic = net.nic_of(a)
    nic.set_receive_handler(lambda d: None, owner="madeleine")
    nic.set_receive_handler(lambda d: None, owner="madeleine")  # same owner ok
    with pytest.raises(PermissionError):
        nic.set_receive_handler(lambda d: None, owner="rogue-middleware")
    assert nic.owner == "madeleine"


def test_transmit_delivers_payload_and_charges_latency():
    sim, net, a, b = make_pair()
    got = {}

    def handler(delivery):
        got["payload"] = delivery.payload
        got["time"] = sim.now

    net.nic_of(b).set_receive_handler(handler, owner="test")
    net.transmit(a, b, b"hello", channel="x")
    sim.run()
    assert got["payload"] == b"hello"
    assert got["time"] >= net.latency
    assert net.frames_sent == 1
    assert net.bytes_carried == 5


def test_transmit_to_self_rejected():
    sim, net, a, b = make_pair()
    with pytest.raises(ValueError):
        net.transmit(a, a, b"x")


def test_send_cost_delays_transmission():
    sim, net, a, b = make_pair()
    times = []
    net.nic_of(b).set_receive_handler(lambda d: times.append(sim.now), owner="t")
    net.transmit(a, b, b"x" * 100)
    net2_time_base = None
    sim.run()
    baseline = times[0]

    sim2, net2, a2, b2 = make_pair()
    times2 = []
    net2.nic_of(b2).set_receive_handler(lambda d: times2.append(sim2.now), owner="t")
    net2.transmit(a2, b2, b"x" * 100, send_cost=5e-6)
    sim2.run()
    assert times2[0] == pytest.approx(baseline + 5e-6)


def test_tx_occupancy_serialises_frames():
    sim, net, a, b = make_pair(Ethernet100)
    arrivals = []
    net.nic_of(b).set_receive_handler(lambda d: arrivals.append(sim.now), owner="t")
    net.transmit(a, b, b"x" * 14600)
    net.transmit(a, b, b"y" * 14600)
    sim.run()
    # second frame cannot arrive before the first has fully left the NIC
    assert arrivals[1] - arrivals[0] >= net.serialization_time(14600) * 0.99


def test_datagram_loss_is_deterministic_per_seed():
    def drops(seed):
        sim = Simulator()
        net = LossyInternet(sim, seed=seed)
        a, b = Host(sim, "a"), Host(sim, "b")
        net.connect(a)
        net.connect(b)
        net.nic_of(b).set_receive_handler(lambda d: None, owner="t")
        lost = 0
        for _ in range(200):
            if net.transmit_datagram(a, b, b"z" * 1000) is None:
                lost += 1
        sim.run()
        return lost

    assert drops(1) == drops(1)
    assert 0 < drops(1) < 200


def test_drop_without_handler_is_recorded():
    sim, net, a, b = make_pair()
    net.transmit(a, b, b"nobody-home")
    sim.run()
    assert net.frames_dropped == 1
    assert net.drop_log[0][1] == "no-handler"


def test_myrinet_hardware_channel_count():
    sim = Simulator()
    assert Myrinet2000(sim).hardware_channels == 2
    assert SciNetwork(sim).hardware_channels == 1
