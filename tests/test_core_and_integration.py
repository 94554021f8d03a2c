"""Tests for the core framework, deployment config, and cross-middleware
integration scenarios (the paper's §2.1 use cases)."""

import pytest

from tests.helpers import run

from repro.core import (
    DeploymentConfig,
    FrameworkError,
    PadicoFramework,
    load_deployment,
    paper_cluster,
    two_cluster_grid,
)


# --------------------------------------------------------------------------
# Framework / deployment
# --------------------------------------------------------------------------


def test_framework_rejects_duplicates_and_unknowns():
    fw = PadicoFramework()
    fw.add_host("a")
    with pytest.raises(FrameworkError):
        fw.add_host("a")
    with pytest.raises(FrameworkError):
        fw.host("missing")
    with pytest.raises(FrameworkError):
        fw.network("missing")
    with pytest.raises(FrameworkError):
        fw.node("a")  # not booted yet


def test_framework_boot_is_idempotent_and_builds_stack():
    fw, group = paper_cluster(2)
    node = fw.node("node0")
    assert node.booted
    assert node.netaccess is not None and node.sysio is not None
    assert node.madio is not None and node.madeleine is not None
    assert set(node.vlink.driver_names()) >= {"madio", "sysio", "loopback"}
    assert "madio" in node.circuits.adapter_names()
    fw.boot()  # second boot is a no-op
    assert fw.node("node0") is node


def test_framework_without_san_has_no_madio():
    fw, group = paper_cluster(2, myrinet=False)
    node = fw.node("node0")
    assert node.madio is None
    assert "madio" not in node.vlink.driver_names()


def test_framework_status_report():
    fw, group = paper_cluster(2)
    report = fw.status_report()
    assert report["hosts"] == ["node0", "node1"]
    assert report["booted_nodes"] == ["node0", "node1"]
    assert any("myri" in n["name"] for n in report["networks"])
    assert report["adjacency"]["node0--node1"] == "san"


def test_deployment_config_realises_grid():
    config = DeploymentConfig()
    config.add_cluster("rennes", ["r0", "r1"], site="rennes", san="myrinet", lan="ethernet100")
    config.add_cluster("grenoble", ["g0", "g1"], site="grenoble", san="sci", lan="gigabit")
    config.add_wan_link("vthd", ["rennes", "grenoble"], kind="vthd")
    config.add_node("laptop", site="elsewhere")
    fw = config.realise()
    fw.boot()
    assert len(fw.hosts()) == 5
    assert fw.topology.link_class(fw.host("r0"), fw.host("r1")).value == "san"
    assert fw.topology.link_class(fw.host("r0"), fw.host("g0")).value == "wan"
    roundtrip = DeploymentConfig.from_dict(config.to_dict())
    assert roundtrip.all_node_names() == config.all_node_names()


def test_deployment_config_errors():
    config = DeploymentConfig()
    config.add_cluster("c", ["x", "x"])
    with pytest.raises(FrameworkError):
        config.all_node_names()
    bad = DeploymentConfig()
    bad.add_cluster("c", ["a"], san="quantum")
    with pytest.raises(FrameworkError):
        bad.realise()


def test_load_deployment_from_dict():
    fw = load_deployment(
        {
            "clusters": [{"name": "c", "nodes": ["n0", "n1"], "site": "s"}],
            "wan_links": [],
            "nodes": [],
        }
    )
    fw.boot()
    assert len(fw.nodes()) == 2


# --------------------------------------------------------------------------
# Integration: the paper's §2.1 scenarios
# --------------------------------------------------------------------------


def test_concurrent_mpi_and_corba_on_the_same_nodes():
    """§2.1 / §4.3: a parallel middleware and a distributed middleware share
    the same nodes and the same Myrinet network at the same time."""
    from repro.middleware.corba import Interface, ORB, OMNIORB_4, Operation, Servant, TC_LONG
    from repro.middleware.mpi import MpiRuntime

    fw, group = paper_cluster(2)
    comms = [MpiRuntime(fw.node(h.name), group).comm_world for h in group]

    iface = Interface(
        "IDL:Monitor:1.0", [Operation("progress", params=(("step", TC_LONG),), result=TC_LONG)]
    )

    class Monitor(Servant):
        def __init__(self):
            self.steps = []

        def progress(self, step):
            self.steps.append(step)
            return step * 2

    monitor = Monitor()
    server_orb = ORB(fw.node(group[1].name), OMNIORB_4)
    client_orb = ORB(fw.node(group[0].name), OMNIORB_4)
    proxy = client_orb.object_to_proxy(server_orb.activate_object(monitor, iface), iface)

    def scenario():
        # interleave MPI traffic and CORBA invocations
        acked = []
        for step in range(5):
            comms[0].isend(b"chunk" * 100, 1, tag=step)
            result = yield from proxy.invoke("progress", step)
            acked.append(result)
            data = yield from comms[1].recv(0, step)
            assert data == b"chunk" * 100
        return acked

    acked = run(fw, scenario())
    assert acked == [0, 2, 4, 6, 8]
    assert monitor.steps == list(range(5))
    # both subsystems were dispatched by the same arbitration core
    report = fw.node(group[1].name).netaccess.fairness_report()
    assert report["madio"]["dispatches"] > 0


def test_mpi_component_coupled_to_soap_monitoring():
    """§2.2: "a SOAP-based monitoring system of a MPI application"."""
    from repro.middleware.mpi import MpiRuntime, SUM
    from repro.middleware.soap import SoapClient, SoapServer

    fw, group = paper_cluster(2)
    comms = [MpiRuntime(fw.node(h.name), group).comm_world for h in group]
    monitor_state = {}
    server = SoapServer(fw.node(group[1].name), 18300)
    server.register("report", lambda rank=0, norm=0.0: monitor_state.update({rank: norm}) or True)
    client = SoapClient(fw.node(group[0].name), fw.node(group[1].name).host, 18300)

    def rank0():
        local = 3.0
        total = yield from comms[0].allreduce(local, op=SUM)
        yield from client.call("report", rank=0, norm=total)
        return total

    def rank1():
        total = yield from comms[1].allreduce(4.0, op=SUM)
        return total

    p0 = fw.sim.process(rank0())
    p1 = fw.sim.process(rank1())
    fw.sim.run(until=fw.sim.all_of([p0, p1]), max_time=30)
    assert p0.value == p1.value == 7.0
    assert monitor_state == {0: 7.0}


def test_two_cluster_grid_mpi_inside_corba_across():
    """§2.1: parallel components — MPI inside each cluster, a distributed
    middleware coupling the two clusters across the WAN."""
    from repro.middleware.corba import Interface, ORB, OMNIORB_4, Operation, Servant, TC_DOUBLE
    from repro.middleware.mpi import MpiRuntime, SUM

    fw, cluster_a, cluster_b, grid = two_cluster_grid(2)
    comms_a = [
        MpiRuntime(fw.node(h.name), cluster_a, channel_name="a").comm_world for h in cluster_a
    ]
    comms_b = [
        MpiRuntime(fw.node(h.name), cluster_b, channel_name="b").comm_world for h in cluster_b
    ]

    iface = Interface("IDL:Coupler:1.0",
                      [Operation("exchange", params=(("value", TC_DOUBLE),), result=TC_DOUBLE)])

    class Coupler(Servant):
        def __init__(self):
            self.received = None

        def exchange(self, value):
            self.received = value
            return value * 10.0

    coupler = Coupler()
    server_orb = ORB(fw.node(cluster_b[0].name), OMNIORB_4)
    client_orb = ORB(fw.node(cluster_a[0].name), OMNIORB_4)
    proxy = client_orb.object_to_proxy(server_orb.activate_object(coupler, iface), iface)

    # intra-cluster MPI uses the straight Myrinet path
    mpi_circuit = fw.node(cluster_a[0].name).circuits.circuit("vmad:a")
    assert mpi_circuit.route_for(1).method == "madio"

    def head_a():
        local_sum = yield from comms_a[0].allreduce(1.5, op=SUM)
        coupled = yield from proxy.invoke("exchange", local_sum)
        return coupled

    def worker(comm, value):
        result = yield from comm.allreduce(value, op=SUM)
        return result

    pa0 = fw.sim.process(head_a())
    pa1 = fw.sim.process(worker(comms_a[1], 2.5))
    fw.sim.run(until=fw.sim.all_of([pa0, pa1]), max_time=60)
    assert pa1.value == 4.0
    assert coupler.received == 4.0
    assert pa0.value == 40.0


def test_arbitration_fairness_vs_competitive_baseline():
    """§4.1: without arbitration an active-polling middleware starves the
    other; with NetAccess both make progress with comparable costs."""
    from repro.middleware.mpi import MpiRuntime

    def corba_latency(competitive: bool):
        from repro.middleware.corba import Interface, ORB, OMNIORB_4, Operation, Servant, TC_LONG

        fw, group = paper_cluster(2)
        # an MPI runtime is present and (in the ablation) busy-polls the CPU
        for h in group:
            MpiRuntime(fw.node(h.name), group)
        if competitive:
            for h in group:
                fw.node(h.name).netaccess.set_competitive_baseline("madio")
        iface = Interface(
            "IDL:P:1.0", [Operation("poke", params=(("x", TC_LONG),), result=TC_LONG)]
        )

        class P(Servant):
            def poke(self, x):
                return x

        # the CORBA traffic uses the system sockets (SysIO subsystem), the MPI
        # hog busy-polls the high-performance network (MadIO subsystem)
        server = ORB(fw.node(group[1].name), OMNIORB_4, forced_method="sysio")
        client = ORB(fw.node(group[0].name), OMNIORB_4, forced_method="sysio")
        proxy = client.object_to_proxy(server.activate_object(P(), iface), iface)

        def scenario():
            yield from proxy.invoke("poke", 1)
            t0 = fw.sim.now
            yield from proxy.invoke("poke", 2)
            return fw.sim.now - t0

        return run(fw, scenario())

    cooperative = corba_latency(competitive=False)
    starved = corba_latency(competitive=True)
    assert starved > cooperative * 5
