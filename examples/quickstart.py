"""Quickstart: boot the paper's cluster and measure the headline numbers.

Builds the 2-node Myrinet-2000 + Ethernet-100 cluster of the paper and
drives the two abstract interfaces (Circuit, VLink) and two middleware
systems (MPICH, omniORB) over the *same* booted nodes through their public
APIs, printing the Table-1 style one-way latencies and bandwidths.

Run with:  python examples/quickstart.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import paper_cluster
from repro.middleware import corba
from repro.middleware.mpi import MPICH_1_2_5, MpiRuntime

ROUND_TRIPS = 10


def measure(sim, pingpong, one_way):
    """Generator: one-way latency (µs) of 8-byte round trips and bandwidth
    (MB/s) of a 1 MB transfer, each after one warm-up operation."""
    yield from pingpong(bytes(8))
    start = sim.now
    for _ in range(ROUND_TRIPS):
        yield from pingpong(bytes(8))
    latency_us = (sim.now - start) / ROUND_TRIPS / 2 * 1e6
    yield from one_way(bytes(65536))
    seconds = yield from one_way(bytes(1_000_000))
    return latency_us, 1.0 / seconds


def circuit(fw, node0, node1, group):
    """The parallel abstraction: messages between the ranks of a group."""
    c0, c1 = node0.circuit("quickstart", group), node1.circuit("quickstart", group)

    def pingpong(payload):
        c0.send(1, payload)
        src, incoming = yield c1.recv()
        c1.send(src, incoming.unpack())
        _src, echoed = yield c0.recv()
        echoed.unpack()

    def one_way(payload):
        start = fw.sim.now
        c0.send(1, payload)
        _src, incoming = yield c1.recv()
        incoming.unpack()
        return fw.sim.now - start

    return (yield from measure(fw.sim, pingpong, one_way))


def vlink(fw, node0, node1, group):
    """The distributed abstraction: a connected byte stream."""
    accepting = node1.vlink_listen(4100).accept()
    client = yield node0.vlink_connect(node1, 4100)
    server = yield accepting

    def pingpong(payload):
        client.write(payload)
        data = yield server.read(len(payload))
        server.write(data)
        yield client.read(len(payload))

    def one_way(payload):
        start = fw.sim.now
        client.write(payload)
        yield server.read(len(payload))
        return fw.sim.now - start

    return (yield from measure(fw.sim, pingpong, one_way))


def mpich(fw, node0, node1, group):
    """MPI over the virtual Madeleine personality."""
    comm0, comm1 = (
        MpiRuntime(node, group, profile=MPICH_1_2_5, channel_name="quickstart").comm_world
        for node in (node0, node1)
    )

    def pingpong(payload):
        comm0.isend(payload, 1, tag=7)
        data = yield comm1.irecv(0, 7).wait()
        comm1.isend(data, 0, tag=8)
        yield comm0.irecv(1, 8).wait()

    def one_way(payload):
        start = fw.sim.now
        comm0.isend(payload, 1, tag=9)
        yield comm1.irecv(0, 9).wait()
        return fw.sim.now - start

    return (yield from measure(fw.sim, pingpong, one_way))


def omniorb(fw, node0, node1, group):
    """A CORBA invocation through GIOP on omniORB 4."""
    interface = corba.Interface(
        "IDL:quickstart/Echo:1.0",
        [
            corba.Operation(
                "ping", params=(("data", corba.TC_OCTET_SEQ),), result=corba.TC_OCTET_SEQ
            ),
            corba.Operation(
                "transfer", params=(("data", corba.TC_OCTET_SEQ),), result=corba.TC_DOUBLE
            ),
        ],
    )
    arrived = []

    class EchoServant(corba.Servant):
        def ping(self, data):
            return data

        def transfer(self, data):
            arrived.append(fw.sim.now)
            return float(fw.sim.now)

    server = corba.ORB(node1, corba.OMNIORB_4)
    client = corba.ORB(node0, corba.OMNIORB_4)
    reference = server.activate_object(EchoServant(), interface, key="echo")
    proxy = client.object_to_proxy(reference, interface)

    def pingpong(payload):
        yield from proxy.invoke("ping", payload)

    def one_way(payload):
        start = fw.sim.now
        yield from proxy.invoke("transfer", payload)
        return arrived[-1] - start

    return (yield from measure(fw.sim, pingpong, one_way))


ROWS = {
    "Circuit (parallel abstraction)": circuit,
    "VLink (distributed abstraction)": vlink,
    "MPICH-1.2.5": mpich,
    "omniORB-4.0.0": omniorb,
}


def main() -> dict:
    """Print the table; returns ``{row: (latency_us, bandwidth_MBps)}``."""
    fw, group = paper_cluster(2)
    node0, node1 = (fw.node(host.name) for host in group)
    print("Paper cluster: one-way latency and bandwidth over Myrinet-2000")
    results = {}
    for name, transport in ROWS.items():
        scenario = fw.sim.process(transport(fw, node0, node1, group))
        results[name] = latency_us, bandwidth_MBps = fw.sim.run(until=scenario, max_time=60)
        print(f"  {name:34s}{latency_us:8.2f} us{bandwidth_MBps:9.1f} MB/s")
    print()
    print("Deployment report:", fw.status_report()["adjacency"])
    return results


if __name__ == "__main__":
    main()
