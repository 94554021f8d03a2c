"""Tests for the MPI middleware (point-to-point, matching, collectives, datatypes)."""

import numpy as np
import pytest

from tests.helpers import run

from repro.middleware.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    MAX,
    MIN,
    MPI_BYTE,
    MPI_DOUBLE,
    MPI_INT,
    MPICH_1_1_2,
    MPICH_1_2_5,
    MpiError,
    MpiRuntime,
    PROD,
    SUM,
    standalone_mpi_pair,
)


def mpi_world(fw, group, **kwargs):
    return [MpiRuntime(fw.node(h.name), group, **kwargs).comm_world for h in group]


# --------------------------------------------------------------------------
# datatypes and reduction ops
# --------------------------------------------------------------------------


def test_datatype_roundtrip():
    arr = np.arange(10, dtype="<i4")
    raw = MPI_INT.to_bytes(arr)
    back = MPI_INT.from_bytes(raw)
    assert np.array_equal(arr, back)
    assert MPI_INT.count_of(raw) == 10
    with pytest.raises(ValueError):
        MPI_INT.count_of(raw[:-1])
    assert MPI_BYTE.to_bytes(b"abc") == b"abc"
    with pytest.raises(TypeError):
        MPI_BYTE.to_bytes([1, 2, 3])
    derived = MPI_DOUBLE.contiguous(4)
    assert derived.itemsize == 32
    with pytest.raises(ValueError):
        MPI_DOUBLE.contiguous(0)


def test_reduce_ops_on_scalars_and_arrays():
    assert SUM(2, 3) == 5
    assert MIN(2, 3) == 2
    assert MAX(np.array([1, 5]), np.array([4, 2])).tolist() == [4, 5]
    assert SUM(np.array([1.0, 2.0]), np.array([3.0, 4.0])).tolist() == [4.0, 6.0]
    assert PROD(3, 4) == 12
    assert PROD(np.array([2, 3]), np.array([4, 5])).tolist() == [8, 15]


# --------------------------------------------------------------------------
# point to point
# --------------------------------------------------------------------------


def test_send_recv_python_objects(cluster):
    fw, group = cluster
    comms = mpi_world(fw, group)

    def scenario():
        payload = {"a": 7, "b": [1, 2, 3]}
        comms[0].isend(payload, 1, tag=11)
        data = yield from comms[1].recv(source=0, tag=11)
        return data

    assert run(fw, scenario()) == {"a": 7, "b": [1, 2, 3]}


def test_send_recv_numpy_buffers_uppercase(cluster):
    fw, group = cluster
    comms = mpi_world(fw, group)

    def scenario():
        data = np.arange(100, dtype="<f8")
        comms[0].Isend(data, 1, tag=5, datatype=MPI_DOUBLE)
        buf = np.zeros(100, dtype="<f8")
        status = yield from comms[1].Recv(buf, source=0, tag=5, datatype=MPI_DOUBLE)
        return buf, status

    buf, status = run(fw, scenario())
    assert np.array_equal(buf, np.arange(100, dtype="<f8"))
    assert status.get_source() == 0 and status.get_tag() == 5
    assert status.get_count(MPI_DOUBLE) == 100


def test_tag_matching_and_out_of_order_receive(cluster):
    fw, group = cluster
    comms = mpi_world(fw, group)

    def scenario():
        comms[0].isend(b"first", 1, tag=1)
        comms[0].isend(b"second", 1, tag=2)
        # receive the later tag first: the earlier message must wait in the
        # unexpected queue without being consumed
        second = yield from comms[1].recv(source=0, tag=2)
        first = yield from comms[1].recv(source=0, tag=1)
        return first, second

    assert run(fw, scenario()) == (b"first", b"second")


def test_any_source_any_tag_and_probe(cluster):
    fw, group = cluster
    comms = mpi_world(fw, group)

    def scenario():
        comms[0].isend(b"wildcard", 1, tag=42)
        yield fw.sim.timeout(1e-3)
        status = comms[1].probe(ANY_SOURCE, ANY_TAG)
        data = yield from comms[1].recv(ANY_SOURCE, ANY_TAG)
        return status, data

    status, data = run(fw, scenario())
    assert data == b"wildcard"
    assert status is not None and status.get_tag() == 42
    assert status.get_count() == len(b"wildcard")


def test_isend_irecv_requests(cluster):
    fw, group = cluster
    comms = mpi_world(fw, group)

    def scenario():
        req_r = comms[1].irecv(source=0, tag=3)
        assert not req_r.test()
        req_s = comms[0].isend(b"nonblocking", 1, tag=3)
        data = yield req_r.wait()
        yield req_s.wait()
        assert req_r.test() and req_s.test()
        return data, req_r.status.source

    data, src = run(fw, scenario())
    assert data == b"nonblocking" and src == 0


def test_cancelled_receives_leave_the_posted_list_when_a_message_arrives(cluster):
    fw, group = cluster
    comms = mpi_world(fw, group)
    receiver = comms[1]
    for req in [receiver.irecv(0, 5) for _ in range(3)]:
        req.cancel()

    def scenario():
        yield from comms[0].send(b"tag five", 1, tag=5)
        yield fw.sim.timeout(1e-3)
        # the arrival met three cancelled receives: none of them took it and
        # none of them stays posted for later arrivals to scan past
        after_arrival = (list(receiver._posted), receiver.pending_unexpected())
        data = yield from receiver.recv(0, 5)
        return after_arrival, data

    assert run(fw, scenario()) == (([], 1), b"tag five")
    assert receiver._posted == [] and receiver.pending_unexpected() == 0


def test_sendrecv(cluster):
    fw, group = cluster
    comms = mpi_world(fw, group)

    def rank0():
        other = yield from comms[0].sendrecv(b"from0", dest=1, source=1, sendtag=9, recvtag=9)
        return other

    def rank1():
        other = yield from comms[1].sendrecv(b"from1", dest=0, source=0, sendtag=9, recvtag=9)
        return other

    p0 = fw.sim.process(rank0())
    p1 = fw.sim.process(rank1())
    fw.sim.run(max_time=10)
    assert p0.value == b"from1" and p1.value == b"from0"


def test_invalid_destination_rank(cluster):
    fw, group = cluster
    comms = mpi_world(fw, group)
    with pytest.raises(MpiError):
        comms[0].isend(b"x", 9)


def test_latency_and_bandwidth_against_table1(cluster):
    fw, group = cluster
    comms = mpi_world(fw, group, profile=MPICH_1_2_5)

    def pingpong():
        # warm-up
        comms[0].isend(b"w" * 8, 1, tag=0)
        yield comms[1].irecv(0, 0).wait()
        comms[1].isend(b"w" * 8, 0, tag=0)
        yield comms[0].irecv(1, 0).wait()
        t0 = fw.sim.now
        n = 10
        for _ in range(n):
            comms[0].isend(b"p" * 8, 1, tag=1)
            data = yield comms[1].irecv(0, 1).wait()
            comms[1].isend(data, 0, tag=2)
            yield comms[0].irecv(1, 2).wait()
        latency = (fw.sim.now - t0) / n / 2
        t0 = fw.sim.now
        comms[0].isend(b"b" * 1_000_000, 1, tag=3)
        yield comms[1].irecv(0, 3).wait()
        bandwidth = 1_000_000 / (fw.sim.now - t0)
        return latency, bandwidth

    latency, bandwidth = run(fw, pingpong())
    assert 11e-6 < latency < 13.5e-6       # paper: 12.06 us
    assert 220e6 < bandwidth < 245e6       # paper: 238.7 MB/s


def test_framework_overhead_vs_standalone_is_small(cluster):
    """§5: MPICH in PadicoTM ≈ standalone MPICH over Myrinet."""
    fw, group = cluster
    inside = mpi_world(fw, group, channel_name="inside")
    san = [n for n in group[0].networks() if n.is_parallel][0]
    standalone = [r.comm_world for r in standalone_mpi_pair(san, group)]

    def pingpong(comms, tag):
        def _gen():
            t0 = fw.sim.now
            n = 10
            for _ in range(n):
                comms[0].isend(b"p" * 8, 1, tag=tag)
                data = yield comms[1].irecv(0, tag).wait()
                comms[1].isend(data, 0, tag=tag + 1)
                yield comms[0].irecv(1, tag + 1).wait()
            return (fw.sim.now - t0) / n / 2
        return _gen()

    lat_inside = run(fw, pingpong(inside, 10))
    lat_standalone = run(fw, pingpong(standalone, 20))
    assert lat_inside >= lat_standalone
    assert lat_inside - lat_standalone < 0.8e-6  # "negligible" overhead


def test_mpich_112_slower_than_125(cluster):
    fw, group = cluster
    old = mpi_world(fw, group, profile=MPICH_1_1_2, channel_name="old")
    new = mpi_world(fw, group, profile=MPICH_1_2_5, channel_name="new")

    def one_way(comms, tag):
        def _gen():
            t0 = fw.sim.now
            comms[0].isend(b"x" * 8, 1, tag=tag)
            yield comms[1].irecv(0, tag).wait()
            return fw.sim.now - t0
        return _gen()

    assert run(fw, one_way(old, 1)) > run(fw, one_way(new, 2))


# --------------------------------------------------------------------------
# collectives
# --------------------------------------------------------------------------


def run_collective(fw, comms, make_gen):
    """Run one collective on every rank; returns the per-rank results."""
    procs = [fw.sim.process(make_gen(comm, rank)) for rank, comm in enumerate(comms)]
    fw.sim.run(until=fw.sim.all_of(procs), max_time=60)
    return [p.value for p in procs]


@pytest.mark.parametrize("nranks", [2, 4])
def test_bcast(cluster4, nranks):
    fw, group4 = cluster4
    group = fw.group([h.name for h in list(group4)[:nranks]], f"bcast{nranks}")
    comms = mpi_world(fw, group, channel_name=f"bcast{nranks}")

    def gen(comm, rank):
        obj = {"payload": 123} if rank == 0 else None
        result = yield from comm.bcast(obj, root=0)
        return result

    results = run_collective(fw, comms, gen)
    assert all(r == {"payload": 123} for r in results)


def test_reduce_and_allreduce(cluster4):
    fw, group = cluster4
    comms = mpi_world(fw, group, channel_name="reduce")

    def gen(comm, rank):
        assert (comm.Get_rank(), comm.Get_size()) == (rank, 4)
        total = yield from comm.reduce(rank + 1, op=SUM, root=0)
        every = yield from comm.allreduce(rank + 1, op=SUM)
        product = yield from comm.reduce(rank + 1, op=PROD, root=0)
        return total, every, product

    results = run_collective(fw, comms, gen)
    assert results[0][0] == 10  # 1+2+3+4 at the root
    assert all(r[1] == 10 for r in results)
    assert all(results[i][0] is None for i in range(1, 4))
    assert results[0][2] == 24  # 1*2*3*4 at the root


def test_gather_scatter_allgather_alltoall(cluster4):
    fw, group = cluster4
    comms = mpi_world(fw, group, channel_name="gsa")

    def gen(comm, rank):
        gathered = yield from comm.gather(rank * 10, root=0)
        items = [f"item{i}" for i in range(comm.size)] if rank == 0 else None
        scattered = yield from comm.scatter(items, root=0)
        allgathered = yield from comm.allgather(rank)
        alltoall = yield from comm.alltoall([f"{rank}->{dst}" for dst in range(comm.size)])
        return gathered, scattered, allgathered, alltoall

    results = run_collective(fw, comms, gen)
    assert results[0][0] == [0, 10, 20, 30]
    assert all(results[i][0] is None for i in range(1, 4))
    assert [r[1] for r in results] == ["item0", "item1", "item2", "item3"]
    assert all(r[2] == [0, 1, 2, 3] for r in results)
    assert results[2][3] == ["0->2", "1->2", "2->2", "3->2"]


def test_barrier_and_scan(cluster4):
    fw, group = cluster4
    comms = mpi_world(fw, group, channel_name="bs")

    def gen(comm, rank):
        yield from comm.barrier()
        prefix = yield from comm.scan(rank + 1, op=SUM)
        return prefix

    results = run_collective(fw, comms, gen)
    assert results == [1, 3, 6, 10]


def test_reduce_with_numpy_arrays(cluster):
    fw, group = cluster
    comms = mpi_world(fw, group, channel_name="nred")

    def gen(comm, rank):
        arr = np.full(8, float(rank + 1))
        result = yield from comm.allreduce(arr, op=SUM)
        return result

    results = run_collective(fw, comms, gen)
    for r in results:
        assert np.allclose(r, np.full(8, 3.0))


def test_scatter_requires_right_length(cluster):
    fw, group = cluster
    comms = mpi_world(fw, group, channel_name="scerr")

    def gen(comm, rank):
        if rank == 0:
            try:
                yield from comm.scatter([1], root=0)
            except ValueError:
                return "bad-length"
        else:
            yield fw.sim.timeout(0)
            return None

    results = run_collective(fw, comms, gen)
    assert results[0] == "bad-length"


def test_communicator_contexts_are_isolated(cluster):
    fw, group = cluster
    r0 = MpiRuntime(fw.node(group[0].name), group, channel_name="ctx")
    r1 = MpiRuntime(fw.node(group[1].name), group, channel_name="ctx")
    dup0, dup1 = r0.create_communicator(), r1.create_communicator()

    def scenario():
        # same tag on two different communicators: no cross-talk
        r0.comm_world.isend(b"world", 1, tag=7)
        dup0.isend(b"dup", 1, tag=7)
        world_msg = yield from r1.comm_world.recv(0, 7)
        dup_msg = yield from dup1.recv(0, 7)
        return world_msg, dup_msg

    assert run(fw, scenario()) == (b"world", b"dup")


# --------------------------------------------------------------------------
# circuit-backed channels: collectives over routed / adaptive legs
# --------------------------------------------------------------------------


def routed_mpi_deployment():
    """Two Ethernet clusters joined only through a dual-homed gateway: the
    MPI group's hosts share no network, so every cross-cluster circuit leg
    must relay (LinkClass.ROUTED)."""
    from repro.core import PadicoFramework
    from repro.simnet.networks import Ethernet100, WanVthd

    fw = PadicoFramework()
    for name, site in [("a0", "sa"), ("a1", "sa"), ("gw", "sa"), ("b0", "sb")]:
        fw.add_host(name, site=site)
    lan_a = fw.add_network(Ethernet100(fw.sim, "lan-a"))
    wan = fw.add_network(WanVthd(fw.sim, "wan"))
    for h in ("a0", "a1", "gw"):
        lan_a.connect(fw.host(h))
    wan.connect(fw.host("gw")), wan.connect(fw.host("b0"))
    fw.boot()
    return fw


def test_mpi_unknown_channels_mode_rejected(cluster):
    fw, group = cluster
    with pytest.raises(MpiError, match="channels mode"):
        MpiRuntime(fw.node(group[0].name), group, channels="bogus")


def test_mpi_explicit_channel_conflicts_with_channels_mode(cluster):
    """An explicit channel is used as-is, so combining it with a channels
    mode (or adaptive=) must fail loudly instead of silently ignoring the
    requested transport."""
    fw, group = cluster
    node = fw.node(group[0].name)
    base = MpiRuntime(node, group, channel_name="conflict-base")
    with pytest.raises(MpiError, match="conflicts"):
        MpiRuntime(node, group, channel=base.channel, channels="circuit")
    with pytest.raises(MpiError, match="conflicts"):
        MpiRuntime(node, group, channel=base.channel, adaptive=True)
    with pytest.raises(MpiError, match="channels mode"):
        MpiRuntime(node, group, channel=base.channel, channels="bogus")
    with pytest.raises(MpiError, match='requires channels="circuit"'):
        MpiRuntime(node, group, adaptive=True, channel_name="conflict-vmad")


def test_mpi_channel_name_reuse_across_modes_rejected(cluster):
    """The circuit behind a channel name is cached per node: reopening the
    same name in a different adaptive mode must fail loudly instead of
    silently handing back the other transport."""
    from repro.abstraction.common import AbstractionError

    fw, group = cluster
    node = fw.node(group[0].name)
    MpiRuntime(node, group, channel_name="reuse")  # static vmad circuit
    with pytest.raises(AbstractionError, match="already open with adaptive=False"):
        MpiRuntime(node, group, channels="circuit", channel_name="reuse")


def test_mpi_broadcast_over_routed_adaptive_circuit():
    """channels="circuit": an MPI broadcast rides a route-aware adaptive
    Circuit whose cross-cluster legs relay through the gateway."""
    from repro.abstraction import LinkClass

    fw = routed_mpi_deployment()
    group = fw.group(["a0", "a1", "b0"], "mpi-routed")
    runtimes = [
        MpiRuntime(fw.node(h.name), group, channels="circuit", channel_name="routed")
        for h in group
    ]
    comms = [r.comm_world for r in runtimes]

    # the channel really is a circuit with adaptive sessions and a routed
    # cross-cluster leg (a0 -> b0 shares no network with the root)
    circuit = runtimes[0].channel.circuit
    assert circuit.adaptive is not None
    assert circuit.route_for(2).link_class is LinkClass.ROUTED

    def gen(comm, rank):
        obj = {"blob": b"x" * 4096, "n": 42} if rank == 0 else None
        result = yield from comm.bcast(obj, root=0)
        return result

    results = run_collective(fw, comms, gen)
    assert all(r == {"blob": b"x" * 4096, "n": 42} for r in results)


def test_mpi_collectives_over_routed_circuit_static_legs():
    """channels="circuit" with adaptive=False: route-aware static legs
    still relay collectives through the gateway."""
    fw = routed_mpi_deployment()
    group = fw.group(["a0", "b0"], "mpi-routed-static")
    runtimes = [
        MpiRuntime(
            fw.node(h.name), group, channels="circuit", adaptive=False,
            channel_name="routed-static",
        )
        for h in group
    ]
    assert runtimes[0].channel.circuit.adaptive is None
    comms = [r.comm_world for r in runtimes]

    def gen(comm, rank):
        total = yield from comm.allreduce(rank + 1, op=SUM)
        data = yield from comm.bcast(b"payload" if rank == 0 else None, root=0)
        return total, data

    results = run_collective(fw, comms, gen)
    assert all(r == (3, b"payload") for r in results)
