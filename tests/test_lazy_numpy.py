"""numpy is loaded by the first array, not by the middleware that could
carry one.

Each check runs in a fresh interpreter: any test of this process may
already have imported numpy, and ``sys.modules`` remembers it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

from tests.helpers import REPO


def run_child(script: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


BYTE_TRAFFIC_THEN_ARRAYS = """
    import sys

    from repro.core import paper_cluster
    from repro.middleware import corba
    from repro.middleware.mpi import MPI_INT, SUM, MpiRuntime
    from repro.middleware.pvm import PvmTask

    fw, group = paper_cluster(2)
    n0, n1 = (fw.node(host.name) for host in group)
    comm0, comm1 = (MpiRuntime(node, group).comm_world for node in (n0, n1))
    pvm0, pvm1 = PvmTask(n0, group), PvmTask(n1, group)
    interface = corba.Interface(
        "IDL:t/Echo:1.0",
        [corba.Operation("ping", params=(("data", corba.TC_OCTET_SEQ),),
                         result=corba.TC_OCTET_SEQ)],
    )

    class Echo(corba.Servant):
        def ping(self, data):
            return data

    server = corba.ORB(n1, corba.OMNIORB_4, port=14000)
    client = corba.ORB(n0, corba.OMNIORB_4, port=14001)
    proxy = client.object_to_proxy(server.activate_object(Echo(), interface, key="e"), interface)

    def run(*gens):
        procs = [fw.sim.process(gen) for gen in gens]
        fw.sim.run(until=fw.sim.all_of(procs), max_time=60)
        return [proc.value for proc in procs]

    def byte_traffic():
        comm0.isend(b"raw bytes", 1, tag=1)
        comm0.isend({"pickled": [1, 2]}, 1, tag=2)
        raw = yield comm1.irecv(0, 1).wait()
        obj = yield comm1.irecv(0, 2).wait()
        echoed = yield from proxy.invoke("ping", b"octets")
        pvm0.initsend()
        pvm0.pkstr("pvm text")
        pvm0.send(pvm1.mytid, tag=3)
        yield from pvm1.recv(tag=3)
        return raw, obj, echoed, pvm1.upkstr()

    assert run(byte_traffic()) == [(b"raw bytes", {"pickled": [1, 2]}, b"octets", "pvm text")]
    assert "numpy" not in sys.modules, "byte traffic loaded numpy"

    # arrays still work, and the library loads numpy for them itself
    out = corba.CdrOutputStream()
    corba.TC_LONG_SEQ.encode(out, [1, -2, 3])
    assert corba.TC_LONG_SEQ.decode(corba.CdrInputStream(out.getvalue())).tolist() == [1, -2, 3]
    assert "numpy" in sys.modules

    def pvm_ints():
        pvm0.initsend()
        pvm0.pkint([4, 5, 6])
        pvm0.send(pvm1.mytid, tag=4)
        yield from pvm1.recv(tag=4)
        return pvm1.upkint().tolist()

    assert run(pvm_ints()) == [[4, 5, 6]]

    import numpy as np

    sent = np.arange(6, dtype=np.int32)
    received = np.zeros(6, dtype=np.int32)
    run(comm0.Send(sent, 1, tag=5, datatype=MPI_INT),
        comm1.Recv(received, source=0, tag=5, datatype=MPI_INT))
    assert received.tolist() == sent.tolist()
    sums = run(*(comm.allreduce(np.full(3, rank + 1.0), op=SUM)
                 for rank, comm in enumerate((comm0, comm1))))
    assert [total.tolist() for total in sums] == [[3.0, 3.0, 3.0]] * 2
"""


def test_byte_traffic_never_loads_numpy_and_arrays_still_work():
    run_child(BYTE_TRAFFIC_THEN_ARRAYS)


def test_the_ladder_never_loads_numpy():
    """perfbench's rungs, each built and warmed up as its ``stack_*`` batch
    does: MPI, the four ORBs and Java sockets carry bytes only."""
    run_child("""
        import sys

        sys.path.insert(0, "perfbench")
        import stack

        for make in stack.RUNGS:
            rung = make()

            def warm_up():
                yield from rung.connect()
                for _ in range(3):
                    yield from rung.pingpong(b"warm-up!")

            rung.sim.run(until=rung.sim.process(warm_up()), max_time=60)
        assert "numpy" not in sys.modules, "a rung loaded numpy"
    """)
