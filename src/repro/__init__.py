"""repro — a PadicoTM-style dual-abstraction grid communication framework.

Reproduction of *"Network Communications in Grid Computing: At a Crossroads
Between Parallel and Distributed Worlds"* (A. Denis, C. Pérez, T. Priol —
IPDPS 2004) as a pure-Python library over a deterministic discrete-event
network simulator.

Layer map (bottom-up, mirroring the paper's Figure 2):

=====================  =====================================================
:mod:`repro.simnet`    simulated hardware: networks, NICs, hosts, TCP model
:mod:`repro.madeleine` Madeleine-like SAN communication library
:mod:`repro.arbitration`  NetAccess: MadIO + SysIO + fairness core
:mod:`repro.abstraction`  VLink (distributed) + Circuit (parallel) + selector
:mod:`repro.methods`   parallel streams, AdOC compression, VRP, GSI security
:mod:`repro.personalities`  Vio, SysWrap, Aio, FastMessage, virtual Madeleine
:mod:`repro.middleware`  MPI, CORBA ORBs, Java sockets, SOAP, HLA, PVM, DSM
:mod:`repro.core`      PadicoTM-equivalent runtime (deployment + node boot)
=====================  =====================================================

Quickstart::

    from repro.core import paper_cluster
    from repro.middleware.mpi import MpiRuntime

    fw, group = paper_cluster(2)
    comm0, comm1 = (MpiRuntime(fw.node(h.name), group).comm_world for h in group)
    comm0.isend(b"8 bytes!", 1, tag=7)
    print(fw.sim.run(until=comm1.irecv(0, 7).wait()), "after", fw.sim.now * 1e6, "us")
"""

__version__ = "0.2.0"

__all__ = ["__version__"]
