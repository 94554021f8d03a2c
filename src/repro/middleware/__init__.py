"""Middleware systems hosted by the framework.

"The middleware systems likely to be used by grid-enabled applications are
various: MPI, CORBA, SOAP, HLA, JVM, PVM, etc." (§3.2) — PadicoTM reuses
existing implementations unchanged through the personalities.  Since no such
C/C++ implementation can run in this offline pure-Python environment, this
package re-implements a functional equivalent of each one *on top of the
same personalities*, with per-implementation cost profiles calibrated from
the paper's measurements (e.g. omniORB marshals without copies, Mico and
ORBacus copy during marshalling, the JVM socket layer pays a high per-call
cost):

* :mod:`repro.middleware.mpi` — an MPI library in the MPICH/Madeleine mould
  (communicators, point-to-point with tag matching, collectives, datatypes),
  over the virtual-Madeleine personality.
* :mod:`repro.middleware.corba` — a CORBA ORB with CDR marshalling, GIOP
  requests/replies and four implementation profiles (omniORB 3, omniORB 4,
  Mico 2.3, ORBacus 4.0), over SysWrap sockets.
* :mod:`repro.middleware.javasockets` — the Kaffe-style JVM socket + data
  stream layer, over SysWrap.
* :mod:`repro.middleware.soap` — a gSOAP-like XML/HTTP RPC stack.
* :mod:`repro.middleware.hla` — an HLA Run-Time Infrastructure (federations,
  publish/subscribe, attribute reflection), in the Certi mould.
* :mod:`repro.middleware.pvm` — a PVM-style message-passing library.
* :mod:`repro.middleware.dsm` — a page-based distributed shared memory.

A middleware system is loaded by constructing it on a booted
:class:`~repro.core.framework.PadicoNode` (``MpiRuntime(node, group)``,
``ORB(node, profile)``, ...); any combination of them may run on the same
nodes at the same time (§4.3).
"""
