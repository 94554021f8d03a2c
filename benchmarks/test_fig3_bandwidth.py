"""FIG3 — Figure 3: bandwidth vs message size over Myrinet-2000.

Curves: omniORB-3, omniORB-4, Mico-2.3.7, ORBacus-4.0.5, MPICH-1.1.2,
Java sockets — all inside the framework over Myrinet-2000 — plus the
TCP/Ethernet-100 reference curve.  Every curve is a ``perfbench/stack.py``
rung; the reference is the VLink rung on the same cluster without its SAN.

Expected shape (paper): MPI ≈ omniORB ≈ Java sockets plateau around
240 MB/s (96 % of the Myrinet-2000 hardware bandwidth); Mico ≈ 55 MB/s and
ORBacus ≈ 63 MB/s because they copy during marshalling; the Ethernet
reference plateaus around 11 MB/s.
"""

import functools

import pytest

import stack
from repro.core import paper_cluster
from repro.middleware.mpi import MPICH_1_1_2, MpiRuntime

#: a compact version of the Figure 3 x-axis (32 B → 1 MB).
SIZES = [32, 1024, 16384, 65536, 262144, 1000000]


class Mpich112Rung(stack.MpiRung):
    """Figure 3 plots MPICH-1.1.2; the ladder's MPI rung fixes 1.2.5."""

    def __init__(self):
        stack._FrameworkRung.__init__(self, "middleware.mpi")
        r0, r1 = (
            MpiRuntime(node, self.group, profile=MPICH_1_1_2, channel_name="bench")
            for node in (self.node0, self.node1)
        )
        self.comm0, self.comm1 = r0.comm_world, r1.comm_world


#: curve -> (rung factory, the deployment it runs on when not the paper's
#: cluster, the paper's plateau in MB/s read off Figure 3 / the §5 text,
#: the cost model's 1 MB point — pinned exactly).
CURVES = {
    "omniORB-3.0.2/Myrinet": (
        lambda: stack.CorbaRung("OMNIORB_3"), None, 238.4, 237.0267639864525),
    "omniORB-4.0.0/Myrinet": (stack.CorbaRung, None, 235.8, 234.5558994350118),
    "Mico-2.3.7/Myrinet": (
        lambda: stack.CorbaRung("MICO_2_3_7"), None, 55.0, 54.71194041469619),
    "ORBacus-4.0.5/Myrinet": (
        lambda: stack.CorbaRung("ORBACUS_4_0_5"), None, 63.0, 62.77718001869086),
    "MPICH-1.1.2/Myrinet": (Mpich112Rung, None, 238.7, 237.14485186983973),
    "Java socket/Myrinet": (stack.JavaSocketRung, None, 237.9, 235.43744749171523),
    "TCP/Ethernet-100 (reference)": (
        stack.VLinkRung, functools.partial(paper_cluster, myrinet=False), 11.2, 11.833902189011559),
}


def _sweep(drive, monkeypatch, curve, sizes=SIZES) -> dict:
    """Observed bandwidth (MB/s) per message size, a fresh rung per point."""
    make, deployment, _paper, _model = CURVES[curve]
    with monkeypatch.context() as patch:
        if deployment is not None:
            patch.setattr(stack, "paper_cluster", deployment)
        return {size: drive.bandwidth(make(), size, repeats=1) / 1e6 for size in sizes}


@pytest.mark.parametrize("curve", sorted(CURVES))
def test_fig3_curve(benchmark, once, drive, monkeypatch, curve):
    results = once(benchmark, lambda: _sweep(drive, monkeypatch, curve))
    _make, _deployment, paper_plateau, model_plateau = CURVES[curve]
    plateau = results[max(results)]
    benchmark.extra_info["curve"] = curve
    benchmark.extra_info["plateau_MBps"] = round(plateau, 1)
    benchmark.extra_info["paper_MBps"] = paper_plateau
    benchmark.extra_info["series_MBps"] = {s: round(v, 2) for s, v in results.items()}
    # shape check: within 15 % of the paper's plateau
    assert plateau == pytest.approx(paper_plateau, rel=0.15)
    assert plateau == model_plateau
    # bandwidth must grow with message size (the S-curve of Figure 3)
    assert results[32] < results[16384] < results[max(results)]


def test_fig3_relative_ordering(benchmark, once, drive, monkeypatch):
    """The headline shape: zero-copy middleware ≈ wire speed, copying ORBs
    collapse, Ethernet reference far below everything."""

    def measure():
        return {
            name: _sweep(drive, monkeypatch, name, sizes=[max(SIZES)])[max(SIZES)]
            for name in (
                "MPICH-1.1.2/Myrinet",
                "omniORB-4.0.0/Myrinet",
                "Mico-2.3.7/Myrinet",
                "ORBacus-4.0.5/Myrinet",
                "TCP/Ethernet-100 (reference)",
            )
        }

    plateaus = once(benchmark, measure)
    benchmark.extra_info["plateaus_MBps"] = {k: round(v, 1) for k, v in plateaus.items()}
    assert plateaus["MPICH-1.1.2/Myrinet"] > 4 * plateaus["Mico-2.3.7/Myrinet"]
    assert plateaus["omniORB-4.0.0/Myrinet"] > 3 * plateaus["ORBacus-4.0.5/Myrinet"]
    assert plateaus["ORBacus-4.0.5/Myrinet"] > plateaus["Mico-2.3.7/Myrinet"]
    assert plateaus["Mico-2.3.7/Myrinet"] > plateaus["TCP/Ethernet-100 (reference)"]
