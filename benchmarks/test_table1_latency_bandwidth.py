"""TAB1 — Table 1: one-way latency and maximum bandwidth over Myrinet-2000.

Paper values (``perfbench/stack.py::TABLE1``, measured through its rungs):

=================  ============== =====================
API / middleware   latency (µs)    max bandwidth (MB/s)
=================  ============== =====================
Circuit            8.4             240
VLink              10.2            239
MPICH-1.2.5        12.06           238.7
omniORB 3          20.3            238.4
omniORB 4          18.4            235.8
Java sockets       40              237.9
=================  ============== =====================

(The §5 text adds Mico at 63 µs / 55 MB/s and ORBacus at 54 µs / 63 MB/s.)
"""

import functools

import pytest

import stack

#: row -> (the ladder's layer name, then what the cost model gives for it:
#: one-way µs over 3 warm-up + 15 measured 8-byte round trips, MB/s over one
#: 64 KB warm-up + two 1 MB transfers).  The simulated values are pinned
#: exactly: a cost-model drift fails here, under the cell's name.
ROWS = {
    "Circuit": ("abstraction.circuit", 8.402833333333328, 238.79820504941196),
    "VLink": ("abstraction.vlink", 10.21033333333331, 238.6951775856317),
    "MPICH-1.2.5": ("middleware.mpi", 12.158848484848479, 237.2975075650445),
    "omniORB 3": ("middleware.corba.omniorb3", 20.431397435897463, 237.0267639864525),
    "omniORB 4": ("middleware.corba", 18.531953551912533, 234.55589943501175),
    "Java sockets": ("middleware.javasockets", 40.010558685446085, 235.43744749171523),
    "Mico-2.3.7": ("middleware.corba.mico", 63.29958771929819, 54.71194041469619),
    "ORBacus-4.0.5": ("middleware.corba.orbacus", 54.2715175438595, 62.77718001869086),
}


@functools.cache
def _ladder() -> dict:
    """``stack.RUNGS`` by layer name."""
    return {make().layer: make for make in stack.RUNGS}


def _measure(drive, row):
    make = _ladder()[ROWS[row][0]]
    return drive.latency(make()) * 1e6, drive.bandwidth(make()) / 1e6


@pytest.mark.parametrize("row", sorted(ROWS))
def test_table1_row(benchmark, once, drive, row):
    layer, model_lat, model_bw = ROWS[row]
    paper_lat, paper_bw = stack.TABLE1[layer]
    latency_us, bandwidth_MBps = once(benchmark, lambda: _measure(drive, row))
    benchmark.extra_info.update(
        {
            "row": row,
            "latency_us": round(latency_us, 2),
            "paper_latency_us": paper_lat,
            "bandwidth_MBps": round(bandwidth_MBps, 1),
            "paper_bandwidth_MBps": paper_bw,
        }
    )
    assert latency_us == pytest.approx(paper_lat, rel=0.12)
    assert bandwidth_MBps == pytest.approx(paper_bw, rel=0.10)
    assert latency_us == pytest.approx(model_lat, rel=1e-9)
    assert bandwidth_MBps == pytest.approx(model_bw, rel=1e-9)


def test_table1_latency_ordering(benchmark, once, drive):
    """The ordering the paper's Table 1 exhibits."""

    def measure():
        return {name: _measure(drive, name)[0] for name in
                ("Circuit", "VLink", "MPICH-1.2.5", "omniORB 4", "omniORB 3", "Java sockets")}

    lat = once(benchmark, measure)
    benchmark.extra_info["latencies_us"] = {k: round(v, 2) for k, v in lat.items()}
    assert (
        lat["Circuit"]
        < lat["VLink"]
        < lat["MPICH-1.2.5"]
        < lat["omniORB 4"]
        < lat["omniORB 3"]
        < lat["Java sockets"]
    )
