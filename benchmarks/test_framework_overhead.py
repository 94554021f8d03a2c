"""EXP-PADICO-OVERHEAD — §5 text: "PadicoTM overhead is negligible: MPICH in
PadicoTM over Myrinet-2000 gets roughly the same performance as a standalone
implementation of MPICH over Myrinet-2000."

The same MPI library runs (a) through the full framework (virtual Madeleine
personality → Circuit → MadIO → NetAccess → Madeleine) and (b) bound
straight to a raw Madeleine channel — the ladder's ``MpiRung()`` and
``MpiRung(standalone=True)``; the latency and bandwidth differences are the
framework's overhead.
"""

import stack


def test_mpich_inside_framework_vs_standalone(benchmark, once, drive):
    def measure(standalone: bool):
        latency = drive.latency(stack.MpiRung(standalone=standalone))
        bandwidth = drive.bandwidth(stack.MpiRung(standalone=standalone))
        return latency * 1e6, bandwidth / 1e6

    (lat_in, bw_in), (lat_alone, bw_alone) = once(
        benchmark, lambda: (measure(False), measure(True))
    )
    benchmark.extra_info.update(
        {
            "framework_latency_us": round(lat_in, 2),
            "standalone_latency_us": round(lat_alone, 2),
            "latency_overhead_us": round(lat_in - lat_alone, 3),
            "framework_bandwidth_MBps": round(bw_in, 1),
            "standalone_bandwidth_MBps": round(bw_alone, 1),
            "paper_claim": "roughly the same performance",
        }
    )
    # negligible overhead: < 1 us of latency, < 2 % of bandwidth
    assert lat_in >= lat_alone
    assert lat_in - lat_alone < 1.0
    assert bw_alone - bw_in < 0.02 * bw_alone + 1.0
    # what the cost model gives (the in-framework cells are Table 1's)
    assert lat_alone == 11.520515151515141
    assert bw_alone == 237.3334576289405
