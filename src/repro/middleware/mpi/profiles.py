"""Cost profiles of the MPICH versions measured by the paper.

Table 1 reports MPICH-1.2.5 at 12.06 µs one-way latency and 238.7 MB/s over
Myrinet-2000 inside PadicoTM; Figure 3 plots MPICH-1.1.2.  The profile adds
the MPI library's own software work on top of the Circuit/Madeleine path
(request management, tag matching, datatype handling, ADI dispatch):

* ``per_call_overhead`` — per message, per side;
* ``copy_bandwidth`` — equivalent bandwidth of the library's per-byte
  handling on each side (MPICH/Madeleine is essentially zero-copy, so this
  is very high: it only accounts for the ~1 MB/s drop between the Circuit
  plateau and the MPICH plateau in Table 1);
* ``eager_threshold`` — messages above it use the rendezvous path (the
  underlying Madeleine layer adds its own rendezvous round-trip).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simnet.cost import KB, MB, MICROSECOND, check_profile


@dataclass(frozen=True)
class MpiProfile:
    """Software cost model of one MPI implementation."""

    name: str
    per_call_overhead: float
    copy_bandwidth: float
    eager_threshold: int = 32 * KB

    __post_init__ = check_profile

    def describe(self) -> str:
        return (
            f"{self.name}: {self.per_call_overhead / MICROSECOND:.2f} us/call/side, "
            f"{self.copy_bandwidth / MB:.0f} MB/s handling"
        )


#: the version benchmarked in Table 1.
MPICH_1_2_5 = MpiProfile(
    name="MPICH-1.2.5",
    per_call_overhead=1.83 * MICROSECOND,
    copy_bandwidth=88_000.0 * MB,
)

#: the (slightly older) version plotted in Figure 3.
MPICH_1_1_2 = MpiProfile(
    name="MPICH-1.1.2",
    per_call_overhead=2.05 * MICROSECOND,
    copy_bandwidth=80_000.0 * MB,
)
