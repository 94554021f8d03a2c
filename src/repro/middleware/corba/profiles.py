"""Cost profiles of the four CORBA implementations measured by the paper.

The per-call overhead covers the client stub + GIOP machinery + POA dispatch
on each side of one GIOP message; the marshalling bandwidth models how the
implementation moves argument bytes into/out of the GIOP buffer:

* omniORB 3 / omniORB 4 marshal (nearly) without copies — "We notice the
  excellent performance for omniORB; as far as we know, omniORB in PadicoTM
  is the fastest existing CORBA implementation."
* Mico and ORBacus "always copy data for marshalling and unmarshalling",
  which caps them at 55 and 63 MB/s respectively on a 240 MB/s wire — the
  equivalent copy bandwidths below are obtained by inverting the
  serial-composition formula (see ``repro.simnet.cost.required_copy_bandwidth``).

Latency targets (Table 1 / §5): omniORB 3 → 20.3 µs, omniORB 4 → 18.4 µs,
Mico → 63 µs, ORBacus → 54 µs, all over a 10.2 µs VLink path, hence the
per-call overheads below (one-way ≈ VLink + 2 × per_call).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.simnet.cost import MB, MICROSECOND, check_profile


@dataclass(frozen=True)
class OrbProfile:
    """Software cost model of one CORBA implementation."""

    name: str
    #: per GIOP message, per side (marshal or demarshal + dispatch).
    per_call_overhead: float
    #: equivalent bandwidth of per-byte marshalling work, per side.
    marshal_bandwidth: float
    #: whether the implementation marshals without copying payloads.
    zero_copy: bool
    giop_version: tuple = (1, 2)

    __post_init__ = check_profile

    def describe(self) -> str:
        strategy = "zero-copy" if self.zero_copy else "copying"
        return (
            f"{self.name}: {self.per_call_overhead / MICROSECOND:.2f} us/call/side, "
            f"{strategy} marshalling at {self.marshal_bandwidth / MB:.0f} MB/s"
        )


OMNIORB_3 = OrbProfile(
    name="omniORB-3.0.2",
    per_call_overhead=5.05 * MICROSECOND,
    marshal_bandwidth=104_000.0 * MB,
    zero_copy=True,
    giop_version=(1, 0),
)

OMNIORB_4 = OrbProfile(
    name="omniORB-4.0.0",
    per_call_overhead=4.10 * MICROSECOND,
    marshal_bandwidth=30_500.0 * MB,
    zero_copy=True,
    giop_version=(1, 2),
)

MICO_2_3_7 = OrbProfile(
    name="Mico-2.3.7",
    per_call_overhead=26.4 * MICROSECOND,
    marshal_bandwidth=142.5 * MB,
    zero_copy=False,
    giop_version=(1, 2),
)

ORBACUS_4_0_5 = OrbProfile(
    name="ORBacus-4.0.5",
    per_call_overhead=21.9 * MICROSECOND,
    marshal_bandwidth=171.0 * MB,
    zero_copy=False,
    giop_version=(1, 2),
)

ORB_PROFILES: Dict[str, OrbProfile] = {
    p.name: p for p in (OMNIORB_3, OMNIORB_4, MICO_2_3_7, ORBACUS_4_0_5)
}
