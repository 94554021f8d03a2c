"""Discrete-event network simulation substrate.

This package replaces the hardware of the PadicoTM evaluation platform
(dual-PIII cluster, Myrinet-2000, Ethernet-100, the VTHD WAN and a lossy
trans-continental Internet path) with a deterministic discrete-event
simulator.  Everything above it — the Madeleine-like library, the NetAccess
arbitration layer, the VLink/Circuit abstractions, the personalities and the
middleware systems — is real code that moves real bytes; only the *wire* is
simulated, with latency / bandwidth / loss models calibrated against the
figures reported in the paper.

Main entry points
-----------------
:class:`~repro.simnet.engine.Simulator`
    The event loop: virtual clock, event heap, generator-based processes.
:class:`~repro.simnet.host.Host`
    A simulated machine (CPU cost model + attached NICs).
:mod:`repro.simnet.networks`
    Calibrated network models (:class:`Myrinet2000`, :class:`Ethernet100`,
    :class:`WanVthd`, :class:`LossyInternet`, ...).
:class:`~repro.simnet.tcp.TcpConnection`
    Round-based TCP throughput model used by the SysIO arbitration driver.
"""

from repro.simnet.engine import (
    Simulator,
    SimEvent,
    Timeout,
    Process,
    AllOf,
    AnyOf,
    SimulationError,
)
from repro.simnet.partition import PartitionedSimulator, LookaheadViolation
from repro.simnet.host import Host, CpuModel
from repro.simnet.network import Network, Nic, Frame, Delivery
from repro.simnet.networks import (
    Myrinet2000,
    SciNetwork,
    Ethernet100,
    GigabitEthernet,
    WanVthd,
    LossyInternet,
    Loopback,
)
from repro.simnet.tcp import TcpStack, TcpConnection, TcpListener, TcpModel

__all__ = [
    "Simulator",
    "SimEvent",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "PartitionedSimulator",
    "LookaheadViolation",
    "Host",
    "CpuModel",
    "Network",
    "Nic",
    "Frame",
    "Delivery",
    "Myrinet2000",
    "SciNetwork",
    "Ethernet100",
    "GigabitEthernet",
    "WanVthd",
    "LossyInternet",
    "Loopback",
    "TcpStack",
    "TcpConnection",
    "TcpListener",
    "TcpModel",
]
