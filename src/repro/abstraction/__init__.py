"""The abstraction layer: dual parallel + distributed abstract interfaces.

This is the heart of the paper's contribution (§3): rather than forcing a
single abstract interface (parallel-only, distributed-only or "unified"),
the framework provides **two** abstract interfaces —

* :class:`~repro.abstraction.vlink.VLink` for the distributed paradigm
  (client/server, dynamic connections, streaming, asynchronous
  ``connect/accept/read/write/close`` primitives), and
* :class:`~repro.abstraction.circuit.Circuit` for the parallel paradigm
  (communication inside a fixed *group* of nodes, incremental packing with
  explicit semantics)

— each instantiated on every kind of network through *adapters* that are
either **straight** (same paradigm at system and abstract level) or
**cross-paradigm** (e.g. VLink over MadIO to run a CORBA ORB on Myrinet).
A :class:`~repro.abstraction.selector.Selector` automatically picks the
best adapter per link from a :class:`~repro.abstraction.topology.TopologyKB`
plus user preferences.
"""

from repro.abstraction.common import AbstractionError, SoftDelivery, RxPath
from repro.abstraction.topology import TopologyKB, TopologyChange, LinkClass, LinkProfile
from repro.abstraction.routing import (
    GATEWAY_RELAY_PORT,
    GATEWAY_RELAY_SERVICE,
    GatewayRelay,
    Hop,
    Route,
    RouteChoice,
    RoutingEngine,
)
from repro.abstraction.selector import Selector, Preferences
from repro.abstraction.vlink import (
    VLink,
    VLinkManager,
    VLinkListener,
    VLinkOperation,
    VLinkState,
    VLINK_SERVICE,
)
from repro.abstraction.circuit import (
    Circuit,
    CircuitManager,
    CircuitMessage,
    CircuitIncoming,
    CIRCUIT_SERVICE,
)
from repro.abstraction.adaptive import (
    AdaptiveListener,
    AdaptiveVLink,
    route_signature,
)
from repro.abstraction.adaptive_circuit import AdaptiveCircuitAdapter
from repro.abstraction.drivers import (
    VLinkDriver,
    SysIOVLinkDriver,
    MadIOVLinkDriver,
    LoopbackVLinkDriver,
)
from repro.abstraction.adapters import (
    CircuitAdapter,
    MadIOCircuitAdapter,
    StreamMeshCircuitAdapter,
)

__all__ = [
    "AbstractionError",
    "AdaptiveCircuitAdapter",
    "AdaptiveListener",
    "AdaptiveVLink",
    "route_signature",
    "SoftDelivery",
    "RxPath",
    "TopologyKB",
    "TopologyChange",
    "LinkClass",
    "LinkProfile",
    "Selector",
    "RouteChoice",
    "Route",
    "Hop",
    "RoutingEngine",
    "GatewayRelay",
    "GATEWAY_RELAY_PORT",
    "GATEWAY_RELAY_SERVICE",
    "Preferences",
    "VLink",
    "VLinkManager",
    "VLinkListener",
    "VLinkOperation",
    "VLinkState",
    "VLINK_SERVICE",
    "Circuit",
    "CircuitManager",
    "CircuitMessage",
    "CircuitIncoming",
    "CIRCUIT_SERVICE",
    "VLinkDriver",
    "SysIOVLinkDriver",
    "MadIOVLinkDriver",
    "LoopbackVLinkDriver",
    "CircuitAdapter",
    "MadIOCircuitAdapter",
    "StreamMeshCircuitAdapter",
]
