"""The PadicoTM-equivalent core runtime.

This package plays the role of the PadicoTM process infrastructure: it boots
one :class:`~repro.core.framework.PadicoNode` per host (NetAccess core,
MadIO, SysIO, Madeleine driver, the VLink and Circuit managers with their
drivers/adapters registered) and maintains the topology knowledge base and the
selector.

Typical use::

    from repro.core import PadicoFramework
    fw = PadicoFramework()
    cluster = fw.add_cluster(["node0", "node1"], myrinet=True, ethernet=True)
    fw.boot()
    node0 = fw.node("node0")

and from there, middleware systems are instantiated on nodes (see
:mod:`repro.middleware`) or raw VLink/Circuit endpoints are used directly.
"""

from repro.core.framework import PadicoFramework, PadicoNode, FrameworkError
from repro.core.config import (
    DeploymentConfig,
    ClusterSpec,
    WanLinkSpec,
    NodeSpec,
    load_deployment,
)
from repro.core.testbeds import (
    paper_cluster,
    paper_wan_pair,
    paper_lossy_pair,
    two_cluster_grid,
)

__all__ = [
    "PadicoFramework",
    "PadicoNode",
    "FrameworkError",
    "DeploymentConfig",
    "ClusterSpec",
    "WanLinkSpec",
    "NodeSpec",
    "load_deployment",
    "paper_cluster",
    "paper_wan_pair",
    "paper_lossy_pair",
    "two_cluster_grid",
]
