"""Alternate communication methods (§3.2).

"Even if a straight adapter is available, it is not always the better
method, especially on distributed-oriented networks."  The paper lists four
families of alternate methods, all reproduced here as additional VLink
drivers (plus a wrapping security layer), so that the selector can prefer
them per link class and middleware systems use them *without changing a
line*:

* :mod:`repro.methods.parallel_streams` — multiple sockets per logical link
  on high-bandwidth, high-latency WANs (the GridFTP trick).
* :mod:`repro.methods.adoc` — AdOC-style adaptive online compression for
  slow links (real zlib compression, adaptive per block).
* :mod:`repro.methods.vrp` — VRP, a protocol with a *tunable* loss tolerance
  for lossy WANs: give up a bounded amount of reliability for bandwidth.
* :mod:`repro.methods.security` — GSI-style authentication + ciphering for
  links that cross administrative sites.

Each driver subclasses :class:`~repro.abstraction.drivers.SysIOVLinkDriver`
(its own SysIO port range and a ``_wrap`` of the connected socket) and parses
its records in place through :mod:`repro.abstraction.records`; AdOC and GSI
are codecs over one :class:`~repro.abstraction.records.CodecConnection`.
"""

from repro.methods.parallel_streams import ParallelStreamsVLinkDriver, ParallelStreamConnection
from repro.methods.adoc import AdocVLinkDriver, AdocConnection, AdocCodec
from repro.methods.vrp import VrpVLinkDriver, VrpConnection, VrpStats
from repro.methods.security import SecureVLinkDriver, SecureConnection, SiteCredential

__all__ = [
    "register_method_drivers",
    "register_wan_method_drivers",
    "ParallelStreamsVLinkDriver",
    "ParallelStreamConnection",
    "AdocVLinkDriver",
    "AdocConnection",
    "AdocCodec",
    "VrpVLinkDriver",
    "VrpConnection",
    "VrpStats",
    "SecureVLinkDriver",
    "SecureConnection",
    "SiteCredential",
]


def register_method_drivers(node, *, streams: int = 4, vrp_tolerance: float = 0.10) -> None:
    """Register every method driver on a booted node's VLink manager."""
    manager = node.vlink
    sysio = node.sysio
    manager.register_driver(ParallelStreamsVLinkDriver(sysio, streams=streams))
    manager.register_driver(AdocVLinkDriver(sysio))
    manager.register_driver(VrpVLinkDriver(sysio, tolerance=vrp_tolerance))
    manager.register_driver(SecureVLinkDriver(sysio))


def register_wan_method_drivers(node, *, streams: int = 4) -> None:
    """Register the WAN method drivers a *gateway* needs for relayed hops.

    Parallel streams and AdOC are lossless by construction; VRP is pinned at
    zero tolerance because a relay (or an adaptive rail) must never give up
    bytes that belong to somebody else's stream.  An already-registered
    driver wins the name (``register_driver`` keeps the existing instance) —
    that is safe because relay legs and adaptive rails restrict selection to
    *reliable* drivers, so a user-registered lossy VRP is simply not used
    for them.
    """
    manager = node.vlink
    sysio = node.sysio
    manager.register_driver(ParallelStreamsVLinkDriver(sysio, streams=streams))
    manager.register_driver(AdocVLinkDriver(sysio))
    manager.register_driver(VrpVLinkDriver(sysio, tolerance=0.0))
