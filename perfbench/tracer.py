"""The benchmark's own tracer: phase spans plus a cProfile of the window,
folded by source module into the layers of BENCHMARK.json.

Self time is derived from the profile, not from spans inside ``repro`` (the
program is not instrumented): a layer's ``self_s`` is the inline time of
every Python function defined in the layer's files plus the time spent in C
builtins those functions called (``heapq``, ``bytes`` slicing, ``deque``
operations have no file of their own and are charged to their caller), so
the layers' self times add up to the profiled window.  ``calls`` counts
calls of the layer's Python functions and must repeat exactly.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

#: files of ``src/repro`` that are a layer on their own (or share one) ...
_FILES = {
    "simnet/engine.py": "simnet.engine",
    "simnet/network.py": "simnet.network",
    "simnet/networks.py": "simnet.network",
    "simnet/tcp.py": "simnet.tcp",
    "simnet/fluid.py": "simnet.fluid",
    "simnet/buffers.py": "simnet.buffers",
    "simnet/partition.py": "simnet.partition",
    "simnet/procexec.py": "simnet.partition",
    "abstraction/vlink.py": "abstraction.vlink",
    "abstraction/circuit.py": "abstraction.circuit",
    "abstraction/routing.py": "abstraction.routing",
    "abstraction/selector.py": "abstraction.routing",
    "abstraction/topology.py": "abstraction.routing",
    "abstraction/adaptive.py": "abstraction.adaptive",
    "abstraction/adaptive_circuit.py": "abstraction.adaptive",
}
#: ... and packages whose remaining files fold into one layer.
_PACKAGES = {
    "simnet": "simnet.other",
    "abstraction": "abstraction.drivers",  # drivers, adapters, common
    "madeleine": "madeleine",
    "arbitration": "arbitration",
    "methods": "methods",
    "personalities": "personalities",
    "middleware": "middleware",
    "monitoring": "monitoring",
    "telemetry": "telemetry",
    "core": "core",
}
#: everything outside ``src/repro``: perfbench itself and the stdlib.
HARNESS = "harness"

LAYERS = (
    "simnet.engine", "simnet.network", "simnet.tcp", "simnet.fluid", "simnet.buffers",
    "simnet.partition", "simnet.other", "madeleine", "arbitration", "abstraction.vlink",
    "abstraction.circuit", "abstraction.drivers", "abstraction.routing", "abstraction.adaptive",
    "methods", "personalities", "middleware", "monitoring", "telemetry", "core", HARNESS,
)

_MARKER = "/src/repro/"


def layer_of(filename: str) -> str:
    _head, marker, relative = filename.replace("\\", "/").rpartition(_MARKER)
    if not marker:
        return HARNESS
    return _FILES.get(relative) or _PACKAGES.get(relative.split("/", 1)[0], HARNESS)


def fold(profile) -> Dict[str, Tuple[float, int]]:
    """``{layer: (self seconds, calls)}`` of one ``cProfile.Profile``."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for entry in profile.getstats():
        if isinstance(entry.code, str):
            continue  # a C builtin: charged to its callers below
        layer = layer_of(entry.code.co_filename)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                self_s[layer] += sub.inlinetime
    return {layer: (self_s[layer], calls[layer]) for layer in LAYERS}


class Spans:
    """Phase spans kept in memory; ``rows`` is written out at exit."""

    def __init__(self):
        self.rows: List[dict] = []

    def open(self, name: str, parent=None, **attrs) -> int:
        self.rows.append(
            {"id": len(self.rows), "name": name, "parent": parent,
             "start": time.perf_counter(), "end": None, **attrs}
        )
        return len(self.rows) - 1

    def close(self, span: int) -> float:
        row = self.rows[span]
        row["end"] = time.perf_counter()
        return row["end"] - row["start"]
