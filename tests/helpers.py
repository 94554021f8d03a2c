"""Shared helpers used across the test modules."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    """A fresh import of ``tools/<name>.py`` (scripts, not a package)."""
    spec = importlib.util.spec_from_file_location(name, REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(fw, gen, max_time=60.0):
    """Run a generator to completion inside a framework's simulator."""
    return fw.sim.run(until=fw.sim.process(gen), max_time=max_time)


def chop(image: bytes, cuts):
    """``image`` as the gather a stream read in pieces hands a decoder: part
    boundaries wherever ``cuts`` fall (taken modulo its length) — inside a
    header, a primitive, the padding in front of a double, a payload."""
    from repro.simnet.buffers import Gather

    edges = [0, *sorted(cut % (len(image) + 1) for cut in cuts), len(image)]
    return Gather(image[lo:hi] for lo, hi in zip(edges, edges[1:]))
