"""Shared helpers for the paper-row benchmarks and the paired gates.

Each benchmark regenerates one table or figure of the paper's evaluation
(§5).  The quantity of interest is *virtual* time measured inside the
simulator (latencies in µs, bandwidths in MB/s); pytest-benchmark measures
the wall-clock cost of running the simulation, which is only useful as a
regression guard.  Every benchmark therefore:

* runs the simulated experiment once inside ``benchmark.pedantic`` (or a
  plain call) so ``--benchmark-only`` runs work,
* attaches the reproduced numbers to ``benchmark.extra_info`` so they appear
  in the report, and
* asserts the *shape* the paper reports (who wins, by roughly what factor)
  next to the exact simulated value, so a cost-model drift names its cell.

Transports and scenarios are ``perfbench/``'s own (``stack.py`` rungs,
``workloads.py`` builders): a row is measured once, by the one ladder.
"""

from __future__ import annotations

import sys
from pathlib import Path

# allow running `pytest benchmarks/` from the repository root without install
_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import pytest


def run_once(benchmark, fn):
    """Run ``fn`` once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def once():
    return run_once


class _Drive:
    """Measures a ``perfbench/stack.py`` rung as the ladder does: ``connect()``,
    warm-up traffic, then the counted operations, inside the rung's simulator."""

    @staticmethod
    def _run(rung, traffic):
        return rung.sim.run(until=rung.sim.process(traffic()), max_time=600)

    def latency(self, rung, size: int = 8, iterations: int = 15) -> float:
        """One-way seconds: half the mean of ``iterations`` ping-pongs, after
        the ladder's three warm-up round trips."""
        def traffic():
            yield from rung.connect()
            for _ in range(3):
                yield from rung.pingpong(bytes(size))
            start = rung.sim.now
            for _ in range(iterations):
                yield from rung.pingpong(bytes(size))
            return (rung.sim.now - start) / iterations / 2.0
        return self._run(rung, traffic)

    def bandwidth(self, rung, size: int = 1_000_000, repeats: int = 2) -> float:
        """Bytes/second of ``repeats`` one-way transfers, after one warm-up
        transfer (connection establishment, slow start, rendezvous set-up)."""
        def traffic():
            yield from rung.connect()
            yield from rung.one_way(bytes(min(size, 65536)))
            seconds = 0.0
            for _ in range(repeats):
                seconds += (yield from rung.one_way(bytes(size)))[0]
            return size * repeats / seconds
        return self._run(rung, traffic)


@pytest.fixture
def drive():
    return _Drive()
