"""Cost accounting for the software layers of the communication stack.

Every layer of the reproduced PadicoTM stack (Madeleine, MadIO/SysIO, the
VLink/Circuit adapters, the personalities and the middleware systems) is real
Python code that manipulates real bytes, but the *time* it would take on the
paper's platform (dual Pentium III, 1 GHz) is tracked explicitly as a plain
``float`` of seconds rather than through wall-clock measurement — wall clock
of the simulator host would be meaningless for reproducing 2004 numbers.

A layer's cost is a fixed per-operation software overhead (function call
chains, header manipulation, system call, interrupt, ...) plus per-byte work
such as a memory copy or a marshalling pass, expressed as an equivalent copy
bandwidth in bytes/second: ``overhead + nbytes / bandwidth``.  A message's
cost is the left-to-right sum of what each layer adds, in the order the
layers run (float addition does not associate: regrouping a sum moves the
model's last bits, which the paper-row benchmarks pin exactly); *where* time
went is read from the ladder of transports (``perfbench/stack.py``), one
rung per layer, not from the sum.

The profiles those terms come from (:class:`~repro.simnet.host.CpuModel`,
Madeleine's, MPI's and the ORBs') are checked once, when built, by
:func:`check_profile`.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from typing import Tuple

MICROSECOND = 1e-6
MILLISECOND = 1e-3
KB = 1024
MB = 1_000_000  # the paper reports MB/s in decimal megabytes


def _check(owner: str, names: Tuple[str, ...], values: tuple) -> None:
    for name, value in zip(names, values):
        if value is not dataclasses.MISSING and (
            value < 0 if name.endswith("_overhead") else value <= 0
        ):
            raise ValueError(f"{owner}.{name} = {value!r}")


@functools.cache
def _rate_fields(cls) -> tuple:
    """``(get, names, defaults)`` of a cost profile class: a getter of its
    ``*_overhead`` and ``*_bandwidth`` fields (a tuple: every profile has
    two or more), their names, and their class defaults, checked here once
    (``MISSING`` where a field has none)."""
    fields = [f for f in dataclasses.fields(cls) if f.name.endswith(("_overhead", "_bandwidth"))]
    names = tuple(f.name for f in fields)
    defaults = tuple(f.default for f in fields)
    _check(cls.__name__, names, defaults)
    return operator.attrgetter(*names), names, defaults


def check_profile(profile) -> None:
    """A cost profile's ``__post_init__``: every ``*_overhead`` field is a
    cost (>= 0 seconds) and every ``*_bandwidth`` field a rate (> 0 bytes/s).
    Every host builds a ``CpuModel`` from the defaults, so a profile equal
    to its checked defaults costs one getter call and one comparison (and
    reads no ``__dict__``, which would materialise one per instance)."""
    get, names, defaults = _rate_fields(type(profile))
    values = get(profile)
    if values != defaults:
        _check(type(profile).__name__, names, values)


def latency_bandwidth_time(nbytes: int, latency: float, bandwidth: float) -> float:
    """Classic first-order transfer time model: ``latency + nbytes/bandwidth``."""
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    return latency + nbytes / bandwidth


def effective_bandwidth(nbytes: int, elapsed: float) -> float:
    """Observed bandwidth in bytes/second for ``nbytes`` moved in ``elapsed`` s."""
    if elapsed <= 0:
        raise ValueError("elapsed time must be positive")
    return nbytes / elapsed


def combine_bandwidths(*bandwidths: float) -> float:
    """Serial composition of per-byte stages (harmonic combination).

    Moving a byte through stages with bandwidths ``b1, b2, ...`` (wire,
    marshalling copy, extra memory copy, ...) takes ``sum(1/bi)`` seconds, so
    the end-to-end bandwidth is the harmonic combination.  This is the model
    the paper implicitly uses when it attributes Mico's 55 MB/s plateau to
    copying marshalling on a 240 MB/s wire.
    """
    inv = 0.0
    for b in bandwidths:
        if b <= 0:
            raise ValueError("bandwidths must be positive")
        inv += 1.0 / b
    if inv == 0.0:
        raise ValueError("at least one bandwidth required")
    return 1.0 / inv


def required_copy_bandwidth(observed: float, wire: float) -> float:
    """Invert :func:`combine_bandwidths` for a single extra stage.

    Given an observed end-to-end bandwidth and the wire bandwidth, return the
    equivalent bandwidth of the additional per-byte stage that explains the
    difference.  Used to calibrate the copying-ORB marshalling profiles from
    the numbers in the paper (Mico 55 MB/s, ORBacus 63 MB/s on a 240 MB/s
    Myrinet path).
    """
    if observed >= wire:
        raise ValueError("observed bandwidth must be below the wire bandwidth")
    return 1.0 / (1.0 / observed - 1.0 / wire)


def split_even(total: int, parts: int) -> Tuple[int, ...]:
    """Split ``total`` bytes into ``parts`` chunks differing by at most one byte."""
    if parts <= 0:
        raise ValueError("parts must be >= 1")
    base, extra = divmod(total, parts)
    return tuple(base + (1 if i < extra else 0) for i in range(parts))


def format_bandwidth(bytes_per_second: float, unit: str = "MB/s") -> str:
    """Human formatting used by the bench harness (decimal MB, like the paper)."""
    if unit == "MB/s":
        return f"{bytes_per_second / MB:.1f} MB/s"
    if unit == "KB/s":
        return f"{bytes_per_second / 1000:.0f} KB/s"
    raise ValueError(f"unknown unit {unit!r}")


def format_latency(seconds: float) -> str:
    """Human formatting of a latency (µs below 1 ms, ms above)."""
    if seconds < MILLISECOND:
        return f"{seconds / MICROSECOND:.2f} us"
    return f"{seconds / MILLISECOND:.2f} ms"
