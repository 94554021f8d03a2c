"""Cost accounting for the software layers of the communication stack.

Every layer of the reproduced PadicoTM stack (Madeleine, MadIO/SysIO, the
VLink/Circuit adapters, the personalities and the middleware systems) is real
Python code that manipulates real bytes, but the *time* it would take on the
paper's platform (dual Pentium III, 1 GHz) is tracked explicitly through a
:class:`Cost` ledger rather than through wall-clock measurement — wall clock
of the simulator host would be meaningless for reproducing 2004 numbers.

Costs come in two flavours:

``charge(seconds)``
    fixed per-operation software overhead (function call chains, header
    manipulation, system call, interrupt, ...).

``charge_copy(nbytes, bandwidth)``
    per-byte work such as a memory copy or a marshalling pass, expressed as
    an equivalent copy bandwidth in bytes/second.

A :class:`Cost` is one running total: *where* time went is read from the
ladder of transports (``perfbench/stack.py``), one rung per layer, not from
the ledger.
"""

from __future__ import annotations

from typing import Tuple

MICROSECOND = 1e-6
MILLISECOND = 1e-3
KB = 1024
MB = 1_000_000  # the paper reports MB/s in decimal megabytes


class Cost:
    """Accumulates virtual CPU time spent by software layers on one operation."""

    __slots__ = ("_total",)

    def __init__(self) -> None:
        self._total = 0.0

    # -- charging -----------------------------------------------------------
    def charge(self, seconds: float) -> "Cost":
        """Add a fixed software overhead (seconds of virtual time)."""
        if seconds < 0:
            raise ValueError(f"negative cost: {seconds!r}")
        self._total += seconds
        return self

    def charge_us(self, microseconds: float) -> "Cost":
        """Add a fixed software overhead expressed in microseconds."""
        return self.charge(microseconds * MICROSECOND)

    def charge_copy(self, nbytes: int, bandwidth: float) -> "Cost":
        """Add per-byte work at an equivalent ``bandwidth`` (bytes/second)."""
        if bandwidth <= 0:
            raise ValueError(f"copy bandwidth must be positive, got {bandwidth!r}")
        if nbytes < 0:
            raise ValueError(f"negative byte count: {nbytes!r}")
        return self.charge(nbytes / bandwidth)

    def merge(self, other: "Cost") -> "Cost":
        """Fold another ledger into this one (used when layers hand off)."""
        self._total += other._total
        return self

    # -- reading ------------------------------------------------------------
    @property
    def seconds(self) -> float:
        """Total accumulated virtual time, in seconds."""
        return self._total

    @property
    def microseconds(self) -> float:
        """Total accumulated virtual time, in microseconds."""
        return self._total / MICROSECOND

    def copy(self) -> "Cost":
        clone = Cost()
        clone._total = self._total
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cost {self.microseconds:.3f}us>"


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
