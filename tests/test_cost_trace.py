"""Unit tests for the cost profiles' checks and the transfer-time helpers."""

from dataclasses import replace

import pytest

from repro.madeleine.driver import MadeleineCostModel
from repro.middleware.corba.profiles import OMNIORB_4
from repro.middleware.mpi.profiles import MPICH_1_2_5
from repro.simnet.cost import (
    combine_bandwidths,
    effective_bandwidth,
    format_bandwidth,
    format_latency,
    latency_bandwidth_time,
    required_copy_bandwidth,
    split_even,
    MB,
)
from repro.simnet.host import CpuModel


@pytest.mark.parametrize(
    "profile, overhead, bandwidth",
    [
        (CpuModel(), "syscall_overhead", "memcpy_bandwidth"),
        (MadeleineCostModel(), "per_segment_overhead", "pipeline_copy_bandwidth"),
        (MPICH_1_2_5, "per_call_overhead", "copy_bandwidth"),
        (OMNIORB_4, "per_call_overhead", "marshal_bandwidth"),
    ],
    ids=["CpuModel", "MadeleineCostModel", "MpiProfile", "OrbProfile"],
)
def test_a_cost_profile_checks_its_overheads_and_bandwidths(profile, overhead, bandwidth):
    """The terms a layer adds to a message's cost are checked once, when
    their profile is built: an overhead is >= 0 seconds, a bandwidth > 0."""
    replace(profile, **{overhead: 0.0})  # a layer may be free
    with pytest.raises(ValueError, match=overhead):
        replace(profile, **{overhead: -1e-6})
    for rate in (0.0, -100 * MB):
        with pytest.raises(ValueError, match=bandwidth):
            replace(profile, **{bandwidth: rate})


def test_latency_bandwidth_time():
    assert latency_bandwidth_time(1000, 1e-3, 1e6) == pytest.approx(2e-3)
    with pytest.raises(ValueError):
        latency_bandwidth_time(10, 0.1, 0)


def test_effective_bandwidth():
    assert effective_bandwidth(1000, 0.001) == pytest.approx(1e6)
    with pytest.raises(ValueError):
        effective_bandwidth(1, 0)


def test_combine_bandwidths_harmonic():
    assert combine_bandwidths(100.0, 100.0) == pytest.approx(50.0)
    assert combine_bandwidths(240.0) == pytest.approx(240.0)
    with pytest.raises(ValueError):
        combine_bandwidths(0.0)


def test_required_copy_bandwidth_inverts_combination():
    wire = 240.0
    copy = required_copy_bandwidth(55.0, wire)
    assert combine_bandwidths(wire, copy) == pytest.approx(55.0)
    with pytest.raises(ValueError):
        required_copy_bandwidth(300.0, 240.0)


def test_split_even():
    assert split_even(10, 3) == (4, 3, 3)
    assert sum(split_even(1_000_001, 7)) == 1_000_001
    assert split_even(0, 2) == (0, 0)
    with pytest.raises(ValueError):
        split_even(5, 0)


def test_format_helpers():
    assert format_bandwidth(240 * MB) == "240.0 MB/s"
    assert format_bandwidth(150_000, unit="KB/s") == "150 KB/s"
    assert "us" in format_latency(8.4e-6)
    assert "ms" in format_latency(8e-3)
    with pytest.raises(ValueError):
        format_bandwidth(1.0, unit="furlongs")
