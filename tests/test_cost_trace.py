"""Unit tests for cost accounting and the transfer-time helpers."""

import pytest

from repro.simnet.cost import (
    Cost,
    combine_bandwidths,
    effective_bandwidth,
    format_bandwidth,
    format_latency,
    latency_bandwidth_time,
    required_copy_bandwidth,
    split_even,
    MB,
)


def test_cost_accumulates():
    c = Cost()
    c.charge(1e-6).charge(2e-6).charge(3e-6)
    assert c.seconds == pytest.approx(6e-6)


def test_cost_charge_us():
    c = Cost().charge_us(2.5)
    assert c.microseconds == pytest.approx(2.5)


def test_cost_copy_charging():
    c = Cost().charge_copy(1_000_000, 100 * MB)
    assert c.seconds == pytest.approx(0.01)


def test_cost_rejects_invalid():
    with pytest.raises(ValueError):
        Cost().charge(-1.0)
    with pytest.raises(ValueError):
        Cost().charge_copy(10, 0)
    with pytest.raises(ValueError):
        Cost().charge_copy(-1, 100)


def test_cost_merge_and_copy():
    a = Cost().charge(1e-6)
    b = Cost().charge(2e-6).charge(1e-6)
    clone = a.copy()
    a.merge(b)
    assert a.seconds == pytest.approx(4e-6)
    assert clone.seconds == pytest.approx(1e-6)


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
