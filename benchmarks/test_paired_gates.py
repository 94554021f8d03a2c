"""The two same-process speed gates: idle telemetry <= 2 %, fluid >= 10x.

Both are *paired ratios* on perfbench's own builders (``workloads.py``; the
scenario a gate times is the one the benchmark reports): each leg builds a
batch, and its cost is the CPU time of the batch's window.  No baseline file
is read or written; how fast the kernel is in absolute terms is perfbench's
``wall_s``.  The file lives outside ``tests/`` so CI never times it under
``coverage``.

* **Telemetry** — ``grid_deployment`` on 32 hosts: a deployment that
  enabled and then detached the flight recorder must run within 2 % of one
  that never touched it (the disabled state is one attribute check per
  instrumented site), and one that records in memory within 2x.
* **Fluid fast path** — ``bulk_staging`` at full scale with one send per
  stream (900 x 64 MiB on 1000 hosts), the framework forced to ``"packet"``
  on one leg and ``"hybrid"`` on the other: identical bytes and completion
  instant, and the hybrid leg at least 10x cheaper.
"""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager

import workloads
from repro.core import PadicoFramework

#: hybrid must retire the packet leg's work at least this many times cheaper.
FLUID_SPEEDUP_TARGET = 10.0
FLUID_ROUNDS = 3
#: disabled-mode acceptance: < 2% overhead.
DISABLED_OVERHEAD_LIMIT = 1.02
#: paired rounds of the disabled-mode gate (and of its one pooled retry).
DISABLED_ROUNDS = 21
#: recording in memory stays a modest constant factor: gate only against
#: runaway pathology (it scales with the scenario's event density).
ENABLED_OVERHEAD_LIMIT = 2.0
ENABLED_ROUNDS = 5
STAGING_SCALE = dict(workloads.FULL, staging_sends=1)
TELEMETRY_SCALE = dict(workloads.QUICK, stream_bytes=512 * workloads.KIB, churn_horizon=0.35)


def paired_ratios(cost_a, cost_b, rounds: int) -> list:
    """Per-round ``cost_a() / cost_b()`` ratios of two same-process legs.

    The noise-robust shape for a speed gate on a shared box: both legs run
    back to back inside every round (so a round's ratio sees one machine
    state), the order alternates between rounds (so neither leg always
    inherits the other's warm caches), and the caller gates on the
    *median* of the ratios — one preempted leg moves one ratio, not the
    verdict.  The costs should be window CPU seconds
    (``time.process_time``): a neighbour stealing the core inflates wall
    time, not the work done."""
    ratios = []
    for index in range(rounds):
        if index % 2 == 0:
            a = cost_a()
            b = cost_b()
        else:
            b = cost_b()
            a = cost_a()
        ratios.append(a / b)
    return ratios


@contextmanager
def _gc_paused():
    """Collector paused during the measured window (uniform across kernels;
    the allocation-heavy runs otherwise measure GC pauses, not the kernel)."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _window_cpu_s(batch) -> float:
    with _gc_paused():
        start = time.process_time()
        batch.run()
        return time.process_time() - start


def _telemetry_cost(telemetry: str, info: dict) -> float:
    """Window CPU seconds of one 32-host deployment.  ``telemetry``: "off" =
    never enabled; "disabled" = enabled then detached before the window;
    "on" = recording in memory."""
    batch = workloads.WORKLOADS["grid_deployment"].build(1, TELEMETRY_SCALE)
    hub = None
    if telemetry != "off":
        hub = batch.fw.enable_telemetry()
    if telemetry == "disabled":
        batch.fw.disable_telemetry()
    cpu_s = _window_cpu_s(batch)
    if telemetry == "on":
        hub.flush()
        info["telemetry_events"] = len(hub.events)
    outcome = batch.finish()
    assert outcome.failed == 0
    info["events"] = outcome.exact["simnet.engine.events"]
    return cpu_s


def test_disabled_telemetry_overhead_under_two_percent(benchmark, once):
    info = {}

    def measure() -> list:
        _telemetry_cost("off", info)  # warm-up: allocator and import costs
        return paired_ratios(
            lambda: _telemetry_cost("disabled", info),
            lambda: _telemetry_cost("off", info),
            DISABLED_ROUNDS,
        )

    ratios = once(benchmark, measure)
    ratio = statistics.median(ratios)
    if ratio > DISABLED_OVERHEAD_LIMIT:
        # one retry, pooled: another batch of rounds, and the median over
        # both — noise averages out, a genuine overhead does not
        benchmark.extra_info["ratio_first_attempt"] = round(ratio, 4)
        ratios += measure()
        ratio = statistics.median(ratios)
    benchmark.extra_info.update(info, ratio=round(ratio, 4), rounds=len(ratios))
    assert ratio <= DISABLED_OVERHEAD_LIMIT, (
        f"disabled telemetry costs {100 * (ratio - 1):.1f}% CPU time on the 32-host "
        f"deployment (limit {100 * (DISABLED_OVERHEAD_LIMIT - 1):.0f}%)"
    )


def test_enabled_telemetry_overhead_within_2x(benchmark, once):
    info = {}

    def measure() -> list:
        _telemetry_cost("off", info)  # warm-up
        return paired_ratios(
            lambda: _telemetry_cost("on", info),
            lambda: _telemetry_cost("off", info),
            ENABLED_ROUNDS,
        )

    ratio = statistics.median(once(benchmark, measure))
    benchmark.extra_info.update(info, telemetry_overhead_ratio=round(ratio, 4))
    assert info["telemetry_events"] > 0
    assert ratio < ENABLED_OVERHEAD_LIMIT


def test_fluid_fast_path_is_ten_times_cheaper_than_packet(benchmark, once, monkeypatch):
    outcomes = {"packet": [], "hybrid": []}

    def cost(fidelity: str) -> float:
        # the one seam: the builder's framework, with the fidelity forced
        monkeypatch.setattr(
            workloads, "PadicoFramework",
            lambda **kwargs: PadicoFramework(**{**kwargs, "fidelity": fidelity}),
        )
        batch = workloads.WORKLOADS["bulk_staging"].build(1, STAGING_SCALE)
        cpu_s = _window_cpu_s(batch)
        outcomes[fidelity].append(batch.finish())
        return cpu_s

    speedups = once(
        benchmark,
        lambda: paired_ratios(lambda: cost("packet"), lambda: cost("hybrid"), FLUID_ROUNDS),
    )
    packet, hybrid = outcomes["packet"][0], outcomes["hybrid"][0]
    benchmark.extra_info.update(
        speedups=[round(s, 2) for s in speedups],
        packet_events=packet.exact["simnet.engine.events"],
        hybrid_events=hybrid.exact["simnet.engine.events"],
    )
    # every leg of every round is the same deterministic transfer: all bytes
    # delivered, the same bytes on the wire, the same completion instant
    for outcome in outcomes["packet"] + outcomes["hybrid"]:
        assert outcome.failed == 0
        for figure in ("model.virtual_s", "simnet.network.bytes_carried", "simnet.tcp.bytes_sent"):
            assert outcome.exact[figure] == packet.exact[figure], figure
    # the fast path genuinely engaged
    assert packet.exact["simnet.fluid.epochs"] == 0
    assert hybrid.exact["simnet.fluid.epochs"] >= hybrid.attempted
    # identical work, same process, back to back: a direct same-machine
    # ratio, and the median of three pairs is immune to one disturbed leg
    speedup = statistics.median(speedups)
    assert speedup >= FLUID_SPEEDUP_TARGET, (
        f"fluid fast path below {FLUID_SPEEDUP_TARGET}x: packet/hybrid "
        f"CPU-time ratios {speedups} (median {speedup:.2f}x)"
    )
