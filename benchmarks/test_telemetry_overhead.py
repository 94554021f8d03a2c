"""Telemetry overhead: the disabled flight recorder must cost nothing.

The observability acceptance of the telemetry PR, measured on the
engine-scale deployment scenario (``test_engine_scale.run_scenario``):

* **Disabled** (the default state: every ``telemetry`` attribute is
  ``None``) — the instrumented code pays one attribute check per hot-path
  site.  Measured as a paired, interleaved comparison against runs where a
  hub was created and then detached before the measured window (the exact
  same disabled hot path plus the enable/disable bookkeeping): the cost
  ratio is gated at < 2%.  The window is ~60 ms, so the estimator has to
  be noise-robust (``test_engine_scale.paired_ratios``): per-round ratios
  of window CPU time, both sides back to back in every round, the order
  alternating between rounds, and the *median* ratio gated — a ratio of
  per-side minima over three rounds failed every second run on a shared
  2-core box.
* **Enabled** (in-memory recording, no JSONL file) — measured against the
  plain run, reported, and recorded under the ``deployment_telemetry``
  kind in ``BENCH_engine.json`` (with ``BENCH_REFRESH=1``), so the
  recording cost is a tracked number instead of folklore.  Enabled-mode
  cost is not hard-gated: it scales with the scenario's event density and
  is a recorded trade-off, not a regression.

``ENGINE_SCALE`` selects the deployment size (default ``small`` — this
file rides the CI smoke job; the gate is meaningful at every size).
"""

from __future__ import annotations

import os
import statistics
import time

import test_engine_scale as engine_bench

#: disabled-mode acceptance: < 2% overhead.
DISABLED_OVERHEAD_LIMIT = 1.02
#: paired rounds of the disabled-mode gate (and of its one pooled retry).
DISABLED_ROUNDS = 21
#: paired rounds per side of the (recorded, ungated) enabled-mode figure.
ROUNDS = 3


def _size() -> str:
    forced = os.environ.get("ENGINE_SCALE", "").strip()
    return forced if forced else "small"


def _timed_run(size: str, telemetry: str) -> tuple:
    """One deployment run; returns (wall_s, result-ish dict).

    ``telemetry``: "off" = never enabled; "disabled" = enabled then
    detached before the measured window; "on" = recording in memory.
    """
    fw, grid, completions = engine_bench.build_scenario(size)
    hub = None
    if telemetry in ("disabled", "on"):
        hub = fw.enable_telemetry()
    if telemetry == "disabled":
        fw.disable_telemetry()
    all_done = fw.sim.all_of(completions)
    with engine_bench._gc_paused():
        cpu_start = time.process_time()
        start = time.perf_counter()
        delivered = fw.sim.run(until=all_done, max_time=engine_bench.MAX_VIRTUAL)
        fw.sim.run(
            until=max(engine_bench.CHURN_HORIZON, fw.sim.now),
            max_time=engine_bench.MAX_VIRTUAL,
        )
        wall_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
    if telemetry == "on":
        hub.flush()
    expected = len(completions) * engine_bench.TRANSFER_BYTES
    assert sum(delivered) == expected
    stats = fw.sim.stats()
    return wall_s, {
        "cpu_s": round(cpu_s, 6),
        "hosts": len(grid.hosts),
        "streams": len(completions),
        "bytes_delivered": sum(delivered),
        "events": stats.events_processed,
        "telemetry_events": len(hub.events) if hub is not None else 0,
    }


def test_disabled_telemetry_overhead_under_two_percent(benchmark, once):
    """A deployment that enabled and detached the recorder must run within
    2% of one that never touched it — the disabled state is one attribute
    check per instrumented site, nothing more."""
    size = _size()
    info = {}

    def cost(telemetry: str) -> float:
        _wall, run = _timed_run(size, telemetry)
        info.update(run)
        return run["cpu_s"]

    def measure() -> list:
        _timed_run(size, "off")  # warmup: allocator and import costs
        return engine_bench.paired_ratios(
            lambda: cost("disabled"), lambda: cost("off"), DISABLED_ROUNDS
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
        f"disabled telemetry costs {100 * (ratio - 1):.1f}% CPU time on the "
        f"{size!r} deployment (limit {100 * (DISABLED_OVERHEAD_LIMIT - 1):.0f}%)"
    )


def test_enabled_telemetry_overhead_recorded(benchmark, once):
    """Enabled-mode recording cost: measured, reported, and written to
    BENCH_engine.json under ``deployment_telemetry`` (BENCH_REFRESH=1)."""
    size = _size()

    def measure():
        _timed_run(size, "off")  # warmup
        plain, enabled = [], []
        info = {}
        for _ in range(ROUNDS):
            wall, _i = _timed_run(size, "off")
            plain.append(wall)
            wall, info = _timed_run(size, "on")
            enabled.append(wall)
        plain_med = min(plain)
        on_med = min(enabled)
        return {
            **info,
            "wall_s": round(on_med, 4),
            "plain_wall_s": round(plain_med, 4),
            "events_per_sec": round(info["events"] / on_med, 1),
            "telemetry_overhead_ratio": round(on_med / plain_med, 4),
        }

    result = once(benchmark, measure)
    benchmark.extra_info.update(result)
    assert result["telemetry_events"] > 0
    # enabled recording on this scenario stays a modest constant factor;
    # gate only against runaway pathology, record the precise number
    assert result["telemetry_overhead_ratio"] < 2.0
    engine_bench.check_baselines(
        "deployment_telemetry", size, result, benchmark, remeasure=measure
    )
