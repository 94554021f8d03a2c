"""Flight recorder: structured telemetry export, KPI analysis, replay.

The package has four layers:

- :mod:`repro.telemetry.hub` — :class:`TelemetryHub`, the collection point.
  Instrumented subsystems — networks included — read ``sim.telemetry``,
  which is ``None`` when recording is off (hot paths gate on that single
  attribute check) and the hub once
  :meth:`repro.core.framework.PadicoFramework.enable_telemetry` set it;
  nothing else is wired.  Events are flat JSON-serializable dicts; on a partitioned
  kernel they collect in per-shard buffers merged deterministically at the
  window barriers.
- :mod:`repro.telemetry.series` — :class:`MetricSeries`, compact windowed
  aggregation (sum/mean/p50/p99) with CSV/JSON dump.
- :mod:`repro.telemetry.kpis` — KPI computation over an event stream:
  per-link utilization curves, per-flow latency/goodput distributions,
  availability under churn, migration timelines.
- :mod:`repro.telemetry.replay` — deterministic reconstruction of the KPI
  view from a recorded JSONL trace, byte-identical to the live run's.
"""

from repro.telemetry.hub import TelemetryHub
from repro.telemetry.kpis import canonical_kpi_json, compute_kpis, invariant_view
from repro.telemetry.replay import read_trace, replay_kpis, verify_replay
from repro.telemetry.series import MetricSeries

__all__ = [
    "TelemetryHub",
    "MetricSeries",
    "compute_kpis",
    "invariant_view",
    "canonical_kpi_json",
    "read_trace",
    "replay_kpis",
    "verify_replay",
]
