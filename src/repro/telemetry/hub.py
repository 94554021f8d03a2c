"""TelemetryHub: the flight recorder's collection point.

Every instrumented subsystem (networks, TCP stacks, the fluid controller,
the topology monitor, fault injectors, VLink managers, the partitioned
kernel) reads one hook, ``sim.telemetry``, which is ``None`` by default;
hot paths pay one attribute check when recording is off.  When a hub is set
there, they call :meth:`TelemetryHub.emit` with a kind string and flat
JSON-compatible fields.  Nothing is wired per object, so a component built
by hand records like any other, and the hub feeds nothing back: the passive
probes that feed the topology model have their own channel
(``Network.probe``), so recording on or off runs the same model.

Event shape
-----------

Each event is a flat dict::

    {"t": <virtual time, float>, "p": <partition>, "s": <per-partition seq>,
     "k": <kind>, ...kind-specific fields...}

``t`` is the *model* time of the fact (not necessarily the emission time:
the fluid fast path emits a committed epoch's per-round events when the
epoch resolves, stamped with the rounds' planned times), so the stream is
not globally t-sorted; analysis code canonicalizes order
(:func:`repro.telemetry.kpis.canonical_events`).

Determinism
-----------

On a single event loop, events append straight to :attr:`events` (and the
JSONL file, if one is attached).  On a partitioned kernel each shard
appends to its own buffer and the facade drains the buffers at every
window barrier, sorted by ``(t, p, s)``: a deterministic function of
per-shard streams that are themselves trace-exact, so the merged stream
does not depend on the order the shards ran in.

JSONL lines are written with sorted keys and no whitespace; floats
round-trip exactly through JSON, which is what makes replayed KPI output
byte-identical to the live run's (see :mod:`repro.telemetry.replay`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

__all__ = ["TelemetryHub", "event_line"]

#: virtual seconds between ``engine.window`` samples (per-shard event/timer
#: counter deltas); :meth:`TelemetryHub.flush` always takes a final one.
ENGINE_WINDOW = 0.25


def event_line(ev: Dict[str, Any]) -> str:
    """The canonical JSONL encoding of one event (no trailing newline)."""
    return json.dumps(ev, sort_keys=True, separators=(",", ":"))


class TelemetryHub:
    """Collects typed telemetry events from an instrumented simulation.

    Parameters
    ----------
    sim:
        The simulator (single-loop or partitioned facade) whose clock and
        partition context stamp the events.
    jsonl_path:
        Optional path; when given, every event is also streamed to this
        file as one JSON line (written in commit order).
    """

    def __init__(self, sim, *, jsonl_path: Optional[str] = None) -> None:
        self.sim = sim
        self.events: List[Dict[str, Any]] = []
        nparts = sim.partition_count
        self._nparts = nparts
        self._seq = [0] * nparts
        self._buffers: List[List[Dict[str, Any]]] = [[] for _ in range(nparts)]
        self._next_engine = ENGINE_WINDOW
        self._engine_prev: List[Optional[Dict[str, int]]] = [None] * nparts
        self._file = open(jsonl_path, "w", encoding="utf-8") if jsonl_path else None
        self.closed = False

    # -- collection -----------------------------------------------------------
    def emit(self, kind: str, t: Optional[float] = None, **fields: Any) -> None:
        """Record one event.  ``t`` defaults to the simulator clock."""
        sim = self.sim
        p: int = sim.current_partition
        s = self._seq[p]
        self._seq[p] = s + 1
        ev: Dict[str, Any] = {
            "t": float(sim.now if t is None else t),
            "p": p,
            "s": s,
            "k": kind,
        }
        ev.update(fields)
        if self._nparts == 1:
            self._commit(ev)
            if ev["t"] >= self._next_engine:
                self._sample_engine(ev["t"])
        else:
            # shard-local append; merged (deterministically) at the barrier
            self._buffers[p].append(ev)

    def _commit(self, ev: Dict[str, Any]) -> None:
        self.events.append(ev)
        if self._file is not None:
            self._file.write(event_line(ev) + "\n")

    def on_window_barrier(self, window_end: float) -> None:
        """Partitioned-kernel hook: drain shard buffers at a window barrier."""
        self._drain_buffers()
        if window_end >= self._next_engine:
            self._sample_engine(window_end)

    def _drain_buffers(self) -> None:
        pending: List[Dict[str, Any]] = []
        for buf in self._buffers:
            if buf:
                pending.extend(buf)
                del buf[:]
        if pending:
            pending.sort(key=lambda ev: (ev["t"], ev["p"], ev["s"]))
            for ev in pending:
                self._commit(ev)

    # -- engine counters ------------------------------------------------------
    def _sample_engine(self, now: float) -> None:
        """Emit per-shard ``engine.window`` counter deltas up to ``now``."""
        # advance to the next boundary strictly beyond `now`
        nxt = self._next_engine
        while nxt <= now:
            nxt += ENGINE_WINDOW
        self._next_engine = nxt
        partition_stats = getattr(self.sim, "partition_stats", None)
        shards = partition_stats() if partition_stats is not None else [self.sim.stats()]
        for i, st in enumerate(shards):
            cur = st.as_dict()
            prev = self._engine_prev[i]
            self._engine_prev[i] = cur
            if prev == cur:
                # nothing happened on this shard since the last sample;
                # repeated flushes stay idempotent
                continue
            # events/timers/cancellations are windowed deltas; peak_pending
            # and wheel_rebuilds are cumulative (a peak has no useful delta)
            base = prev or {}
            self._commit(
                {
                    "t": float(now),
                    "p": self.sim.current_partition,
                    "s": self._bump_seq(),
                    "k": "engine.window",
                    "shard": i,
                    "events": cur["events_processed"] - base.get("events_processed", 0),
                    "timers": cur["timers_scheduled"] - base.get("timers_scheduled", 0),
                    "cancels": cur["cancellations"] - base.get("cancellations", 0),
                    "peak_pending": cur["peak_pending"],
                    "wheel_rebuilds": cur["wheel_rebuilds"],
                }
            )

    def _bump_seq(self) -> int:
        p = self.sim.current_partition
        s = self._seq[p]
        self._seq[p] = s + 1
        return s

    # -- lifecycle ------------------------------------------------------------
    def flush(self) -> None:
        """Drain shard buffers, take a final engine sample, flush the file."""
        self._drain_buffers()
        self._sample_engine(float(self.sim.now))
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        """Flush and close the JSONL file (idempotent)."""
        if self.closed:
            return
        self.flush()
        self.closed = True
        if self._file is not None:
            self._file.close()
            self._file = None

    def __len__(self) -> int:
        return len(self.events) + sum(len(b) for b in self._buffers)
