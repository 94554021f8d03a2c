#!/usr/bin/env python
"""Profile one batch of a perfbench workload and report hot spots.

``perfbench/``'s builders are imported (nothing there is edited): one warm
window, on which the engine's loop entries are counted — timers by
callback, triggered events by kind — then one window under :mod:`cProfile`.
It prints the top functions by own time, the profile folded by layer
(``perfbench/tracer.py``'s own ``fold``, so the ``self_s`` / ``calls`` rows
are the ones a traced perfbench run reports) and the two censuses: the view
a perfbench number is explained with — which functions and layers a batch
spends its window in, which timers it schedules and which events it
triggers, how often.  The counts are deterministic, so two censuses diff exactly: a layer
that re-grows a completion hop shows up as a new row, not as a wall-clock
suspicion.  ``--json`` writes a machine-readable artifact so CI can archive
a nightly profile next to the benchmark numbers and regressions can be
diffed function by function instead of re-measured from scratch.

Usage::

    python tools/profile_hotspots.py bulk_staging --json staging.json
    python tools/profile_hotspots.py grid_deployment --quick --top 40

The tool lives outside pytest on purpose: profiling overhead would poison
a timed window, so perfbench measures clean walls and this script owns the
instrumented runs.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import re
import sys
import time
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))


#: position of each ``--sort`` key in a ``pstats`` row ``(cc, nc, tt, ct, callers)``
_SORT_COLUMN = {"ncalls": 1, "tottime": 2, "cumulative": 3}


def _rows(stats: pstats.Stats, top: int, sort: str) -> list:
    rows = []
    column = _SORT_COLUMN[sort]
    for (filename, lineno, funcname), (cc, nc, tt, ct, _callers) in sorted(
        stats.stats.items(), key=lambda item: item[1][column], reverse=True
    )[:top]:
        try:
            filename = str(Path(filename).resolve().relative_to(REPO))
        except ValueError:
            pass
        rows.append(
            {
                "function": funcname,
                "file": filename,
                "line": lineno,
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    return rows


def _print_stats(stats: pstats.Stats, sort: str, top: int) -> None:
    stats.sort_stats(sort)
    text = io.StringIO()
    stats.stream = text
    stats.print_stats(top)
    print(text.getvalue())


def _event_kind(ev) -> str:
    """A triggered event's census row: class and name, minus what varies
    per instance."""
    name = re.sub(r"\d+", "#", ev.name.split("(")[0])
    return f"{type(ev).__name__}:{name}"


def _callback_name(fn) -> str:
    """A timer's census row: its callback's ``__qualname__``; a delayed
    trigger (``SimEvent.fire``) by the class of the event it fires."""
    owner = getattr(fn, "__self__", None)
    if owner is not None and getattr(fn, "__name__", "") == "fire":
        return f"{type(owner).__name__}.fire"
    return getattr(fn, "__qualname__", None) or type(fn).__name__


def _print_census(census: Counter, what: str, top: int) -> None:
    total = sum(census.values())
    print(f"{total} {what}")
    for name, count in census.most_common(top):
        print(f"{count:10d}  {100.0 * count / total:5.1f}%  {name}")


def _print_layers(layers: dict) -> None:
    total_s = sum(self_s for self_s, _calls in layers.values())
    total_calls = sum(calls for _self_s, calls in layers.values())
    print(f"{total_calls} Python calls, {total_s:.3f} s self time, by layer")
    for layer, (self_s, calls) in layers.items():
        if calls:
            print(f"{calls:10d}  {self_s:8.3f} s  {100.0 * self_s / total_s:5.1f}%  {layer}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="a perfbench workload, e.g. bulk_staging")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--quick", action="store_true", help="perfbench's test scale")
    parser.add_argument("--top", type=int, default=30, help="rows to print")
    parser.add_argument("--sort", choices=sorted(_SORT_COLUMN), default="tottime")
    parser.add_argument("--json", metavar="PATH", help="write a JSON artifact here")
    args = parser.parse_args(argv)

    import tracer
    import workloads
    from repro.simnet.engine import Simulator

    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.QUICK if args.quick else workloads.FULL

    # warm window: first-use paths out of the way, and the censuses — every
    # batch is the same deterministic computation, so the loop entries
    # counted here are the ones the profiled window makes, and the profile
    # is taken on the unpatched kernel
    timers: Counter = Counter()
    triggered: Counter = Counter()
    schedule, push_triggered = Simulator._schedule, Simulator._push_triggered

    def counting_schedule(sim, when, fn, fn_args):
        timers[_callback_name(fn)] += 1
        return schedule(sim, when, fn, fn_args)

    def counting_push(sim, ev):
        triggered[_event_kind(ev)] += 1
        push_triggered(sim, ev)

    batch = workload.build(args.seed, scale)
    Simulator._schedule, Simulator._push_triggered = counting_schedule, counting_push
    try:
        batch.run()
    finally:
        Simulator._schedule, Simulator._push_triggered = schedule, push_triggered
    warm = batch.finish()

    batch = workload.build(args.seed, scale)
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    batch.run()
    profiler.disable()
    wall = time.perf_counter() - start
    outcome = batch.finish()
    failed = warm.failed + outcome.failed

    stats = pstats.Stats(profiler)
    _print_stats(stats, args.sort, args.top)
    print(f"one window of {args.workload}: {outcome.units:g} {workload.unit}, "
          f"{failed} of {outcome.attempted} checks failed")
    layers = tracer.fold(profiler)
    _print_layers(layers)
    _print_census(timers, "timers scheduled, by callback", args.top)
    _print_census(triggered, "events triggered, by kind", args.top)
    if args.json:
        artifact = {
            "perfbench": args.workload,
            "seed": args.seed,
            "scale": "quick" if args.quick else "full",
            "profiled_wall_s": round(wall, 3),
            "units": outcome.units,
            "unit": workload.unit,
            "failed": failed,
            "sort": args.sort,
            "hotspots": _rows(stats, args.top, args.sort),
            "layers": {
                layer: {"self_s": round(self_s, 6), "calls": calls}
                for layer, (self_s, calls) in layers.items()
            },
            "timers_scheduled": sum(timers.values()),
            "timer_census": [
                {"callback": name, "count": count} for name, count in timers.most_common()
            ],
            "events_triggered": sum(triggered.values()),
            "event_census": [
                {"kind": kind, "count": count} for kind, count in triggered.most_common()
            ],
        }
        Path(args.json).write_text(json.dumps(artifact, indent=1) + "\n")
        print(f"wrote {args.json}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
