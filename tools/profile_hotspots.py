#!/usr/bin/env python
"""Profile one batch of a perfbench workload and report hot spots.

``perfbench/``'s builders are imported (nothing there is edited): one warm
window, on which the engine's loop entries are counted — timers by
callback, triggered events by kind — then one batch under :mod:`cProfile`,
its set-up (``build()``: deployment, boot, connects — what ``setup_s``
times) and its window (``wall_s``) each in a profile of its own, under the
collector regime perfbench times them in: set-up with the cyclic garbage
collector on, every window collected before and run with it paused (else
a collection pause is charged to whichever function allocates when it
strikes).  For both
phases it prints the top functions by own time and the profile folded by
layer (``perfbench/tracer.py``'s own ``fold``, so the window's ``self_s`` /
``calls`` rows are the ones a traced perfbench run reports), then the two
censuses: the view a perfbench number is explained with — which functions
and layers a batch spends its set-up and its window in, which timers it
schedules and which events it triggers, how often.  The counts are
deterministic, so two censuses diff exactly: a layer that re-grows a
completion hop shows up as a new row, not as a wall-clock suspicion.
``--json`` writes a machine-readable artifact (the window's section at the
top level, the build's under ``setup``) so CI can archive a nightly profile
next to the benchmark numbers and regressions can be diffed function by
function instead of re-measured from scratch.

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
import gc
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


def census(window):
    """Run ``window()`` counting the engine's loop entries: ``(timers,
    triggered)``, the timers it schedules by callback and the events it
    triggers by kind.  A timer is counted at the scheduling call that
    files it (``call_later``, ``call_at``, the single loop's
    ``call_at_partition``), so the total is ``SimStats.timers_scheduled``;
    an event at the call that files it in the ready FIFO
    (``_push_triggered``, ``completed``)."""
    from repro.simnet.engine import Simulator

    timers: Counter = Counter()
    triggered: Counter = Counter()

    original = {
        name: getattr(Simulator, name)
        for name in ("call_later", "call_at", "call_at_partition", "_push_triggered", "completed")
    }

    def counting(name, fn_at):
        def scheduled(sim, *args):
            timers[_callback_name(args[fn_at])] += 1
            return original[name](sim, *args)

        return scheduled

    def counting_push(sim, ev):
        triggered[_event_kind(ev)] += 1
        original["_push_triggered"](sim, ev)

    def counting_completed(sim, *args, **kwargs):
        ev = original["completed"](sim, *args, **kwargs)
        triggered[_event_kind(ev)] += 1
        return ev

    patches = {
        "call_later": counting("call_later", 1),
        "call_at": counting("call_at", 1),
        "call_at_partition": counting("call_at_partition", 2),
        "_push_triggered": counting_push,
        "completed": counting_completed,
    }
    for name, patch in patches.items():
        setattr(Simulator, name, patch)
    try:
        window()
    finally:
        for name, fn in original.items():
            setattr(Simulator, name, fn)
    return timers, triggered


def _profiled(phase, fold):
    """Run ``phase()`` under a profiler of its own: its result and the
    phase's section of the report (printed by :func:`_print_phase`)."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        result = phase()
    finally:
        profiler.disable()
    wall = time.perf_counter() - start
    return result, {"wall": wall, "stats": pstats.Stats(profiler), "layers": fold(profiler)}


def _paused(window):
    """``window()`` as perfbench's harness runs a batch's window: the
    collector run first, then paused until the window is over."""
    gc.collect()
    gc.disable()
    try:
        return window()
    finally:
        gc.enable()


def _print_phase(title: str, section: dict, sort: str, top: int) -> None:
    print(f"== {title}: {section['wall']:.3f} s under the profiler ==")
    _print_stats(section["stats"], sort, top)
    _print_layers(section["layers"])


def _phase_artifact(section: dict, sort: str, top: int) -> dict:
    return {
        "profiled_wall_s": round(section["wall"], 3),
        "calls": section["stats"].total_calls,
        "hotspots": _rows(section["stats"], top, sort),
        "layers": {
            layer: {"self_s": round(self_s, 6), "calls": calls}
            for layer, (self_s, calls) in section["layers"].items()
        },
    }


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

    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.QUICK if args.quick else workloads.FULL

    # warm window: first-use paths out of the way, and the censuses — every
    # batch is the same deterministic computation, so the loop entries
    # counted here are the ones the profiled window makes, and the profile
    # is taken on the unpatched kernel
    batch = workload.build(args.seed, scale)
    timers, triggered = census(lambda: _paused(batch.run))
    warm = batch.finish()

    batch, setup = _profiled(lambda: workload.build(args.seed, scale), tracer.fold)
    _, window = _paused(lambda: _profiled(batch.run, tracer.fold))
    outcome = batch.finish()
    failed = warm.failed + outcome.failed

    _print_phase(f"set-up of {args.workload} (one build)", setup, args.sort, args.top)
    _print_phase(f"one window of {args.workload}", window, args.sort, args.top)
    print(f"{outcome.units:g} {workload.unit}, {failed} of {outcome.attempted} checks failed")
    _print_census(timers, "timers scheduled, by callback", args.top)
    _print_census(triggered, "events triggered, by kind", args.top)
    if args.json:
        artifact = {
            "perfbench": args.workload,
            "seed": args.seed,
            "scale": "quick" if args.quick else "full",
            "units": outcome.units,
            "unit": workload.unit,
            "failed": failed,
            "sort": args.sort,
            # the window's section stays at the top level, where the
            # artifacts archived so far have it
            **_phase_artifact(window, args.sort, args.top),
            "setup": _phase_artifact(setup, args.sort, args.top),
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
