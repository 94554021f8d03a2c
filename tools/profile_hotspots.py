#!/usr/bin/env python
"""Profile the engine-scale benchmark scenarios and report hot spots.

Runs one deployment scenario (packet fidelity via the classic VLink
workload, or the fluid bulk-stream workload at either fidelity) under
:mod:`cProfile` and prints the top functions by cumulative time.  The
``--json`` flag writes a machine-readable artifact so CI can archive a
nightly profile next to the benchmark numbers and regressions can be
diffed function-by-function instead of re-measured from scratch.

Usage::

    python tools/profile_hotspots.py --size medium --fidelity hybrid
    python tools/profile_hotspots.py --size large --fidelity packet \
        --workload fluid --top 40 --json profile.json
    python tools/profile_hotspots.py --events --size medium --json census.json
    python tools/profile_hotspots.py --perfbench bulk_staging --json staging.json

``--perfbench <workload>`` profiles one batch of a ``perfbench/`` workload
instead (its builders are imported, nothing there is edited): one warm
window, on which the timers are counted by callback, then one window under
``cProfile``; it prints the top functions by own time and the timer census.
That is the view a perfbench number is explained with — which functions a
batch spends its window in, and which timers it schedules how often.

``--events`` replaces the profile by the *engine-event census* of the
deployment scenario: how many loop entries each kind of timer callback and
each kind of triggered event accounts for.  Event counts are deterministic,
so two censuses diff exactly — a layer that re-grows a completion hop shows
up as a new row, not as a wall-clock suspicion.

The tool lives outside pytest on purpose: profiling overhead would
poison the recorded baselines, so the benchmark suite measures clean
walls and this script owns the instrumented runs.
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
sys.path.insert(0, str(REPO / "benchmarks"))


def _run(size: str, workload: str, fidelity: str) -> dict:
    import test_engine_scale as bench

    if workload == "deployment":
        import os

        os.environ["ENGINE_FIDELITY"] = fidelity
        return bench.run_scenario(size)
    result, _finish_times = bench.run_fluid_scenario(size, fidelity)
    return result


#: position of each ``--sort`` key in a ``pstats`` row ``(cc, nc, tt, ct, callers)``
_SORT_COLUMN = {"ncalls": 1, "tottime": 2, "cumulative": 3}


def _rows(stats: pstats.Stats, top: int, sort: str = "cumulative") -> list:
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


def _write_json(path: str, artifact: dict) -> None:
    Path(path).write_text(json.dumps(artifact, indent=1) + "\n")
    print(f"wrote {path}")


def _print_stats(stats: pstats.Stats, sort: str, top: int) -> None:
    stats.sort_stats(sort)
    text = io.StringIO()
    stats.stream = text
    stats.print_stats(top)
    print(text.getvalue())


def _kind(ev) -> str:
    """An event's census row: class and name, minus what varies per instance."""
    name = re.sub(r"\d+", "#", ev.name.split("(")[0])
    return f"{type(ev).__name__}:{name}"


def _events(args) -> int:
    """Engine-event census of the deployment scenario on a counting kernel."""
    import os

    import test_engine_scale as bench
    from repro.core import PadicoFramework
    from repro.simnet.engine import SimEvent, Simulator

    class CensusSimulator(Simulator):
        """Counts every loop entry by what it is: a timer by its callback
        (a delayed trigger by the event it fires), a triggered event by
        class and name."""

        def __init__(self, **kwargs) -> None:
            super().__init__(**kwargs)
            self.census: Counter = Counter()

        def _schedule(self, when, fn, args):
            return super()._schedule(when, self._counted, (fn, args))

        def _counted(self, fn, args) -> None:
            owner = getattr(fn, "__self__", None)
            if isinstance(owner, SimEvent) and fn.__name__ == "fire":
                self.census["trigger " + _kind(owner)] += 1
            else:
                self.census["timer   " + fn.__qualname__] += 1
            fn(*args)

        def _push_triggered(self, ev) -> None:
            self.census["event   " + _kind(ev)] += 1
            super()._push_triggered(ev)

    class CensusFramework(PadicoFramework):
        simulator_class = CensusSimulator

    os.environ["ENGINE_FIDELITY"] = args.fidelity
    fw, _grid, completions = bench.build_scenario(args.size, framework=CensusFramework)
    before = Counter(fw.sim.census)
    events_before = fw.sim.stats().events_processed
    delivered = fw.sim.run(until=fw.sim.all_of(completions), max_time=bench.MAX_VIRTUAL)
    fw.sim.run(until=max(bench.CHURN_HORIZON, fw.sim.now), max_time=bench.MAX_VIRTUAL)
    census = fw.sim.census - before
    events = fw.sim.stats().events_processed - events_before

    rows = census.most_common(args.top)
    print(f"{events} engine events, {sum(delivered)} bytes delivered ({args.size}, {args.fidelity})")
    for kind, count in rows:
        print(f"{count:10d}  {100.0 * count / events:5.1f}%  {kind}")
    if args.json:
        artifact = {
            "size": args.size,
            "workload": "deployment",
            "fidelity": args.fidelity,
            "events": events,
            "bytes_delivered": sum(delivered),
            "census": [{"kind": kind, "count": count} for kind, count in census.most_common()],
        }
        _write_json(args.json, artifact)
    return 0


def _callback_name(fn) -> str:
    """A timer's census row: its callback's ``__qualname__``; a delayed
    trigger (``SimEvent.fire``) by the class of the event it fires."""
    owner = getattr(fn, "__self__", None)
    if owner is not None and getattr(fn, "__name__", "") == "fire":
        return f"{type(owner).__name__}.fire"
    return getattr(fn, "__qualname__", None) or type(fn).__name__


def _perfbench(args) -> int:
    """Profile and timer census of one batch of a perfbench workload."""
    sys.path.insert(0, str(REPO / "perfbench"))
    import workloads
    from repro.simnet.engine import Simulator

    workload = workloads.WORKLOADS[args.perfbench]
    scale = workloads.QUICK if args.quick else workloads.FULL

    # warm window: first-use paths out of the way, and the census — every
    # batch is the same deterministic computation, so the timers counted
    # here are the ones the profiled window schedules, and the profile is
    # taken on the unpatched kernel
    census: Counter = Counter()
    schedule = Simulator._schedule

    def counting(sim, when, fn, fn_args):
        census[_callback_name(fn)] += 1
        return schedule(sim, when, fn, fn_args)

    batch = workload.build(args.seed, scale)
    Simulator._schedule = counting
    try:
        batch.run()
    finally:
        Simulator._schedule = schedule
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
    timers = sum(census.values())
    print(f"{timers} timers scheduled in one window of {args.perfbench} "
          f"({outcome.units:g} {workload.unit}, {failed} of {outcome.attempted} checks failed)")
    for name, count in census.most_common(args.top):
        print(f"{count:10d}  {100.0 * count / timers:5.1f}%  {name}")
    if args.json:
        artifact = {
            "perfbench": args.perfbench,
            "seed": args.seed,
            "scale": "quick" if args.quick else "full",
            "profiled_wall_s": round(wall, 3),
            "units": outcome.units,
            "unit": workload.unit,
            "failed": failed,
            "sort": args.sort,
            "hotspots": _rows(stats, args.top, args.sort),
            "timers_scheduled": timers,
            "timer_census": [
                {"callback": name, "count": count} for name, count in census.most_common()
            ],
        }
        _write_json(args.json, artifact)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--size", default="medium", choices=["small", "medium", "large", "huge"]
    )
    parser.add_argument(
        "--workload",
        default="fluid",
        choices=["deployment", "fluid"],
        help="deployment = chunked VLink streams + churn; fluid = bulk TCP streams",
    )
    parser.add_argument("--fidelity", default="hybrid", choices=["packet", "hybrid"])
    parser.add_argument("--top", type=int, default=30, help="functions to print")
    parser.add_argument(
        "--sort",
        choices=sorted(_SORT_COLUMN),
        help="default: cumulative (tottime with --perfbench)",
    )
    parser.add_argument("--json", metavar="PATH", help="write a JSON artifact here")
    parser.add_argument(
        "--events",
        action="store_true",
        help="print the engine-event census of the deployment workload "
        "instead of a profile (timers by callback, triggered events by kind)",
    )
    parser.add_argument(
        "--perfbench",
        metavar="WORKLOAD",
        help="profile one batch of this perfbench workload (one warm window "
        "with a timer census by callback, one profiled window) instead of an "
        "engine-scale scenario; --size, --workload and --fidelity do not apply",
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed for --perfbench")
    parser.add_argument(
        "--quick", action="store_true", help="--perfbench at perfbench's test scale"
    )
    args = parser.parse_args(argv)

    if args.sort is None:
        args.sort = "tottime" if args.perfbench else "cumulative"
    if args.perfbench:
        return _perfbench(args)
    if args.events:
        return _events(args)

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    result = _run(args.size, args.workload, args.fidelity)
    profiler.disable()
    wall = time.perf_counter() - start

    stats = pstats.Stats(profiler)
    _print_stats(stats, args.sort, args.top)

    if args.json:
        artifact = {
            "size": args.size,
            "workload": args.workload,
            "fidelity": args.fidelity,
            "profiled_wall_s": round(wall, 3),
            "sort": args.sort,
            "result": result,
            "hotspots": _rows(stats, args.top, args.sort),
        }
        _write_json(args.json, artifact)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
