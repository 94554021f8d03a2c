"""One run of one workload: build the same batch again and again for
``seconds`` of measured window, report medians, check what must be exact.

Every batch of a run is the same deterministic computation, so

* ``wall_s`` / ``setup_s`` are medians over the run's batches (several
  set-ups and windows per run, each a sample of the same work), each batch
  corrected for the box's speed at that moment by the reference loop
  (:mod:`reference`) timed right before and right after it;
* every exact figure (virtual times, counters, ``calls``) must be identical
  in every batch — a mismatch is a failed operation.

The collector is paused over each window and run between batches, so a
window never pays for the garbage of the batch before it.
"""

from __future__ import annotations

import cProfile
import gc
import operator
import resource
import statistics
import time
from typing import Dict, List

import tracer
from reference import NOMINAL_S, reference_loop
from workloads import Outcome, Workload


def _reference() -> float:
    """One timing of the reference loop, between two batches."""
    gc.collect()
    gc.disable()
    try:
        return reference_loop()
    finally:
        gc.enable()


def _batch(workload: Workload, seed: int, scale: dict, spans: tracer.Spans, profile=None):
    """Build, run and check one batch; ``(setup_s, wall_s, Outcome)``."""
    gc.collect()
    whole = spans.open("batch", traced=profile is not None)
    phase = spans.open("setup", whole)
    batch = workload.build(seed, scale)
    setup_s = spans.close(phase)
    gc.collect()
    gc.disable()
    try:
        phase = spans.open("run", whole)
        if profile is not None:
            profile.enable()
        batch.run()
        if profile is not None:
            profile.disable()
        wall_s = spans.close(phase)
    finally:
        gc.enable()
    phase = spans.open("finish", whole)
    outcome = batch.finish()
    spans.close(phase)
    spans.close(whole)
    return setup_s, wall_s, outcome


def _mismatches(reference: dict, other: dict) -> int:
    return sum(1 for name, value in reference.items() if other.get(name) != value)


def measure(workload: Workload, seed: int, seconds: float, scale: dict, trace: bool) -> dict:
    """Run batches until ``seconds`` of window have been measured (two
    batches at least).  With ``trace`` every other batch runs under
    cProfile; the untraced ones give the counters and the overhead base.
    Without, the reference loop runs between the batches."""
    spans = tracer.Spans()
    setups: List[float] = []
    walls: List[float] = []
    traced_walls: List[float] = []
    outcomes: List[Outcome] = []
    folds: List[dict] = []
    references: List[float] = []
    peak_rss_mb = None
    measured = 0.0
    while measured < seconds or len(walls) < 2:
        setup_s, wall_s, outcome = _batch(workload, seed, scale, spans)
        if peak_rss_mb is None:
            # after the first batch: the reference loop's own heap (14 MB)
            # and the garbage of later batches stay out of it
            usage = resource.getrusage(resource.RUSAGE_SELF)
            children = resource.getrusage(resource.RUSAGE_CHILDREN)
            peak_rss_mb = max(usage.ru_maxrss, children.ru_maxrss) / 1024.0
        if not trace:
            references.append(_reference())
        setups.append(setup_s)
        walls.append(wall_s)
        outcomes.append(outcome)
        measured += wall_s
        if trace:
            profile = cProfile.Profile()
            _setup, wall_s, outcome = _batch(workload, seed, scale, spans, profile)
            traced_walls.append(wall_s)
            outcomes.append(outcome)
            folds.append(tracer.fold(profile))
            measured += wall_s

    first = outcomes[0]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    # exactness: every batch against the first, every traced fold's call
    # counts against the first fold's
    for other in outcomes[1:]:
        attempted += len(first.exact)
        failed += _mismatches(first.exact, other.exact)
    calls = [{layer: n for layer, (_s, n) in f.items()} for f in folds]
    for other in calls[1:]:
        attempted += len(calls[0])
        failed += _mismatches(calls[0], other)

    result = {
        "workload": workload.name,
        "unit": workload.unit,
        "seed": seed,
        "batches": len(walls),
        "traced_batches": len(traced_walls),
        "units_per_batch": first.units,
        "attempted": attempted,
        "failed": failed,
        "raw": {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups)},
        "exact": dict(first.exact),
        "samples": {"wall_s": walls, "setup_s": setups, "traced_wall_s": traced_walls,
                    "reference_s": references},
        "spans": spans.rows,
    }
    if not trace:
        # each batch against the mean of the loops on either side of it; the
        # first batch (cold, no loop before it) stays out
        speed = [
            NOMINAL_S / ((before + after) / 2.0)
            for before, after in zip(references, references[1:])
        ]
        result["end_to_end"] = {
            "wall_s": statistics.median(map(operator.mul, walls[1:], speed)),
            "setup_s": statistics.median(map(operator.mul, setups[1:], speed)),
            "peak_rss_mb": peak_rss_mb,
        }
        result["raw"]["reference_s"] = statistics.median(references)
    untraced = outcomes[::2] if trace else outcomes
    result["host"] = {
        name: statistics.median(o.host[name] for o in untraced) for name in first.host
    }
    if trace:
        result["profile"] = {
            layer: {
                "self_s": statistics.median(f[layer][0] for f in folds),
                "calls": folds[0][layer][1],
            }
            for layer in tracer.LAYERS
        }
        result["trace_overhead_pct"] = 100.0 * (
            statistics.median(traced_walls) / result["raw"]["wall_s"] - 1.0
        )
        result["cpu_s"] = time.process_time()
    return result


def per_layer_metrics(result: dict, names) -> Dict[str, float]:
    """The per-layer metrics ``names`` (BENCHMARK.json's) of a traced run.  A
    layer the workload does not exercise, or a ladder rung outside
    ``stack_*``, reads 0; a figure the run produced under a name that is not
    in ``names`` is an error."""
    produced = {**result["exact"], **result["host"]}
    for layer, row in result["profile"].items():
        produced[f"{layer}.self_s"] = row["self_s"]
        produced[f"{layer}.calls"] = row["calls"]
    produced["harness.trace_overhead_pct"] = result["trace_overhead_pct"]
    produced["harness.cpu_s"] = result["cpu_s"]
    unknown = set(produced) - set(names)
    if unknown:
        raise KeyError(f"per-layer figures missing from BENCHMARK.json: {sorted(unknown)}")
    return {name: produced.get(name, 0.0) for name in names}
