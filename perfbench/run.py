"""perfbench: the repository's one benchmark.

One workload, one process (what the benchmark driver calls)::

    python3 perfbench/run.py --workload grid_deployment --seed 1 --seconds 10 --trace 0

prints every metric by name with its unit, checks the outputs, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` (which also writes ``perfbench/out/trace-<workload>.json``).

Everything (what a person runs)::

    python3 perfbench/run.py --seed 1

runs each workload in fresh child processes — ``--repeats`` untraced runs and
one traced run — reports medians with quartiles, checks that the exact
figures agree across the repeats, writes ``perfbench/out/result-seed<n>.json``
and appends one line to ``perfbench/trajectory.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DETAIL_PREFIX = "perfbench-detail: "
#: exact figures that `grid_partitioned` must share with `grid_deployment`:
#: the bytes every layer moved.  `stats()` and the completion instant are
#: not among them: a partitioned kernel applies boundary-link churn at the
#: next window edge, as a barrier hook that is not an event (see
#: FaultInjector.degrade_link_at), so the relayed streams see each
#: degradation a little later and the event, TCP round and probe-push
#: counts legitimately differ from the single loop's by a few hundred.
PARTITION_INVARIANT = (
    "simnet.network.bytes_carried",
    "simnet.tcp.bytes_sent",
    "arbitration.sysio.bytes_sent",
    "abstraction.routing.relayed",
    "abstraction.routing.relay_bytes_forwarded",
)


def _load_program():
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"perfbench: no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import harness
    import workloads

    return harness, workloads


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(spec: dict, section: str) -> dict:
    """``{metric: unit}`` of one section of BENCHMARK.json, which is the one
    catalogue of metric names and units."""
    return {m["name"]: m["unit"] for m in spec[section]}


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # one string-hash salt for every run: str-keyed dicts and sets then
        # have the same layout in every process, which is one less source
        # of run-to-run timing spread (the exact figures do not depend on it)
        environ = {**os.environ, "PYTHONHASHSEED": "0"}
        os.execve(sys.executable, [sys.executable, *sys.argv], environ)
    harness, workloads = _load_program()
    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.QUICK if args.quick else workloads.FULL
    result = harness.measure(workload, args.seed, args.seconds, scale, bool(args.trace))

    spec = _spec()
    per_layer = _units(spec, "per_layer")
    if args.trace:
        units = per_layer
        metrics = result["per_layer"] = harness.per_layer_metrics(result, units)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{workload.name}.json"
        trace_path.write_text(json.dumps(
            {k: result[k] for k in ("workload", "seed", "batches", "spans", "profile", "samples")},
            indent=1,
        ))
    else:
        units = _units(spec, "end_to_end")
        metrics = result["end_to_end"]
    print(f"# {workload.name} seed={args.seed}: {result['batches']} batches of "
          f"{result['units_per_batch']:g} {workload.unit}s"
          + (f" + {result['traced_batches']} traced" if args.trace else ""))
    for name, value in {**result["exact"], **result["host"], **metrics}.items():
        print(f"{name:48s} {value!r:>24} {units.get(name) or per_layer[name]}")
    for name, value in result["raw"].items():
        print(f"{'raw.' + name:48s} {value!r:>24} s (uncorrected: drifts with the box)")
    print(f"{'failed_ops':48s} {result['failed']:>24} of {result['attempted']}")
    result.pop("spans")
    print(DETAIL_PREFIX + json.dumps(result))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if result["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# every workload, in child processes
# ---------------------------------------------------------------------------


def fingerprint(args) -> dict:
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpu": cpu or platform.processor(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit or "unknown",
        "seed": args.seed,
        "run_seconds": args.seconds,
        "repeats": args.repeats,
        "quick": args.quick,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _child(args, workload: str, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    detail = [ln for ln in done.stdout.splitlines() if ln.startswith(DETAIL_PREFIX)]
    if not detail:
        sys.exit(f"perfbench: {' '.join(command)} exited {done.returncode}\n{done.stderr}")
    return json.loads(detail[-1][len(DETAIL_PREFIX):])


def summarize(values) -> dict:
    q1, _median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


def run_all(args) -> int:
    spec = _spec()
    per_layer = _units(spec, "per_layer")
    names = [w["name"] for w in spec["workloads"]]
    report = {"fingerprint": fingerprint(args), "workloads": {}}
    failed_total = 0
    for name in names:
        runs = [_child(args, name, trace=0) for _ in range(args.repeats)]
        traced = _child(args, name, trace=1)
        attempted = sum(r["attempted"] for r in runs + [traced])
        failed = sum(r["failed"] for r in runs + [traced])
        # the exact figures must agree across the repeats (and the traced run)
        for other in runs[1:] + [traced]:
            attempted += len(runs[0]["exact"])
            failed += sum(1 for k, v in runs[0]["exact"].items() if other["exact"].get(k) != v)
        entry = {
            "unit": runs[0]["unit"],
            "units_per_batch": runs[0]["units_per_batch"],
            "batches": [r["batches"] for r in runs],
            "raw": {k: statistics.median(r["raw"][k] for r in runs) for k in runs[0]["raw"]},
            "attempted": attempted,
            "failed": failed,
            "end_to_end": {
                metric: {"unit": unit, **summarize([r["end_to_end"][metric] for r in runs])}
                for metric, unit in _units(spec, "end_to_end").items()
            },
            "per_layer": traced["per_layer"],
        }
        report["workloads"][name] = entry
    single, split = (report["workloads"][n] for n in ("grid_deployment", "grid_partitioned"))
    split["attempted"] += len(PARTITION_INVARIANT)
    split["failed"] += sum(
        1 for k in PARTITION_INVARIANT if split["per_layer"][k] != single["per_layer"][k]
    )

    for name, entry in report["workloads"].items():
        entry["failed_ops_pct"] = 100.0 * entry["failed"] / entry["attempted"]
        failed_total += entry["failed"]
        print(f"\n## {name}  ({entry['units_per_batch']:g} {entry['unit']}s per batch, "
              f"batches per run {entry['batches']}; uncorrected "
              + ", ".join(f"{k} {v:.4f}" for k, v in entry["raw"].items()) + ")")
        for metric, row in entry["end_to_end"].items():
            print(f"{metric:48s} median {row['median']:.6g} {row['unit']}  "
                  f"[q1 {row['q1']:.6g}, q3 {row['q3']:.6g}, n={row['n']}]")
        print(f"{'failed_ops_pct':48s} {entry['failed_ops_pct']:g} % "
              f"({entry['failed']} of {entry['attempted']})")
        for metric, value in entry["per_layer"].items():
            print(f"{metric:48s} {value!r:>24} {per_layer[metric]}")

    OUT.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else OUT / f"result-seed{args.seed}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"\nresult written to {out}")
    if not args.quick:
        line = {
            **report["fingerprint"],
            "reference_s": statistics.median(
                entry["raw"]["reference_s"] for entry in report["workloads"].values()
            ),
            "end_to_end": {
                name: {m: row["median"] for m, row in entry["end_to_end"].items()}
                for name, entry in report["workloads"].items()
            },
            "failed": failed_total,
        }
        with open(HERE / "trajectory.jsonl", "a") as trajectory:
            trajectory.write(json.dumps(line) + "\n")
    return 0 if failed_total == 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="test sizes: 32-host grids")
    parser.add_argument("--repeats", type=int, default=5, help="untraced runs per workload")
    parser.add_argument("--out", help="result file of a full run")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 0.05 if args.quick else float(_spec()["run_seconds"])
    if args.workload:
        known = [w["name"] for w in _spec()["workloads"]]
        if args.workload not in known:
            parser.error(f"unknown workload {args.workload!r}; known: {', '.join(known)}")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
