#!/usr/bin/env python
"""Keep ``BENCH_trajectory.jsonl``: one line of perfbench figures per PR.

``perfbench/`` is frozen by the benchmark driver's contract, so its own
``trajectory.jsonl`` stopped at PR 11.  This file at the repository root is
the trajectory since: what each PR's tree measured, so that performance over
PRs is a diff of two lines instead of archaeology in CHANGES.md.

Record a PR, after a full ``python3 perfbench/run.py --seed 1`` on its tree
(then ``git checkout perfbench/trajectory.jsonl``: the run appends to it)::

    python tools/bench_trajectory.py --pr 17 --title "Zero-copy receive" \\
        perfbench/out/result-seed1.json

What CI's bench job runs — fails when the newest PR named at the start of a
line of CHANGES.md has no line here, or when one of that line's exact
figures (the 26 counters and ``events_per_rt``) differs from the previous
line's without being named in the PR's CHANGES.md entry::

    python tools/bench_trajectory.py --check

It prints every figure that moved.  It compares no ``wall_s`` across lines:
two lines are two sessions on a drifting box, and only a same-session
alternating parent/change series (CHANGES.md) resolves wall time.

A line holds ``pr``, ``title``, ``source`` (the result file, or ``CHANGES.md``
for the back-filled PRs 11-15, which carry only what their tables give),
``fingerprint`` (box, python, seed, run length; ``commit`` is ``HEAD`` when
perfbench ran, so the PR's *parent* when it was measured before being
committed), and per workload: ``end_to_end`` (median, quartiles and sample
count of ``wall_s`` / ``setup_s`` / ``peak_rss_mb``), the 26 exact
``counters`` of the traced run, and — the two ladder workloads —
``events_per_rt`` per rung.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TRAJECTORY = REPO / "BENCH_trajectory.jsonl"
CHANGES = REPO / "CHANGES.md"

#: the exact counters of BENCHMARK.json's per-layer catalogue: everything
#: under these prefixes that is neither a profile fold nor a ladder metric.
COUNTER_PREFIXES = (
    "simnet.engine.", "simnet.network.", "simnet.tcp.", "simnet.fluid.", "simnet.partition.",
    "arbitration.netaccess.", "arbitration.sysio.", "abstraction.routing.", "monitoring.",
)
NOT_COUNTERS = (
    ".self_s", ".calls", ".oneway_us", ".bw_MBps", ".wall_us_per_rt", ".wall_ms_per_MB",
    ".events_per_rt",
)
EVENTS_PER_RT = ".events_per_rt"


def is_counter(name: str) -> bool:
    return name.startswith(COUNTER_PREFIXES) and not name.endswith(NOT_COUNTERS)


def line_of(pr: int, title: str, result_path: Path) -> dict:
    """The trajectory line of one ``perfbench/out/result-seed*.json``."""
    report = json.loads(result_path.read_text())
    workloads = {}
    for name, entry in report["workloads"].items():
        per_layer = entry["per_layer"]
        counters = {k: v for k, v in per_layer.items() if is_counter(k)}
        if len(counters) != 26:
            sys.exit(f"{result_path}: {name} has {len(counters)} exact counters, expected 26")
        workloads[name] = {
            "end_to_end": {
                metric: {k: row[k] for k in ("median", "q1", "q3", "n")}
                for metric, row in entry["end_to_end"].items()
            },
            "failed": entry["failed"],
            "counters": counters,
        }
        rungs = {
            k[: -len(EVENTS_PER_RT)]: v for k, v in per_layer.items() if k.endswith(EVENTS_PER_RT)
        }
        if rungs:
            workloads[name]["events_per_rt"] = rungs
    try:
        source = str(result_path.resolve().relative_to(REPO))
    except ValueError:
        source = str(result_path)
    return {
        "pr": pr,
        "title": title,
        "source": source,
        "fingerprint": report["fingerprint"],
        "workloads": workloads,
    }


def read_lines() -> list:
    if not TRAJECTORY.exists():
        return []
    return [json.loads(ln) for ln in TRAJECTORY.read_text().splitlines() if ln.strip()]


def newest_pr_in_changes() -> int:
    numbers = re.findall(r"^PR (\d+)\b", CHANGES.read_text(), flags=re.MULTILINE)
    if not numbers:
        sys.exit(f"{CHANGES}: no line starts with 'PR <n>'")
    return max(map(int, numbers))


def changes_entry(pr: int) -> str:
    """The text of CHANGES.md's entry for ``pr``: every line that starts
    with ``PR <pr>``, each up to the next line that starts another PR."""
    chunks = re.split(r"^(?=PR \d+\b)", CHANGES.read_text(), flags=re.MULTILINE)
    return "".join(chunk for chunk in chunks if re.match(rf"PR {pr}\b", chunk))


def moved_figures(previous: dict, newest: dict) -> list:
    """``(workload, figure, before, after)`` for every exact counter and
    ``events_per_rt`` rung the two lines both hold with different values."""
    moved = []
    for name, entry in newest["workloads"].items():
        before = previous["workloads"].get(name, {})
        for section, suffix in (("counters", ""), ("events_per_rt", EVENTS_PER_RT)):
            old = before.get(section, {})
            for key, value in entry.get(section, {}).items():
                if key in old and old[key] != value:
                    moved.append((name, key + suffix, old[key], value))
    return moved


def check() -> int:
    newest = newest_pr_in_changes()
    lines = {line["pr"]: line for line in read_lines()}
    if newest not in lines:
        print(
            f"BENCH_trajectory.jsonl has no line for PR {newest}, the newest in CHANGES.md "
            f"(recorded: {sorted(lines)}).\nRun perfbench on this tree and append it:\n"
            f"  python3 perfbench/run.py --seed 1\n"
            f"  python tools/bench_trajectory.py --pr {newest} --title '...' "
            f"perfbench/out/result-seed1.json"
        )
        return 1
    print(f"BENCH_trajectory.jsonl: PR {newest} recorded ({len(lines)} PRs in all)")
    previous = max((pr for pr in lines if pr < newest), default=None)
    if previous is None:
        return 0
    moved = moved_figures(lines[previous], lines[newest])
    print(f"{len(moved)} exact figures moved since PR {previous}")
    for workload, figure, before, after in moved:
        print(f"  {workload:18s} {figure:52s} {before!r} -> {after!r}")
    entry = changes_entry(newest)
    unnamed = sorted({figure for _workload, figure, _before, _after in moved if figure not in entry})
    if unnamed:
        print(f"not named in CHANGES.md's PR {newest} entry: {', '.join(unnamed)}")
        return 1
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="fail if the newest PR has no line, or moved an exact figure its entry does not name",
    )
    parser.add_argument("--pr", type=int, help="PR number of the tree that was measured")
    parser.add_argument("--title", default="", help="a few words naming the PR")
    parser.add_argument("result", nargs="?", type=Path, help="perfbench/out/result-seed*.json")
    args = parser.parse_args()
    if args.check:
        return check()
    if args.pr is None or args.result is None:
        parser.error("give --check, or --pr N and a result file")
    if any(line["pr"] == args.pr for line in read_lines()):
        sys.exit(f"BENCH_trajectory.jsonl already has a line for PR {args.pr}: edit it out first")
    line = line_of(args.pr, args.title, args.result)
    with open(TRAJECTORY, "a") as out:
        out.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"PR {args.pr} appended to {TRAJECTORY.name} from {line['source']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
