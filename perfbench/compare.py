"""Compare two full-run result files: ``python3 perfbench/compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both medians, quartiles and
n, and a verdict against the metric's bound in BENCHMARK.json:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``unresolved`` — either side's quartile spread is wider than the bound, so
  "no worse" cannot be told from noise;
* ``improved``   — B's median is better than A's by more than either side's
  quartile spread (an indication: a gain is claimed from ten alternating
  pairs, see the choosing-metrics guide);
* ``unchanged``  — otherwise.

A workload with more failed operations in B than in A is regressed too.  The
per-layer figures that must repeat exactly (virtual times, counters,
``calls``) are listed when they differ.  Every ratio is B/A with A's median
as its base.  Exits 1 on any regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: per-layer metrics measured in host time; every other one is exact.
HOST_TIME_SUFFIXES = (
    ".self_s", ".wall_us_per_rt", ".wall_ms_per_MB", ".trace_overhead_pct", ".cpu_s",
)


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``a`` / ``b`` are ``{"median", "q1", "q3"}`` summaries of one metric."""
    worse_by = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worse_by = -worse_by
    if worse_by > bound:
        return "regressed"
    spreads = [(s["q3"] - s["q1"]) / s["median"] for s in (a, b)]
    if max(spreads) > bound:
        return "unresolved"
    if -worse_by > max(spreads):
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines for results ``a`` (base) and ``b``, and whether any
    (workload, metric) pair regressed."""
    lines = [
        f"A: commit {a['fingerprint']['commit'][:12]} seed {a['fingerprint']['seed']}"
        f"   B: commit {b['fingerprint']['commit'][:12]} seed {b['fingerprint']['seed']}",
        f"{'workload':18s} {'metric':12s} {'A median [q1, q3] n':>34s} "
        f"{'B median [q1, q3] n':>34s} {'B/A':>7s} {'bound':>6s}  verdict",
    ]
    cell = "{median:.5g} [{q1:.5g}, {q3:.5g}] {n}".format
    regressed = False
    for name in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            lines.append(f"{name:18s} missing from {'A' if wa is None else 'B'}")
            continue
        for metric in spec["end_to_end"]:
            ma, mb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            outcome = verdict(ma, mb, metric["better"], metric["bound"])
            regressed |= outcome == "regressed"
            lines.append(
                f"{name:18s} {metric['name']:12s} {cell(**ma):>34s} {cell(**mb):>34s} "
                f"{mb['median'] / ma['median']:7.3f} {metric['bound']:6.2f}  {outcome}"
                f" ({metric['unit']}, {metric['better']} is better, base A = {ma['median']:.5g})"
            )
        more_failed = wb["failed"] > wa["failed"]
        regressed |= more_failed
        lines.append(
            f"{name:18s} {'failed_ops':12s} {wa['failed']:>27d} of {wa['attempted']:<6d} "
            f"{wb['failed']:>27d} of {wb['attempted']:<6d}"
            f"{'':15s} {'regressed' if more_failed else 'unchanged'}"
        )
        for key, value in wa["per_layer"].items():
            other = wb["per_layer"].get(key)
            if not key.endswith(HOST_TIME_SUFFIXES) and other != value:
                lines.append(f"{name:18s} exact figure moved: {key}  A {value!r}  B {other!r}")
    return lines, regressed


def main(argv) -> int:
    if len(argv) != 3:
        sys.exit(__doc__.split("\n\n")[0])
    a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    lines, regressed = compare(a, b, spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
