#!/usr/bin/env python
"""Record a flight-recorder trace of perfbench's ``grid_deployment`` workload.

Builds the batch ``perfbench/workloads.py`` builds for seed 1 (chunked VLink
streams, double-gateway relays, WAN probes, seeded churn) on a framework
that has the telemetry hub attached from its first line — so the connects
are in the trace — streams the events to a JSONL file, runs the window, and
verifies on the spot that replaying the written trace reproduces the live
KPI document byte-for-byte.  The nightly CI job archives the trace together
with ``tools/kpi_report.py --json`` output, so any run can be re-analysed
offline without re-simulating.

Usage::

    python tools/record_trace.py --quick --out trace.jsonl
    python tools/record_trace.py --fidelity hybrid --partitions 4 \
        --out trace.jsonl --kpis kpis.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="perfbench's 32-host test scale (default: 1000 hosts)"
    )
    parser.add_argument("--fidelity", default="packet", choices=["packet", "hybrid"])
    parser.add_argument("--partitions", type=int, default=None)
    parser.add_argument("--out", default="trace.jsonl", help="JSONL trace path")
    parser.add_argument(
        "--kpis", default=None, help="also write the canonical KPI JSON here"
    )
    args = parser.parse_args(argv)

    import workloads
    from repro.core import PadicoFramework
    from repro.telemetry import canonical_kpi_json, verify_replay

    def recorded_framework(**kwargs):
        """The builder's framework, at the asked fidelity and partition
        count, recording from before the first host is added."""
        kwargs.update(fidelity=args.fidelity, partitions=args.partitions)
        fw = PadicoFramework(**kwargs)
        fw.enable_telemetry(jsonl_path=args.out)
        return fw

    workloads.PadicoFramework = recorded_framework
    start = time.perf_counter()
    scale = workloads.QUICK if args.quick else workloads.FULL
    batch = workloads.WORKLOADS["grid_deployment"].build(1, scale)
    batch.run()
    fw = batch.fw
    hub, horizon = fw.telemetry, fw.sim.now
    fw.disable_telemetry()  # flushes buffers and the JSONL stream
    wall_s = time.perf_counter() - start

    outcome = batch.finish()
    if outcome.failed:
        print(
            f"{outcome.failed} of {outcome.attempted} streams did not deliver every byte",
            file=sys.stderr,
        )
        return 1

    kpis = verify_replay(hub.events, args.out, horizon=horizon)
    if args.kpis:
        Path(args.kpis).write_text(canonical_kpi_json(kpis) + "\n")

    print(
        json.dumps(
            {
                "workload": "grid_deployment",
                "scale": "quick" if args.quick else "full",
                "fidelity": args.fidelity,
                "partitions": args.partitions,
                "hosts": len(batch.grid.hosts),
                "streams": outcome.attempted,
                "megabytes_delivered": outcome.units,
                "events_recorded": len(hub.events),
                "virtual_s": round(horizon, 6),
                "wall_s": round(wall_s, 3),
                "trace": args.out,
                "replay_verified": True,
            },
            indent=2,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
