#!/usr/bin/env python
"""Record a flight-recorder trace of the engine-scale deployment scenario.

Builds the same grid deployment ``benchmarks/test_engine_scale.py``
measures (chunked VLink streams, WAN monitoring, seeded churn), attaches
the telemetry hub with a JSONL stream, runs it to completion, and verifies
on the spot that replaying the written trace reproduces the live KPI
document byte-for-byte.  The nightly CI job archives the trace together
with ``tools/kpi_report.py --json`` output, so any run can be re-analysed
offline without re-simulating.

Usage::

    python tools/record_trace.py --size small --out trace.jsonl
    python tools/record_trace.py --size medium --fidelity hybrid \
        --partitions 4 --out trace.jsonl --kpis kpis.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--size", default="small", choices=["small", "medium", "large", "huge"]
    )
    parser.add_argument("--fidelity", default="packet", choices=["packet", "hybrid"])
    parser.add_argument("--partitions", type=int, default=None)
    parser.add_argument("--out", default="trace.jsonl", help="JSONL trace path")
    parser.add_argument(
        "--kpis", default=None, help="also write the canonical KPI JSON here"
    )
    args = parser.parse_args(argv)

    # build_scenario reads the fidelity from the benchmark's env knob
    os.environ["ENGINE_FIDELITY"] = args.fidelity
    import test_engine_scale as bench
    from repro.telemetry import canonical_kpi_json, verify_replay

    start = time.perf_counter()
    fw, grid, completions = bench.build_scenario(args.size, partitions=args.partitions)
    hub = fw.enable_telemetry(jsonl_path=args.out)

    all_done = fw.sim.all_of(completions)
    delivered = fw.sim.run(until=all_done, max_time=bench.MAX_VIRTUAL)
    fw.sim.run(until=max(bench.CHURN_HORIZON, fw.sim.now), max_time=bench.MAX_VIRTUAL)
    horizon = fw.sim.now
    fw.disable_telemetry()  # flushes buffers and the JSONL stream
    wall_s = time.perf_counter() - start

    expected = len(completions) * bench.TRANSFER_BYTES
    got = sum(delivered)
    if got != expected:
        print(f"byte totals diverged: {got} != {expected}", file=sys.stderr)
        return 1

    kpis = verify_replay(hub.events, args.out, horizon=horizon)
    if args.kpis:
        Path(args.kpis).write_text(canonical_kpi_json(kpis) + "\n")

    print(
        json.dumps(
            {
                "size": args.size,
                "fidelity": args.fidelity,
                "partitions": args.partitions,
                "hosts": len(grid.hosts),
                "streams": len(completions),
                "bytes_delivered": got,
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
