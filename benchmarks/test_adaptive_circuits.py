"""EXP-ADAPT-CIRCUIT — adaptive vs. static group communication under churn.

The scripted (seeded) scenario: a four-member circuit spans two clusters
joined by two independent gateway/WAN paths.  Every member streams
sequence-numbered messages to every other member while the fault injector
first *degrades* the preferred WAN (loss crosses the lossy threshold) and
then *kills the gateway host* the static routes relay through.  Detection
is entirely through the monitoring subsystem (``announce=False``): seeded
active probes feed estimators, the TopologyMonitor pushes measured
profiles into the knowledge base, and a run of lost probes marks the dead
path down.

* **adaptive** — circuits created with ``adaptive=True``: every remote leg
  is an offset-framed adaptive session pinned through the selector's
  circuit-hop policy.  When the WAN degrades the affected legs migrate to
  the backup gateway pair (re-pinning methods and monitoring-derived
  parameters per hop); the later gateway death cannot touch them.  Every
  member's stream arrives complete and in per-source order.
* **static** — the seed behaviour: adapters bound once at creation.  The
  group's cross-cluster legs collapse with TCP when the WAN degrades and
  freeze entirely when their gateway dies.

Headline: delivered-bytes/time across the group, identical fault schedule.
The measured adaptive/static ratio is recorded in ``BENCH_circuits.json``
(refresh with ``BENCH_REFRESH=1``) and CI-gated against a floor derived
from the recorded margin.
"""

import json
import os
import struct
from pathlib import Path

from repro.core import PadicoFramework
from repro.simnet.networks import Ethernet100, WanVthd

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_circuits.json"

CHUNK = 16 * 1024
CHUNKS_PER_PAIR = 64          # 1 MB per (src, dst) pair
MEMBERS = ["a0", "a1", "b0", "b1"]
DEGRADE_AT, DEGRADE_LOSS = 0.1, 0.06
GATEWAY_KILL_AT = 0.45
HORIZON = 4.0
CHURN_SEED = 42
PROBE_SEED = 7

_SEQ = struct.Struct("!II")  # src_rank, sequence number

#: absolute floor for the adaptive/static delivered-bytes/time ratio, and
#: the fraction of the recorded margin CI re-requires (machine variance on
#: the virtual-time measurement is nil, but the schedule leaves the static
#: run a machine-independent trickle before the freeze).
RATIO_FLOOR = 1.3
RATIO_BASELINE_FRACTION = 0.5
#: route-flap ceiling: the minimum-dwell hysteresis on pinned routes holds
#: the seeded schedule to ~8 migrations (it ran ~20 before the dwell, with
#: passive probes on the loaded backup WAN flapping the route weights).
MIGRATIONS_CEILING = 10


def deployment():
    """Two clusters, two independent gateway/WAN paths; wan1 preferred."""
    fw = PadicoFramework()
    for name, site in [
        ("a0", "sa"), ("a1", "sa"), ("ga1", "sa"), ("ga2", "sa"),
        ("b0", "sb"), ("b1", "sb"), ("gb1", "sb"), ("gb2", "sb"),
    ]:
        fw.add_host(name, site=site)
    lan_a = fw.add_network(Ethernet100(fw.sim, "lan-a"))
    lan_b = fw.add_network(Ethernet100(fw.sim, "lan-b"))
    wan1 = fw.add_network(WanVthd(fw.sim, "wan1"))
    wan2 = fw.add_network(WanVthd(fw.sim, "wan2", seed=777))
    # wan2 is the backup: slightly higher latency keeps wan1 preferred
    # until the measured degradation inverts the edge weights.
    wan2.latency = wan1.latency * 1.15
    wan2.changed("degrade")
    for h in ("a0", "a1", "ga1", "ga2"):
        lan_a.connect(fw.host(h))
    for h in ("b0", "b1", "gb1", "gb2"):
        lan_b.connect(fw.host(h))
    wan1.connect(fw.host("ga1")), wan1.connect(fw.host("gb1"))
    wan2.connect(fw.host("ga2")), wan2.connect(fw.host("gb2"))
    fw.boot()
    fw.monitoring.watch(wan1, interval=0.01, seed=PROBE_SEED)
    fw.monitoring.watch(wan2, interval=0.01, seed=PROBE_SEED + 1)
    injector = fw.fault_injector(seed=CHURN_SEED, announce=False)
    injector.degrade_link_at(DEGRADE_AT, wan1, loss_rate=DEGRADE_LOSS)
    injector.kill_host_at(GATEWAY_KILL_AT, fw.host("ga1"))
    return fw


def payload(src_rank: int, seq: int) -> bytes:
    body = bytes((j + src_rank * 31 + seq) % 251 for j in range(CHUNK - _SEQ.size))
    return _SEQ.pack(src_rank, seq) + body


def run_group(adaptive: bool) -> dict:
    fw = deployment()
    group = fw.group(MEMBERS, "bench-group")
    circuits = {
        name: fw.node(name).circuit("bench", group, adaptive=adaptive)
        for name in MEMBERS
    }
    expected_messages = len(MEMBERS) * (len(MEMBERS) - 1) * CHUNKS_PER_PAIR
    state = {
        "messages": 0,
        "bytes": 0,
        "order_ok": True,
        "content_ok": True,
        "finished_at": None,
    }
    # per (receiver, src) sequence cursor: per-source order across the group
    cursors = {}

    def on_receive(me):
        def _cb(src_rank, incoming, _rx):
            data = incoming.unpack_express()
            src, seq = _SEQ.unpack_from(data, 0)
            key = (me, src)
            if cursors.get(key, -1) + 1 != seq:
                state["order_ok"] = False
            cursors[key] = seq
            if data != payload(src, seq):
                state["content_ok"] = False
            state["messages"] += 1
            state["bytes"] += len(data)
            if state["messages"] >= expected_messages and state["finished_at"] is None:
                state["finished_at"] = fw.sim.now
        return _cb

    for rank, name in enumerate(MEMBERS):
        circuits[name].set_receive_callback(on_receive(rank))

    for rank, name in enumerate(MEMBERS):
        circuit = circuits[name]
        for seq in range(CHUNKS_PER_PAIR):
            for dst_rank in range(len(MEMBERS)):
                if dst_rank != rank:
                    circuit.send(dst_rank, payload(rank, seq))

    fw.sim.run(until=HORIZON)
    finished_at = state["finished_at"] if state["finished_at"] else HORIZON
    monitor = fw.monitoring.describe()
    fw.monitoring.stop()
    migrations = sum(
        c.adaptive.migrations() for c in circuits.values() if c.adaptive is not None
    )
    return {
        "finished_at": finished_at,
        "complete": state["messages"] >= expected_messages,
        "messages": state["messages"],
        "bytes": state["bytes"],
        "order_ok": state["order_ok"],
        "content_ok": state["content_ok"],
        "rate_MBps": state["bytes"] / finished_at / 1e6,
        "migrations": migrations,
        "monitor": monitor,
    }


def load_recorded() -> dict:
    if BENCH_PATH.exists():
        return json.loads(BENCH_PATH.read_text())
    return {}


def maybe_refresh(result: dict) -> None:
    if os.environ.get("BENCH_REFRESH", "") != "1":
        return
    BENCH_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def test_adaptive_circuits_beat_static_under_degrade_and_gateway_kill(benchmark):
    def measure():
        return {"adaptive": run_group(adaptive=True), "static": run_group(adaptive=False)}

    r = benchmark.pedantic(measure, rounds=1, iterations=1, warmup_rounds=0)
    adaptive, static = r["adaptive"], r["static"]
    ratio = adaptive["rate_MBps"] / max(static["rate_MBps"], 1e-9)

    benchmark.extra_info.update(
        {
            "adaptive_finished_s": round(adaptive["finished_at"], 3),
            "adaptive_rate_MBps": round(adaptive["rate_MBps"], 2),
            "adaptive_migrations": adaptive["migrations"],
            "static_rate_MBps": round(static["rate_MBps"], 2),
            "static_messages": static["messages"],
            "ratio": round(ratio, 2),
            "monitor": adaptive["monitor"],
        }
    )

    # the adaptive group delivered everything, in per-source order, intact
    assert adaptive["complete"], "adaptive group transfer did not finish"
    assert adaptive["order_ok"], "per-source message order violated"
    assert adaptive["content_ok"], "payload corruption across migration"
    # churn actually bit: legs migrated, and the monitoring loop (not an
    # oracle) drove the decisions
    assert adaptive["migrations"] >= 1
    # ... but the minimum-dwell hysteresis keeps the route from flapping
    # (this schedule migrated ~20 times before the dwell, ~8 after)
    assert adaptive["migrations"] <= MIGRATIONS_CEILING, (
        f"route flapping is back: {adaptive['migrations']} migrations under the "
        f"seeded schedule (ceiling {MIGRATIONS_CEILING})"
    )
    assert adaptive["monitor"]["reclassifications"] + adaptive["monitor"][
        "links_marked_down"
    ] >= 1
    # the static group froze: it cannot complete under the same schedule
    assert not static["complete"]
    # static deliveries that did land must also be ordered (the adapters'
    # per-source serialization is churn-independent)
    assert static["order_ok"] and static["content_ok"]

    # headline gate: delivered-bytes/time margin vs the recorded baseline
    recorded = load_recorded()
    maybe_refresh(
        {
            "adaptive_rate_MBps": round(adaptive["rate_MBps"], 3),
            "static_rate_MBps": round(static["rate_MBps"], 3),
            "ratio": round(ratio, 3),
        }
    )
    gate = RATIO_FLOOR
    if recorded.get("ratio") and os.environ.get("BENCH_REFRESH", "") != "1":
        gate = max(gate, RATIO_BASELINE_FRACTION * recorded["ratio"])
    assert ratio >= gate, (
        f"adaptive/static delivered-bytes/time ratio regressed: {ratio:.2f} < {gate:.2f} "
        f"(recorded {recorded.get('ratio')})"
    )
