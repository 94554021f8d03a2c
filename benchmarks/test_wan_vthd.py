"""EXP-WAN — §5 text: the VTHD wide-area experiments.

"We have run test on VTHD, a French experimental high-bandwidth WAN.  All
middleware systems get roughly the same performance, namely a bandwidth of
9 MB/s and a 8 ms latency [...] When activating Parallel Streams, the
bandwidth goes up to 12 MB/s which is the maximum possible given the fact
that each node is connected to VTHD through Ethernet-100."
"""

from types import SimpleNamespace

import pytest

import stack
from repro.core import paper_wan_pair
from repro.methods import register_method_drivers
from repro.middleware.soap import SoapClient, SoapServer

TRANSFER = 12_000_000
#: what the cost model gives for the two bulk transfers (seeded loss draws).
MODEL_SINGLE_MBPS, MODEL_PARALLEL_MBPS = 10.019100789461303, 11.360429462859141


def _bulk_bandwidth(method: str) -> float:
    """MB/s of a bulk transfer over the WAN with the given VLink method."""
    fw, group = paper_wan_pair()
    for host in group:
        register_method_drivers(fw.node(host.name), streams=4)
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    listener = n1.vlink_listen(9100)

    def scenario():
        accept_op = listener.accept()
        client = yield n0.vlink_connect(n1, 9100, method=method)
        server = yield accept_op
        t0 = fw.sim.now
        sent = 0
        while sent < TRANSFER:
            n = min(512 * 1024, TRANSFER - sent)
            client.write(b"x" * n)
            sent += n
        data = yield server.read(TRANSFER)
        assert len(data) == TRANSFER
        return TRANSFER / (fw.sim.now - t0) / 1e6

    return fw.sim.run(until=fw.sim.process(scenario()), max_time=600)


def test_wan_single_stream_vs_parallel_streams(benchmark, once):
    def measure():
        return {"single": _bulk_bandwidth("sysio"), "parallel": _bulk_bandwidth("parallel_streams")}

    r = once(benchmark, measure)
    benchmark.extra_info.update(
        {
            "single_stream_MBps": round(r["single"], 2),
            "parallel_streams_MBps": round(r["parallel"], 2),
            "paper_single_MBps": 9.0,
            "paper_parallel_MBps": 12.0,
        }
    )
    assert r["single"] == pytest.approx(9.0, rel=0.25)
    assert r["parallel"] == pytest.approx(12.0, rel=0.15)
    assert r["parallel"] > r["single"]
    assert r["parallel"] < 12.6  # capped by the Ethernet-100 access link
    assert r["single"] == pytest.approx(MODEL_SINGLE_MBPS, rel=1e-9)
    assert r["parallel"] == pytest.approx(MODEL_PARALLEL_MBPS, rel=1e-9)


def _soap_echo():
    """gSOAP has no rung on the ladder: its echo RPC over the WAN pair,
    offered to ``drive.latency`` in a rung's shape."""
    fw, group = paper_wan_pair()
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    SoapServer(n1, 18100).register("echo", lambda data=b"": data)
    client = SoapClient(n0, n1.host, 18100)
    return SimpleNamespace(
        sim=fw.sim,
        connect=lambda: iter(()),
        pingpong=lambda payload: client.call("echo", data=payload),
    )


#: what the cost model gives: one-way ms of 64-byte round trips (3 warm-up +
#: 3 measured) on a plain single-socket deployment.  (omniORB-4 was
#: 8.024616959016392 while the ORB read each GIOP message as two socket
#: reads, each paying SysIO's dispatch cost; it pays one per readiness
#: callback now.)
MODEL_LATENCY_MS = {
    "MPI": 8.02140895454545, "omniORB-4": 8.024566959016392, "gSOAP": 8.154303749999993,
}


def test_wan_every_middleware_gets_the_same_latency(benchmark, once, drive, monkeypatch):
    """Paper: "On the WAN, every middleware systems get roughly the same
    performance since software overhead is negligible compared to the
    network speed."""

    def measure():
        # plain single-socket deployment: this experiment is about every
        # middleware seeing the same 8 ms WAN latency, not about the
        # WAN-specific methods
        monkeypatch.setattr(stack, "paper_cluster", lambda n_nodes: paper_wan_pair())
        return {
            "MPI": drive.latency(stack.MpiRung(), 64, 3) * 1e3,
            "omniORB-4": drive.latency(stack.CorbaRung(), 64, 3) * 1e3,
            "gSOAP": drive.latency(_soap_echo(), 64, 3) * 1e3,
        }

    latencies_ms = once(benchmark, measure)
    benchmark.extra_info["latencies_ms"] = {k: round(v, 2) for k, v in latencies_ms.items()}
    benchmark.extra_info["paper_latency_ms"] = 8.0
    for value in latencies_ms.values():
        assert value == pytest.approx(8.0, rel=0.35)
    spread = max(latencies_ms.values()) - min(latencies_ms.values())
    assert spread < 2.0  # "roughly the same" — software differences are lost in the 8 ms
    assert latencies_ms == pytest.approx(MODEL_LATENCY_MS, rel=1e-9)
