"""Queueing-theory correctness gates for the simulation core.

Two closed-form checks guard the physical model under both fidelities:

* **M/M/1** — Poisson job arrivals pushed through a single serialization
  point (one NIC's transmit queue) with exponentially distributed sizes.
  The NIC's FIFO wire occupancy *is* the queue, so the measured mean
  sojourn time and utilization must match ``W = 1/(mu - lambda)`` and
  ``rho = lambda/mu``.  A concurrent TCP bulk flow runs alongside at the
  fidelity under test, proving the fluid fast path neither perturbs the
  queueing point nor is perturbed by it.
* **TCP steady state** — a bulk transfer's goodput must converge to the
  analytic ``steady_state_rate`` a fluid plan integrates, in both
  fidelities, and the two fidelities must complete at the same instant —
  alone on its NIC, and as one of k flows sharing it
  (``steady_state_rate(..., nflows=k)``).
"""

import random

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.fluid import steady_state_rate
from repro.simnet.host import Host
from repro.simnet.network import PARADIGM_PARALLEL, Network
from repro.simnet.networks import Ethernet100
from repro.simnet.tcp import TcpStack

PORT = 4242
MIB = 1024 * 1024


class _QueueLink(Network):
    """A bare message network used as a pure M/M/1 service station.

    Parallel paradigm so the OS TCP stack never claims its NICs; zero
    header bytes and a huge MTU make the service time exactly
    ``nbytes / bandwidth``.
    """

    paradigm = PARADIGM_PARALLEL

    def __init__(self, sim):
        super().__init__(
            sim,
            "mm1",
            latency=200e-6,
            bandwidth=10_000_000.0,
            mtu=1 << 30,
            header_bytes=0,
        )


def _run_mm1(fidelity, *, n_jobs=4000, lam=600.0, mean_size=10_000, seed=7):
    """Drive the queueing station and a concurrent TCP flow; return stats.

    Job service rate: mu = bandwidth / mean_size = 1000/s, so at
    lam = 600/s the station runs at rho = 0.6 with W = 1/(mu-lam) = 2.5 ms.
    """
    sim = Simulator()
    qnet = _QueueLink(sim)
    eth = Ethernet100(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    for net in (qnet, eth):
        net.connect(a)
        net.connect(b)
    sa = TcpStack(a, fidelity=fidelity)
    sb = TcpStack(b, fidelity=fidelity)
    qnet.nic_of(b).set_receive_handler(lambda delivery: None, owner="mm1-sink")

    rng = random.Random(seed)
    arrivals = []
    t = 0.0
    for _ in range(n_jobs):
        t += rng.expovariate(lam)
        size = max(1, round(rng.expovariate(1.0 / mean_size)))
        arrivals.append((t, size))

    res = {"sojourn": [], "service": [], "busy": 0.0, "last_end": 0.0}

    def submit(size):
        frame = qnet.transmit(a, b, b"\x00" * size)
        tx_begin, tx_end = frame.meta["tx_begin"], frame.meta["tx_end"]
        # sojourn = wait in the FIFO + service; propagation is not queueing
        res["sojourn"].append(tx_end - sim.now)
        res["service"].append(size / qnet.bandwidth)
        res["busy"] += tx_end - tx_begin
        res["last_end"] = max(res["last_end"], tx_end)

    for at, size in arrivals:
        sim.call_at(at, submit, size)

    listener = sb.listen(PORT)
    nbytes = 8 * MIB

    def client():
        conn = yield sa.connect(b, PORT)
        res["conn"] = conn
        res["t0"] = sim.now
        yield conn.send(b"x" * nbytes)

    def server():
        conn = yield listener.accept()
        data = yield conn.recv_exact(nbytes)
        res["t1"] = sim.now
        res["tcp_ok"] = data == b"x" * nbytes

    sim.process(client())
    sim.process(server())
    sim.run(max_time=600.0)

    res["first_arrival"] = arrivals[0][0]
    res["last_arrival"] = arrivals[-1][0]
    return res


@pytest.mark.parametrize("fidelity", ["packet", "hybrid"])
def test_mm1_sojourn_and_utilization_match_theory(fidelity):
    res = _run_mm1(fidelity)
    assert res["tcp_ok"]
    n = len(res["sojourn"])
    assert n == 4000

    # empirical rates (removes the seed's sampling noise from the inputs,
    # leaving only the queueing dynamics under test)
    lam_hat = n / res["last_arrival"]
    mean_service = sum(res["service"]) / n
    mu_hat = 1.0 / mean_service
    assert lam_hat < mu_hat  # stable queue

    w_measured = sum(res["sojourn"]) / n
    w_theory = 1.0 / (mu_hat - lam_hat)
    assert w_measured == pytest.approx(w_theory, rel=0.10)

    span = res["last_end"] - res["first_arrival"]
    rho_measured = res["busy"] / span
    rho_theory = lam_hat * mean_service
    assert rho_measured == pytest.approx(rho_theory, rel=0.05)

    if fidelity == "hybrid":
        # the concurrent flow really exercised the fast path
        assert res["conn"].fluid.fluid_rounds > 0


def test_mm1_station_is_fidelity_invariant():
    """The queueing point rides its own NIC: switching the TCP flow to the
    fluid fast path must not move a single sojourn time, and the TCP flow
    itself must complete at the identical virtual instant."""
    packet = _run_mm1("packet")
    hybrid = _run_mm1("hybrid")
    assert hybrid["sojourn"] == packet["sojourn"]
    assert hybrid["busy"] == packet["busy"]
    assert hybrid["t1"] == packet["t1"]
    assert hybrid["conn"].bytes_sent == packet["conn"].bytes_sent


def _run_bulk(fidelity, nbytes, nflows=1):
    """``nflows`` equal bulk transfers from one host (one NIC) to ``nflows``
    receivers, started together."""
    sim = Simulator()
    net = Ethernet100(sim)
    a = Host(sim, "a")
    net.connect(a)
    sa = TcpStack(a, fidelity=fidelity)
    out = {"net": net, "conns": [None] * nflows, "t1s": [None] * nflows, "ok": True}

    def client(i, peer):
        conn = yield sa.connect(peer, PORT)
        out["conns"][i] = conn
        out["t0"] = sim.now
        yield conn.send(b"x" * nbytes)

    def server(i, listener):
        conn = yield listener.accept()
        data = yield conn.recv_exact(nbytes)
        out["t1s"][i] = sim.now
        out["ok"] &= data == b"x" * nbytes

    for i in range(nflows):
        peer = Host(sim, f"b{i}")
        net.connect(peer)
        listener = TcpStack(peer, fidelity=fidelity).listen(PORT)
        sim.process(client(i, peer))
        sim.process(server(i, listener))
    sim.run(max_time=600.0)
    out["conn"] = out["conns"][0]
    out["t1"] = out["t1s"][0]
    return out


@pytest.mark.parametrize("fidelity", ["packet", "hybrid"])
def test_tcp_goodput_converges_to_steady_state_rate(fidelity):
    nbytes = 16 * MIB
    out = _run_bulk(fidelity, nbytes)
    assert out["ok"]
    conn = out["conn"]
    goodput = nbytes / (out["t1"] - out["t0"])
    expected = steady_state_rate(
        out["net"], conn.cwnd, conn.stack.model.receive_window
    )
    # slow-start ramp dilutes the first few rounds; 16 MiB leaves the
    # steady state dominant
    assert goodput == pytest.approx(expected, rel=0.05)


def test_tcp_completion_identical_across_fidelities():
    packet = _run_bulk("packet", 16 * MIB)
    hybrid = _run_bulk("hybrid", 16 * MIB)
    assert hybrid["t0"] == packet["t0"]
    assert hybrid["t1"] == packet["t1"]
    assert hybrid["conn"].bytes_sent == packet["conn"].bytes_sent
    assert hybrid["conn"].rounds == packet["conn"].rounds


@pytest.mark.parametrize("nflows", [2, 3])
def test_contended_goodput_converges_to_shared_steady_state_rate(nflows):
    """k flows through one NIC each converge to the analytic share
    ``steady_state_rate(..., nflows=k)`` — the wire occupancy of a round
    multiplies by k — at both fidelities, and finish at the identical
    instants (the hybrid run on joint epochs, not per-round simulation)."""
    nbytes = 16 * MIB
    packet = _run_bulk("packet", nbytes, nflows)
    hybrid = _run_bulk("hybrid", nbytes, nflows)
    for out in (packet, hybrid):
        assert out["ok"]
        conn = out["conn"]
        expected = steady_state_rate(
            out["net"], conn.cwnd, conn.stack.model.receive_window, nflows=nflows
        )
        for t1 in out["t1s"]:
            assert nbytes / (t1 - out["t0"]) == pytest.approx(expected, rel=0.05)
    assert hybrid["t1s"] == packet["t1s"]
    for pc, hc in zip(packet["conns"], hybrid["conns"]):
        assert hc.rounds == pc.rounds
        assert hc.fluid.epoch_rounds > 0
