"""Unit tests for the TCP model (handshake, streams, congestion behaviour)."""

import random

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.host import Host
from repro.simnet.networks import Ethernet100, LossyInternet, Myrinet2000, WanVthd
from repro.simnet.tcp import TcpConnection, TcpError, TcpModel, TcpStack


def make_pair(net_cls=Ethernet100, **net_kwargs):
    sim = Simulator()
    net = net_cls(sim, **net_kwargs)
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    return sim, net, TcpStack(a), TcpStack(b), a, b


def transfer(sim, stack_a, stack_b, host_b, nbytes, port=5000):
    """Helper: move nbytes from a to b, return (elapsed, data_ok)."""
    listener = stack_b.listen(port)
    result = {}

    def client():
        conn = yield stack_a.connect(host_b, port)
        result["t0"] = sim.now
        yield conn.send(b"x" * nbytes)

    def server():
        conn = yield listener.accept()
        data = yield conn.recv_exact(nbytes)
        result["t1"] = sim.now
        result["ok"] = data == b"x" * nbytes

    sim.process(client())
    sim.process(server())
    sim.run(max_time=600)
    return result["t1"] - result["t0"], result["ok"]


def test_handshake_establishes_both_ends():
    sim, net, sa, sb, a, b = make_pair()
    listener = sb.listen(9000)
    out = {}

    def client():
        conn = yield sa.connect(b, 9000)
        out["client"] = conn.established

    def server():
        conn = yield listener.accept()
        out["server"] = conn.established

    sim.process(client())
    sim.process(server())
    sim.run()
    assert out == {"client": True, "server": True}


def test_connect_refused_when_no_listener():
    sim, net, sa, sb, a, b = make_pair()

    def client():
        try:
            yield sa.connect(b, 12345)
        except TcpError as exc:
            return str(exc)

    result = sim.run(until=sim.process(client()))
    assert "refused" in result


def test_duplicate_listen_rejected():
    sim, net, sa, sb, a, b = make_pair()
    sb.listen(7000)
    with pytest.raises(TcpError):
        sb.listen(7000)


def test_accept_on_a_closed_listener_fails_at_once():
    sim, net, sa, sb, a, b = make_pair()
    listener = sb.listen(7001)
    listener.close()
    ev = listener.accept()
    sim.run()
    assert ev.triggered and not ev.ok
    assert isinstance(ev.value, TcpError) and "listener closed" in str(ev.value)


def test_closing_a_listener_twice_leaves_a_new_listener_on_its_port():
    sim, net, sa, sb, a, b = make_pair()
    old = sb.listen(80)
    old.close()
    new = sb.listen(80)
    old.close()

    def client():
        conn = yield sa.connect(b, 80)
        return conn

    accepted = new.accept()
    sim.run(until=sim.process(client()))
    sim.run()
    assert accepted.ok and accepted.value.peer_host is a


def test_no_common_network_raises():
    sim = Simulator()
    net = Ethernet100(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)  # b is NOT attached
    sa, sb = TcpStack(a), TcpStack(b)

    def client():
        try:
            yield sa.connect(b, 1)
        except TcpError as exc:
            return "no-route"

    assert sim.run(until=sim.process(client())) == "no-route"


def test_stream_preserves_content_and_order():
    sim, net, sa, sb, a, b = make_pair()
    listener = sb.listen(9001)
    chunks = [bytes([i]) * (100 + i) for i in range(20)]
    out = {}

    def client():
        conn = yield sa.connect(b, 9001)
        for chunk in chunks:
            conn.send(chunk)

    def server():
        conn = yield listener.accept()
        data = yield conn.recv_exact(sum(len(c) for c in chunks))
        out["data"] = data

    sim.process(client())
    sim.process(server())
    sim.run(max_time=60)
    assert out["data"] == b"".join(chunks)


def test_recv_partial_and_available():
    sim, net, sa, sb, a, b = make_pair()
    listener = sb.listen(9002)
    out = {}

    def client():
        conn = yield sa.connect(b, 9002)
        yield conn.send(b"abcdef")

    def server():
        conn = yield listener.accept()
        first = yield conn.recv(4)
        out["first"] = first
        rest = yield conn.recv_exact(6 - len(first))
        out["rest"] = rest
        out["leftover"] = conn.available()

    sim.process(client())
    sim.process(server())
    sim.run(max_time=10)
    assert out["first"] + out["rest"] == b"abcdef"
    assert out["leftover"] == 0


def test_lan_bandwidth_close_to_paper_reference():
    """Fast Ethernet TCP should plateau near ~11 MB/s (Figure 3 reference)."""
    sim, net, sa, sb, a, b = make_pair()
    elapsed, ok = transfer(sim, sa, sb, b, 1_000_000)
    assert ok
    bw = 1_000_000 / elapsed / 1e6
    assert 10.0 < bw < 12.5


def test_small_message_latency_on_lan():
    sim, net, sa, sb, a, b = make_pair()
    elapsed, ok = transfer(sim, sa, sb, b, 32)
    assert ok
    assert 50e-6 < elapsed < 200e-6


def test_wan_single_stream_well_below_access_bandwidth():
    """VTHD: one TCP stream gets ~9-10 MB/s, clearly below the 12.5 MB/s access link."""
    sim, net, sa, sb, a, b = make_pair(WanVthd)
    elapsed, ok = transfer(sim, sa, sb, b, 16_000_000)
    assert ok
    bw = 16_000_000 / elapsed / 1e6
    assert 7.0 < bw < 11.5


def test_lossy_link_tcp_collapse():
    """5-10 % loss collapses TCP to the ~150 KB/s the paper reports."""
    sim, net, sa, sb, a, b = make_pair(LossyInternet)
    elapsed, ok = transfer(sim, sa, sb, b, 1_000_000)
    assert ok
    kbps = 1_000_000 / elapsed / 1e3
    assert 80 < kbps < 260


def test_congestion_window_grows_on_clean_network():
    sim, net, sa, sb, a, b = make_pair()
    listener = sb.listen(9005)
    out = {}

    def client():
        conn = yield sa.connect(b, 9005)
        initial = conn.cwnd
        yield conn.send(b"z" * 500_000)
        out["initial"] = initial
        out["final"] = conn.cwnd
        out["retx"] = conn.retransmitted_bytes

    def server():
        conn = yield listener.accept()
        yield conn.recv_exact(500_000)

    sim.process(client())
    sim.process(server())
    sim.run(max_time=60)
    assert out["final"] > out["initial"]
    assert out["retx"] == 0


def test_receive_window_caps_cwnd():
    sim, net, sa, sb, a, b = make_pair()
    sa.model = TcpModel(receive_window=8 * 1460)
    listener = sb.listen(9006)
    out = {}

    def client():
        conn = yield sa.connect(b, 9006)
        yield conn.send(b"z" * 200_000)
        out["cwnd"] = conn.cwnd

    def server():
        conn = yield listener.accept()
        yield conn.recv_exact(200_000)

    sim.process(client())
    sim.process(server())
    sim.run(max_time=60)
    assert out["cwnd"] <= 8 * 1460


def test_close_fails_pending_reads():
    sim, net, sa, sb, a, b = make_pair()
    listener = sb.listen(9007)
    out = {}

    def client():
        conn = yield sa.connect(b, 9007)
        conn.close()

    def server():
        conn = yield listener.accept()
        try:
            yield conn.recv_exact(10)
        except TcpError:
            out["failed"] = True

    sim.process(client())
    sim.process(server())
    sim.run(max_time=10)
    assert out.get("failed") is True


def test_send_on_closed_connection_raises():
    sim, net, sa, sb, a, b = make_pair()
    listener = sb.listen(9008)
    out = {}

    def client():
        conn = yield sa.connect(b, 9008)
        conn.close()
        try:
            conn.send(b"late")
        except TcpError as exc:
            out["raised"] = str(exc) == "send() on closed connection"

    sim.process(client())
    sim.process(server_noop(listener))
    sim.run(max_time=10)
    assert out.get("raised") is True


def test_send_before_established_raises():
    sim, net, sa, sb, a, b = make_pair()
    sb.listen(9010)
    connected = sa.connect(b, 9010)
    (conn,) = sa.connections()  # the SYN is in flight
    with pytest.raises(TcpError, match=r"^send\(\) before the connection is established$"):
        conn.send(b"early")
    sim.run(until=connected, max_time=10)
    assert conn.established


def test_stack_refuses_a_parallel_network():
    sim, net, sa, sb, a, b = make_pair()
    san = Myrinet2000(sim, name="san0")
    san.connect(a)
    with pytest.raises(ValueError, match="only drives distributed-paradigm networks, not 'san0'"):
        sa.attach(san)
    assert sa.networks() == [net]


def server_noop(listener):
    def _gen():
        yield listener.accept()
    return _gen()


def test_empty_send_completes_immediately():
    sim, net, sa, sb, a, b = make_pair()
    listener = sb.listen(9009)
    out = {}

    def client():
        conn = yield sa.connect(b, 9009)
        n = yield conn.send(b"")
        out["n"] = n

    sim.process(client())
    sim.process(server_noop(listener))
    sim.run(max_time=10)
    assert out["n"] == 0


def test_segment_appends_never_reorder_across_sizes():
    """Receive-side regression: a later, smaller segment's cheaper
    kernel-side processing must not let its bytes overtake an earlier large
    segment's (found as content corruption on relayed multi-hop transfers:
    the stream arrived complete but reordered)."""
    from repro.core import PadicoFramework
    from repro.simnet.networks import grid_deployment

    fw = PadicoFramework()
    grid = grid_deployment(fw, rows=2, cols=2, hosts_per_cluster=4)
    fw.boot()
    src = grid.clusters[0][-1]
    dst = grid.clusters[1][1]  # no common network: two gateway relays
    listener = fw.node(dst.name).vlink_listen(7100)
    payload = bytes(range(256)) * 1024  # 256 KB, position-recognizable

    def scenario():
        acc = listener.accept()
        client = yield fw.node(src.name).vlink_connect(fw.node(dst.name), 7100)
        server = yield acc
        pending = client.write(payload)
        data = yield server.read(len(payload))
        yield pending
        return data

    data = fw.sim.run(until=fw.sim.process(scenario()), max_time=60)
    assert data == payload


def test_a_loss_free_connection_never_builds_its_rng():
    sim, net, sa, sb, a, b = make_pair()
    _elapsed, ok = transfer(sim, sa, sb, b, 1 << 20)
    assert ok
    conns = sa.connections() + sb.connections()
    assert len(conns) == 2
    assert not any(isinstance(conn._rng, random.Random) for conn in conns)


def test_the_lazy_loss_stream_is_the_eager_one():
    """A connection takes one draw of its network's stream when it is built,
    as ever, and its own losses are those of the ``random.Random`` it used
    to build from that draw on the spot."""
    sim, net, sa, sb, a, b = make_pair(WanVthd)
    net.loss_rate = 0.01
    net.changed("degrade")
    twin = random.Random()
    twin.setstate(net.rng.getstate())
    conn = TcpConnection(sa, net, b, 40000, 5000)
    eager = random.Random((twin.randint(0, 1 << 30) << 8) ^ conn.conn_id)
    assert net.rng.getstate() == twin.getstate()
    expected = [sum(eager.random() < 0.01 for _ in range(180)) for _ in range(50)]
    assert [conn._draw_losses(180) for _ in range(50)] == expected
    assert sum(expected) > 0


def test_the_loss_free_window_step_is_the_packet_rounds():
    """``TcpModel.grown_window`` iterated from the initial window is the
    sequence of windows ``_update_window(0, cwnd)`` leaves round after
    round: slow start up to ``ssthresh``, the round that crosses it, then
    one segment a round up to the receiver cap."""
    sim = Simulator()
    net = Ethernet100(sim)
    a, b = Host(sim, "a"), Host(sim, "b")
    net.connect(a)
    net.connect(b)
    model = TcpModel(initial_ssthresh=20_000, receive_window=64 * 1024)
    sa, sb = TcpStack(a, model), TcpStack(b, model)
    sb.listen(9014)
    connecting = sa.connect(b, 9014)
    sim.run()
    conn = connecting.value
    mss = net.mtu
    window, seen = conn.cwnd, []
    for _ in range(40):
        conn._update_window(0, conn.cwnd)
        window = model.grown_window(window, window, conn.ssthresh, mss)
        assert conn.cwnd == window
        seen.append(window)
    assert seen[:3] == [4 * mss, 8 * mss, 16 * mss]  # 16 * mss crosses ssthresh
    assert seen[3] == 17 * mss and seen[-1] == model.receive_window
    assert conn.ssthresh == 20_000


def test_closing_a_listener_fails_a_pending_accept():
    """An accept still waiting when its listener closes fails, instead of
    leaving the process that waits on it parked for good, and the port
    refuses connections from then on."""
    sim, net, sa, sb, a, b = make_pair()
    listener = sb.listen(9015)
    out = {}

    def server():
        try:
            yield listener.accept()
        except TcpError as exc:
            out["accept"] = str(exc)

    def client():
        try:
            yield sa.connect(b, 9015)
        except TcpError as exc:
            out["connect"] = str(exc)

    sim.process(server())
    sim.run()
    listener.close()
    sim.run(until=sim.process(client()), max_time=10)
    assert out["accept"] == "listener closed"
    assert "refused" in out["connect"]


def test_closing_a_listener_closes_the_connections_nobody_accepted():
    """Connections established on a listener that nobody accepted are
    closed with it: the client's read ends instead of waiting for bytes
    that will never come."""
    sim, net, sa, sb, a, b = make_pair()
    listener = sb.listen(9016)
    out = {}

    def client():
        conn = yield sa.connect(b, 9016)
        try:
            yield conn.recv_exact(1)
        except ConnectionError:
            out["read"] = "failed"

    done = sim.process(client())
    sim.run()
    (queued,) = listener._ready
    listener.close()
    sim.run(until=done, max_time=10)
    assert queued.closed and not listener._ready
    assert out == {"read": "failed"}
