"""Tests for the alternate communication methods (parallel streams, AdOC, VRP, GSI)."""

import gc
import hashlib
import weakref

import pytest

from tests.helpers import run

from repro.methods import (
    AdocCodec,
    ParallelStreamsVLinkDriver,
    SecureVLinkDriver,
    SiteCredential,
    VrpVLinkDriver,
    register_method_drivers,
)
from repro.methods.security import SecurityError, _cipher


def wan_with_methods(streams=4, vrp_tolerance=0.10):
    from repro.core import paper_wan_pair

    fw, group = paper_wan_pair()
    for host in group:
        register_method_drivers(fw.node(host.name), streams=streams, vrp_tolerance=vrp_tolerance)
    return fw, group


def lossy_with_methods(vrp_tolerance=0.10, loss_rate=0.07):
    from repro.core import paper_lossy_pair

    fw, group = paper_lossy_pair(loss_rate=loss_rate)
    for host in group:
        register_method_drivers(fw.node(host.name), vrp_tolerance=vrp_tolerance)
    return fw, group


def connect_via(fw, group, method, port):
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    listener = n1.vlink_listen(port)

    def _connect():
        accept_op = listener.accept()
        client = yield n0.vlink_connect(n1, port, method=method)
        server = yield accept_op
        return client, server

    return run(fw, _connect(), max_time=300)


def bulk_bandwidth(fw, client, server, total, chunk=256 * 1024, max_time=600.0):
    def _bench():
        t0 = fw.sim.now
        sent = 0
        while sent < total:
            n = min(chunk, total - sent)
            client.write(b"x" * n)
            sent += n
        data = yield server.read(total)
        assert len(data) == total
        return total / (fw.sim.now - t0)

    return run(fw, _bench(), max_time=max_time)


def test_register_method_drivers(cluster):
    fw, group = cluster
    register_method_drivers(fw.node(group[0].name))
    names = fw.node(group[0].name).vlink.driver_names()
    assert {"parallel_streams", "adoc", "vrp", "gsi"}.issubset(set(names))


# --------------------------------------------------------------------------
# Parallel streams
# --------------------------------------------------------------------------


def test_parallel_streams_preserve_stream_content():
    fw, group = wan_with_methods(streams=3)
    client, server = connect_via(fw, group, "parallel_streams", 8100)
    payload = bytes(range(256)) * 64

    def scenario():
        client.write(payload)
        client.write(b"tail")
        data = yield server.read(len(payload) + 4)
        return data

    assert run(fw, scenario(), max_time=300) == payload + b"tail"


def test_parallel_streams_beat_single_stream_on_wan():
    """§5: VTHD goes from ~9 MB/s (one stream) to ~12 MB/s with parallel streams."""
    fw, group = wan_with_methods(streams=4)
    single_client, single_server = connect_via(fw, group, "sysio", 8200)
    bw_single = bulk_bandwidth(fw, single_client, single_server, 8_000_000)

    fw2, group2 = wan_with_methods(streams=4)
    multi_client, multi_server = connect_via(fw2, group2, "parallel_streams", 8201)
    bw_multi = bulk_bandwidth(fw2, multi_client, multi_server, 8_000_000)

    assert bw_multi > bw_single * 1.1
    assert bw_multi / 1e6 < 12.6  # still capped by the Ethernet-100 access link


def test_parallel_streams_forget_a_session_once_its_members_attached():
    fw, group = wan_with_methods(streams=3)

    def exchange():
        client, server = connect_via(fw, group, "parallel_streams", 8150)

        def scenario():
            client.write(b"ping")
            data = yield server.read(4)
            return data

        assert run(fw, scenario()) == b"ping"
        client.close()
        server.close()
        fw.sim.run()
        return weakref.ref(server.conn)

    server_conn = exchange()
    gc.collect()
    assert server_conn() is None


@pytest.mark.parametrize("method", ["sysio", "parallel_streams"])
def test_a_read_after_the_peer_closed_the_link_fails(method):
    """Once the peer closed a parallel-streams link, its members' FINs
    close the link's read side after the slices already read off them:
    what was written before the close is still read, and a read posted
    after it fails with ``ConnectionError``, as over SysIO."""
    fw, group = wan_with_methods(streams=3)
    client, server = connect_via(fw, group, method, 8160)

    def scenario():
        yield client.write(b"last words")
        client.close()
        yield fw.sim.timeout(1.0)  # every FIN reached the server
        data = yield server.read(10)
        try:
            yield server.read(1)
        except ConnectionError:
            return data
        return "read completed"

    assert run(fw, scenario()) == b"last words"


def test_a_parallel_streams_link_closes_its_reads_after_the_slices_in_reassembly():
    """Members that close while slices read off them wait for reassembly
    leave the link readable until those slices are in its buffer (one
    member, so that its slice is the whole record)."""
    fw, group = wan_with_methods(streams=1)
    client, server = connect_via(fw, group, "parallel_streams", 8170)
    conn = server.conn
    client.write(b"in flight")
    while not conn._reassembling:
        assert fw.sim.step()
    for member in conn.members:
        member.close()
    assert not conn.buffer.closed

    def scenario():
        data = yield server.read(9)
        try:
            yield server.read(1)
        except ConnectionError:
            return data, conn.buffer.closed
        return "read completed"

    assert run(fw, scenario()) == (b"in flight", True)


def test_parallel_streams_driver_validation(cluster):
    fw, group = cluster
    with pytest.raises(ValueError):
        ParallelStreamsVLinkDriver(fw.node(group[0].name).sysio, streams=0)


# --------------------------------------------------------------------------
# AdOC adaptive compression
# --------------------------------------------------------------------------


def test_adoc_codec_adaptivity():
    codec = AdocCodec()
    compressible = b"the same text repeated " * 200
    import os

    incompressible = os.urandom(4096)
    assert codec.should_compress(compressible)
    assert not codec.should_compress(incompressible)
    flags, wire, cpu = codec.encode(compressible)
    assert flags == 1 and len(wire) < len(compressible) and cpu > 0
    block, _ = codec.decode(flags, wire, len(compressible))
    assert block == compressible
    flags2, wire2, _ = codec.encode(incompressible)
    assert flags2 == 0 and wire2 == incompressible


def test_adoc_transfers_data_and_tracks_ratio():
    fw, group = wan_with_methods()
    client, server = connect_via(fw, group, "adoc", 8300)
    payload = b"ABCD" * 50_000  # highly compressible

    def scenario():
        client.write(payload)
        data = yield server.read(len(payload))
        return data

    assert run(fw, scenario(), max_time=300) == payload
    assert client.conn.compression_ratio < 0.2
    assert client.conn.blocks_compressed == client.conn.blocks_sent == 1


def test_adoc_speeds_up_compressible_transfers_on_slow_links():
    total = 2_000_000
    fw, group = lossy_with_methods(loss_rate=0.0)
    plain_client, plain_server = connect_via(fw, group, "sysio", 8400)
    bw_plain = bulk_bandwidth(fw, plain_client, plain_server, total, max_time=1200)

    fw2, group2 = lossy_with_methods(loss_rate=0.0)
    adoc_client, adoc_server = connect_via(fw2, group2, "adoc", 8401)

    def _bench():
        t0 = fw2.sim.now
        adoc_client.write(b"Z" * total)  # maximally compressible
        data = yield adoc_server.read(total)
        assert data == b"Z" * total
        return total / (fw2.sim.now - t0)

    bw_adoc = run(fw2, _bench(), max_time=1200)
    assert bw_adoc > bw_plain * 2


# --------------------------------------------------------------------------
# VRP
# --------------------------------------------------------------------------


def test_vrp_driver_validation(cluster):
    fw, group = cluster
    with pytest.raises(ValueError):
        VrpVLinkDriver(fw.node(group[0].name).sysio, tolerance=1.5)


def test_vrp_delivers_full_length_with_bounded_losses():
    fw, group = lossy_with_methods(vrp_tolerance=0.10)
    client, server = connect_via(fw, group, "vrp", 8500)
    total = 400_000

    def scenario():
        client.write(b"v" * total)
        data = yield server.read(total)
        return data

    data = run(fw, scenario(), max_time=1200)
    assert len(data) == total
    stats = server.conn.stats
    intact = data.count(b"v")
    assert intact >= total * 0.90           # at most the tolerated 10 % missing
    assert stats.bytes_zero_filled <= total * 0.10 + 1500


def test_vrp_much_faster_than_tcp_on_lossy_link():
    """§5: TCP ≈ 150 KB/s, VRP(10 %) ≈ 500 KB/s — about 3x."""
    total = 1_000_000
    fw, group = lossy_with_methods()
    tcp_client, tcp_server = connect_via(fw, group, "sysio", 8600)
    bw_tcp = bulk_bandwidth(fw, tcp_client, tcp_server, total, max_time=3600)

    fw2, group2 = lossy_with_methods()
    vrp_client, vrp_server = connect_via(fw2, group2, "vrp", 8601)

    def _bench():
        t0 = fw2.sim.now
        vrp_client.write(b"x" * total)
        data = yield vrp_server.read(total)
        assert len(data) == total
        return total / (fw2.sim.now - t0)

    bw_vrp = run(fw2, _bench(), max_time=3600)
    assert bw_vrp > 2.0 * bw_tcp
    assert 300e3 < bw_vrp < 700e3  # around the paper's 500 KB/s
    assert 80e3 < bw_tcp < 260e3   # around the paper's 150 KB/s


def test_vrp_zero_tolerance_retransmits_to_full_reliability():
    fw, group = lossy_with_methods(vrp_tolerance=0.0)
    client, server = connect_via(fw, group, "vrp", 8700)
    total = 100_000

    def scenario():
        client.write(b"R" * total)
        data = yield server.read(total)
        return data

    data = run(fw, scenario(), max_time=3600)
    assert data == b"R" * total
    assert server.conn.stats.bytes_zero_filled == 0
    assert client.conn.stats.retransmissions >= 1 and client.conn.stats.records == 1


# --------------------------------------------------------------------------
# GSI-style security
# --------------------------------------------------------------------------


def test_secure_driver_roundtrip_and_confidentiality():
    fw, group = wan_with_methods()
    client, server = connect_via(fw, group, "gsi", 8800)
    secret = b"confidential-simulation-state" * 10

    def scenario():
        client.write(secret)
        data = yield server.read(len(secret))
        return data

    assert run(fw, scenario(), max_time=600) == secret
    # the bytes on the wire are not the plaintext (spot-check the TCP stacks)
    wire_bytes = sum(c.bytes_sent for c in [client.conn.sock.conn])
    assert wire_bytes >= len(secret)


def test_a_gsi_connect_with_an_unknown_ca_fails_with_a_security_error():
    """Replaces ``test_secure_driver_rejects_unknown_ca``, which also passed
    when the connect never completed: the server closes the socket of a
    client whose credential another CA signed, and the connect fails."""
    fw, group = wan_with_methods()
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    # replace node0's credential with one signed by a different CA
    rogue = SecureVLinkDriver(n0.sysio, credential=SiteCredential(n0.host.site, secret=b"rogue-ca"))
    n0.vlink._drivers["gsi"] = rogue
    listener = n1.vlink_listen(8900)

    def scenario():
        listener.accept()
        with pytest.raises(SecurityError):
            yield n0.vlink_connect(n1, 8900, method="gsi")
        return fw.sim.now

    assert run(fw, scenario(), max_time=10) < 1.0


def _reference_cipher(key: bytes, data: bytes) -> bytes:
    """The keystream loop and per-byte generator XOR the driver replaced."""
    stream = bytearray()
    while len(stream) < len(data):
        stream += hashlib.sha256(key + (len(stream) // 32).to_bytes(8, "big")).digest()
    return bytes(a ^ b for a, b in zip(data, stream))


@pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 4096])
def test_the_gsi_cipher_is_the_per_byte_xor(length):
    key = hashlib.sha256(b"session").digest()
    data = bytes((7 * i + 3) % 256 for i in range(length))
    assert _cipher(key, data) == _reference_cipher(key, data)
    assert _cipher(key, _cipher(key, data)) == data


def test_site_credentials():
    cred = SiteCredential("rennes")
    assert cred.verify("rennes", cred.token())
    assert not cred.verify("grenoble", cred.token())
    other_ca = SiteCredential("rennes", secret=b"other")
    assert not cred.verify("rennes", other_ca.token())
