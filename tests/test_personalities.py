"""Tests for the personality layer (Vio, SysWrap, Aio, FastMessage, virtual Madeleine)."""

import pytest

from tests.helpers import run

from repro.personalities import (
    AIO_INPROGRESS,
    AioControlBlock,
    AioError,
    AioPersonality,
    FastMessages,
    FMError,
    SocketError,
    SysWrap,
    Vio,
    VioError,
    VirtualMadeleine,
)
from repro.madeleine.message import MadeleineError, PackMode
from repro.simnet.buffers import Gather


# --------------------------------------------------------------------------
# Vio
# --------------------------------------------------------------------------


def test_vio_connect_send_recv(cluster):
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    vio0, vio1 = Vio(n0.vlink), Vio(n1.vlink)
    server = vio1.socket().bind(5100).listen()

    def scenario():
        accept_op = server.accept()
        client = vio0.socket()
        yield client.connect(n1.host, 5100)
        accepted = yield accept_op
        yield client.send(b"vio-hello")
        data = yield accepted.recv_exact(9)
        return client.connected, data, client.driver_name

    connected, data, driver = run(fw, scenario())
    assert connected and data == b"vio-hello"
    assert driver == "madio"  # SAN available: the selector picked the fast path
    assert vio0.open_sockets() >= 1


def test_a_closed_vio_socket_leaves_its_vio(cluster):
    fw, group = cluster
    vio = Vio(fw.node(group[0].name).vlink)
    vio.socket().close()
    assert vio.open_sockets() == 0
    listening = vio.socket().bind(5102).listen()
    assert vio.open_sockets() == 1
    listening.close()
    listening.close()
    assert vio.open_sockets() == 0


def test_vio_usage_errors(cluster):
    fw, group = cluster
    vio = Vio(fw.node(group[0].name).vlink)
    sock = vio.socket()
    with pytest.raises(VioError):
        sock.listen()  # listen before bind
    with pytest.raises(VioError):
        sock.accept()
    with pytest.raises(VioError):
        sock.send(b"x")  # not connected
    bound = vio.socket().bind(5101).listen()
    with pytest.raises(VioError):
        bound.connect(group[1], 5101)  # already listening


# --------------------------------------------------------------------------
# SysWrap
# --------------------------------------------------------------------------


def test_syswrap_bsd_style_exchange(cluster):
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    wrap0, wrap1 = SysWrap(n0.vlink), SysWrap(n1.vlink)
    server = wrap1.socket()
    server.bind((n1.host.name, 5200))
    server.listen()

    def scenario():
        accept_ev = server.accept()
        client = wrap0.socket()
        yield client.connect((n1.host.name, 5200))  # connect by *name*: resolution via topology
        child, peer_addr = yield accept_ev
        yield client.sendall(b"legacy-code-bytes")
        data = yield child.recv_exact(17)
        return data, peer_addr[0], client.fileno(), client.getpeername()[0]

    data, peer, fd, peername = run(fw, scenario())
    assert data == b"legacy-code-bytes"
    assert peer == n0.host.name
    assert isinstance(fd, int) and fd >= 3
    assert peername == n1.host.name


def test_socket_personalities_pass_a_gathered_read_through(cluster):
    """``recv_exact(n, gather=True)`` on Vio and SysWrap is ``VLink.read``'s:
    the written object when the read matches it, a gather when it spans."""
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    vio_server = Vio(n1.vlink).socket().bind(5150).listen()
    wrap_server = SysWrap(n1.vlink).socket()
    wrap_server.bind((n1.host.name, 5250))
    wrap_server.listen()
    payload = b"one written object"

    def scenario(accepting, client, connecting):
        yield connecting
        accepted = yield accepting
        accepted = accepted[0] if isinstance(accepted, tuple) else accepted
        client.send(payload)
        client.send(payload)
        client.send(payload)
        whole = yield accepted.recv_exact(len(payload), gather=True)
        spanning = yield accepted.recv_exact(len(payload) + 3, gather=True)
        flat = yield accepted.recv_exact(len(payload) - 3)
        return whole, spanning, flat

    vio_client = Vio(n0.vlink).socket()
    wrap_client = SysWrap(n0.vlink).socket()
    for accepting, client, connecting in (
        (vio_server.accept(), vio_client, vio_client.connect(n1.host, 5150)),
        (wrap_server.accept(), wrap_client, wrap_client.connect((n1.host.name, 5250))),
    ):
        whole, spanning, flat = run(fw, scenario(accepting, client, connecting))
        assert whole is payload
        assert type(spanning) is Gather and bytes(spanning) == payload + payload[:3]
        assert spanning.parts[0] is payload and spanning.parts[1].obj is payload
        assert type(flat) is bytes and flat == payload[3:]


def test_syswrap_forced_method_pins_driver(cluster):
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    wrap0 = SysWrap(n0.vlink, forced_method="sysio")
    wrap1 = SysWrap(n1.vlink)
    server = wrap1.socket()
    server.bind((n1.host.name, 5201))
    server.listen()

    def scenario():
        accept_ev = server.accept()
        client = wrap0.socket()
        yield client.connect((n1.host, 5201))
        yield accept_ev
        return client.driver_name

    assert run(fw, scenario()) == "sysio"


def test_syswrap_errors(cluster):
    fw, group = cluster
    wrap = SysWrap(fw.node(group[0].name).vlink)
    sock = wrap.socket()
    with pytest.raises(SocketError):
        sock.listen()
    with pytest.raises(SocketError):
        sock.recv(4)
    sock.close()
    assert sock.fd not in wrap.open_fds()


# --------------------------------------------------------------------------
# Aio
# --------------------------------------------------------------------------


def test_aio_read_write_cycle(cluster):
    fw, group = cluster
    n0, n1 = fw.node(group[0].name), fw.node(group[1].name)
    listener = n1.vlink_listen(5300)
    aio = AioPersonality(fw.sim)

    def scenario():
        accept_op = listener.accept()
        client = yield n0.vlink_connect(n1, 5300)
        server = yield accept_op
        wcb = AioControlBlock(client, buffer=b"aio-data")
        assert aio.aio_write(wcb) == 0
        rcb = AioControlBlock(server, nbytes=8)
        assert aio.aio_read(rcb) == 0
        assert aio.aio_error(rcb) == AIO_INPROGRESS
        yield aio.aio_suspend([rcb])
        assert aio.aio_error(rcb) == 0
        return aio.aio_return(rcb), rcb.data

    nbytes, data = run(fw, scenario())
    assert nbytes == 8 and data == b"aio-data"


def test_aio_usage_errors(cluster):
    fw, group = cluster
    aio = AioPersonality(fw.sim)
    with pytest.raises(AioError):
        aio.aio_suspend([])
    cb = AioControlBlock(link=None, nbytes=0)
    with pytest.raises(AioError):
        aio.aio_read(cb)
    with pytest.raises(AioError):
        aio.aio_error(cb)
    with pytest.raises(AioError):
        aio.aio_return(cb)


# --------------------------------------------------------------------------
# FastMessages
# --------------------------------------------------------------------------


def test_fastmessage_handlers_and_extract(cluster):
    fw, group = cluster
    fm0 = FastMessages(fw.node(group[0].name).circuit("fm", group))
    fm1 = FastMessages(fw.node(group[1].name).circuit("fm", group))
    got = []
    fm1.register_handler(3, lambda msg: got.append((msg.src, msg.receive(), msg.receive())))
    assert fm0.nodeid == 0 and fm1.numnodes == 2

    def scenario():
        stream = fm0.begin_message(1, handler_id=3)
        stream.send_piece(b"piece-1").send_piece(b"piece-2")
        yield stream.end()
        # give the message time to arrive, then extract
        yield fw.sim.timeout(1e-3)
        handled = fm1.extract()
        return handled

    handled = run(fw, scenario())
    assert handled == 1
    assert got == [(0, b"piece-1", b"piece-2")]
    assert fm1.pending() == 0


def test_fastmessage_missing_handler_raises(cluster):
    fw, group = cluster
    fm0 = FastMessages(fw.node(group[0].name).circuit("fm2", group))
    fm1 = FastMessages(fw.node(group[1].name).circuit("fm2", group))

    def scenario():
        yield fm0.send(1, 99, b"data")
        yield fw.sim.timeout(1e-3)
        try:
            fm1.extract()
        except FMError:
            return "no-handler"

    assert run(fw, scenario()) == "no-handler"


def test_fastmessage_stream_misuse(cluster):
    fw, group = cluster
    fm0 = FastMessages(fw.node(group[0].name).circuit("fm3", group))
    stream = fm0.begin_message(1, 1)
    stream.send_piece(b"x")
    stream.end()
    with pytest.raises(FMError):
        stream.send_piece(b"late")
    with pytest.raises(FMError):
        stream.end()
    with pytest.raises(FMError):
        fm0.register_handler(-1, lambda m: None)


# --------------------------------------------------------------------------
# Virtual Madeleine
# --------------------------------------------------------------------------


def test_virtual_madeleine_pack_unpack(cluster):
    fw, group = cluster
    vm0 = VirtualMadeleine(fw.node(group[0].name))
    vm1 = VirtualMadeleine(fw.node(group[1].name))
    ch0 = vm0.open_channel("vm", group)
    ch1 = vm1.open_channel("vm", group)
    assert ch0.rank == 0 and ch1.size == 2

    received = []

    def on_message(src, incoming, rx):
        hdr = incoming.unpack(PackMode.EXPRESS)
        bulk = incoming.unpack(PackMode.CHEAPER)
        incoming.end_unpacking()
        received.append((src, hdr, bulk, fw.sim.now))

    ch1.set_receive_callback(on_message)
    sent_at = fw.sim.now
    msg = ch0.begin_packing(1)
    msg.pack(b"header", PackMode.EXPRESS)
    msg.pack(b"bulk" * 20, PackMode.CHEAPER)
    ch0.end_packing(msg)
    fw.sim.run()
    ((src, hdr, bulk, at),) = received
    assert (src, hdr, bulk) == (0, b"header", b"bulk" * 20)
    # the callback runs once the bytes are ready, not at the send instant
    assert at > sent_at
    with pytest.raises(MadeleineError, match="loop back"):
        ch0.begin_packing(0)
    assert vm0.channels() == ["vm"]
