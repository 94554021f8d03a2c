"""The layer ladder: one two-node Myrinet-2000 deployment per rung.

Every rung drives a message through one more layer of the stack than the
rung below it, through that layer's public functions only, so the difference
between adjacent rungs is the layer's budget — in virtual time (what the
model charges a message) and in host time (what the simulator spends).  The
upper rungs are the transports of the paper's Table 1.

A rung offers two generator operations, run inside its own simulator:

* ``pingpong(payload)`` sends ``payload`` from node 0 to node 1 and back and
  returns the echoed bytes;
* ``one_way(payload)`` sends it from node 0 to node 1 and returns
  ``(seconds from send initiation to complete reception, received bytes)``.
"""

from __future__ import annotations

from repro.arbitration import MadIO, NetAccessCore
from repro.core import paper_cluster
from repro.madeleine import MadeleineDriver
from repro.simnet.engine import Simulator
from repro.simnet.host import Host, HostGroup
from repro.simnet.networks import Myrinet2000


class Rung:
    """Base: a point-to-point byte transport between two hosts."""

    def __init__(self, layer: str):
        self.layer = layer
        self.sim = None

    # what the counters are read from after a window
    def networks(self) -> list:
        raise NotImplementedError

    def nodes(self) -> list:
        """Booted framework nodes."""
        return []

    def cores(self) -> list:
        """NetAccess cores that belong to no booted node."""
        return []

    def connect(self):
        """Generator establishing whatever the rung needs before traffic."""
        return
        yield  # pragma: no cover - makes this a generator

    def pingpong(self, payload: bytes):
        raise NotImplementedError

    def one_way(self, payload: bytes):
        raise NotImplementedError


class _BareRung(Rung):
    """Rungs below the framework: two hosts on a bare Myrinet-2000.

    These layers are callback-driven; ``_to_b`` / ``_to_a`` hold what each
    side does with the next arrival, as ``fn(payload, ready_time)``."""

    def __init__(self, layer: str):
        super().__init__(layer)
        self.sim = Simulator()
        self.net = Myrinet2000(self.sim)
        self.a, self.b = Host(self.sim, "node0"), Host(self.sim, "node1")
        self.net.connect(self.a)
        self.net.connect(self.b)
        self.group = HostGroup("pair", [self.a, self.b])
        self._to_a = self._to_b = None

    def networks(self):
        return [self.net]

    def _send_a(self, payload: bytes) -> None:
        raise NotImplementedError

    def _send_b(self, payload: bytes) -> None:
        raise NotImplementedError

    def pingpong(self, payload: bytes):
        done = self.sim.event(name="echo")
        # the echo leaves once the receive-side software cost has elapsed
        self._to_b = lambda data, ready: self.sim.call_at(ready, self._send_b, data)
        self._to_a = lambda data, ready: done.succeed(data, delay=ready - self.sim.now)
        self._send_a(payload)
        echoed = yield done
        return echoed

    def one_way(self, payload: bytes):
        done = self.sim.event(name="arrival")
        self._to_b = lambda data, ready: done.succeed(data, delay=ready - self.sim.now)
        t0 = self.sim.now
        self._send_a(payload)
        data = yield done
        return self.sim.now - t0, data


class NetworkRung(_BareRung):
    """``Network.transmit`` with a receive handler on each NIC: the wire."""

    def __init__(self):
        super().__init__("simnet.network")
        self.net.nic_of(self.a).set_receive_handler(
            lambda d: self._to_a(d.payload, d.ready_time()), owner="perfbench"
        )
        self.net.nic_of(self.b).set_receive_handler(
            lambda d: self._to_b(d.payload, d.ready_time()), owner="perfbench"
        )

    def _send_a(self, payload):
        self.net.transmit(self.a, self.b, payload)

    def _send_b(self, payload):
        self.net.transmit(self.b, self.a, payload)


#: the 8-byte header the callback-style layers put in front of a body.
HEADER = b"perfhdr!"


class MadeleineRung(_BareRung):
    """A raw Madeleine hardware channel: express header, cheaper body."""

    def __init__(self):
        super().__init__("madeleine")
        self.ch_a = MadeleineDriver(self.a).open_channel("bench", self.net, self.group)
        self.ch_b = MadeleineDriver(self.b).open_channel("bench", self.net, self.group)
        self.ch_a.set_receive_callback(lambda inc, d: self._to_a(self._body(inc), d.ready_time()))
        self.ch_b.set_receive_callback(lambda inc, d: self._to_b(self._body(inc), d.ready_time()))

    @staticmethod
    def _body(incoming):
        incoming.unpack()  # the header
        return incoming.unpack()

    def _send_a(self, payload):
        self.ch_a.send(1, HEADER, payload)

    def _send_b(self, payload):
        self.ch_b.send(0, HEADER, payload)


class MadIORung(_BareRung):
    """A MadIO logical channel, header combining on (the default): the same
    (header, body) message as :class:`MadeleineRung`, multiplexed."""

    def __init__(self):
        super().__init__("arbitration.madio")
        self._cores = [NetAccessCore(self.a), NetAccessCore(self.b)]
        ma, mb = (MadIO(core) for core in self._cores)
        ma.attach(self.net, self.group)
        mb.attach(self.net, self.group)
        self.ch_a = ma.open_logical_channel("bench", self.net)
        self.ch_b = mb.open_logical_channel("bench", self.net)
        self.ch_a.set_receive_callback(lambda s, h, body, d: self._to_a(body, d.ready_time()))
        self.ch_b.set_receive_callback(lambda s, h, body, d: self._to_b(body, d.ready_time()))

    def cores(self):
        return self._cores

    def _send_a(self, payload):
        self.ch_a.send(1, HEADER, payload)

    def _send_b(self, payload):
        self.ch_b.send(0, HEADER, payload)


class _FrameworkRung(Rung):
    """Rungs inside the framework: the paper's booted two-node cluster."""

    def __init__(self, layer: str):
        super().__init__(layer)
        self.fw, self.group = paper_cluster(2)
        self.sim = self.fw.sim
        self.node0 = self.fw.node(self.group[0].name)
        self.node1 = self.fw.node(self.group[1].name)

    def networks(self):
        return self.fw.networks()

    def nodes(self):
        return self.fw.nodes()


class CircuitRung(_FrameworkRung):
    """The parallel abstract interface (Table 1 "Circuit")."""

    def __init__(self):
        super().__init__("abstraction.circuit")
        self.c0 = self.node0.circuit("bench", self.group)
        self.c1 = self.node1.circuit("bench", self.group)

    def pingpong(self, payload):
        self.c0.send(1, payload)
        src, incoming = yield self.c1.recv()
        self.c1.send(src, incoming.unpack())
        _src, echoed = yield self.c0.recv()
        return echoed.unpack()

    def one_way(self, payload):
        t0 = self.sim.now
        self.c0.send(1, payload)
        _src, incoming = yield self.c1.recv()
        return self.sim.now - t0, incoming.unpack()


class VLinkRung(_FrameworkRung):
    """The distributed abstract interface (Table 1 "VLink")."""

    PORT = 4100

    def __init__(self):
        super().__init__("abstraction.vlink")
        self.client = self.server = None

    def connect(self):
        accepting = self.node1.vlink_listen(self.PORT).accept()
        self.client = yield self.node0.vlink_connect(self.node1, self.PORT)
        self.server = yield accepting

    def pingpong(self, payload):
        self.client.write(payload)
        data = yield self.server.read(len(payload))
        self.server.write(data)
        echoed = yield self.client.read(len(payload))
        return echoed

    def one_way(self, payload):
        t0 = self.sim.now
        self.client.write(payload)
        data = yield self.server.read(len(payload))
        return self.sim.now - t0, data


class MpiRung(_FrameworkRung):
    """MPICH-1.2.5, inside the framework (over the virtual Madeleine
    personality) or standalone (bound straight to a raw Madeleine channel)."""

    def __init__(self, standalone: bool = False):
        super().__init__("middleware.mpi_standalone" if standalone else "middleware.mpi")
        from repro.middleware.mpi import MPICH_1_2_5, MpiRuntime, standalone_mpi_pair

        if standalone:
            san = next(n for n in self.group[0].networks() if n.is_parallel)
            r0, r1 = standalone_mpi_pair(san, self.group, profile=MPICH_1_2_5)
        else:
            r0, r1 = (
                MpiRuntime(node, self.group, profile=MPICH_1_2_5, channel_name="bench")
                for node in (self.node0, self.node1)
            )
        self.comm0, self.comm1 = r0.comm_world, r1.comm_world

    def pingpong(self, payload):
        self.comm0.isend(payload, 1, tag=7)
        data = yield self.comm1.irecv(0, 7).wait()
        self.comm1.isend(data, 0, tag=8)
        echoed = yield self.comm0.irecv(1, 8).wait()
        return echoed

    def one_way(self, payload):
        t0 = self.sim.now
        self.comm0.isend(payload, 1, tag=9)
        data = yield self.comm1.irecv(0, 9).wait()
        return self.sim.now - t0, data


class CorbaRung(_FrameworkRung):
    """A CORBA ORB profile invoking an echo servant through GIOP."""

    def __init__(self, profile_name: str = "OMNIORB_4", layer: str = "middleware.corba"):
        super().__init__(layer)
        from repro.middleware import corba

        interface = corba.Interface(
            "IDL:perfbench/Echo:1.0",
            [
                corba.Operation(
                    "ping", params=(("data", corba.TC_OCTET_SEQ),), result=corba.TC_OCTET_SEQ
                ),
                corba.Operation(
                    "transfer", params=(("data", corba.TC_OCTET_SEQ),), result=corba.TC_DOUBLE
                ),
            ],
        )
        rung = self

        class EchoServant(corba.Servant):
            def ping(self, data):
                return data

            def transfer(self, data):
                rung.arrived = (rung.sim.now, data)
                return float(rung.sim.now)

        profile = getattr(corba, profile_name)
        # explicit ports: the ORB's default allocator is process-wide, and
        # every batch must be the same deployment
        server = corba.ORB(self.node1, profile, port=14000)
        client = corba.ORB(self.node0, profile, port=14001)
        reference = server.activate_object(EchoServant(), interface, key="echo")
        self.proxy = client.object_to_proxy(reference, interface)
        self.arrived = None

    def connect(self):
        yield from self.proxy.invoke("ping", b"x")  # opens the GIOP connection

    def pingpong(self, payload):
        echoed = yield from self.proxy.invoke("ping", payload)
        return echoed

    def one_way(self, payload):
        t0 = self.sim.now
        yield from self.proxy.invoke("transfer", payload)
        at, data = self.arrived
        return at - t0, data


class JavaSocketRung(_FrameworkRung):
    """Java sockets (the Kaffe JVM socket layer over SysWrap)."""

    PORT = 4600

    def __init__(self):
        super().__init__("middleware.javasockets")
        from repro.middleware.javasockets import JavaSocketLayer

        self.layer0, self.layer1 = JavaSocketLayer(self.node0), JavaSocketLayer(self.node1)
        self.client = self.server = None

    def connect(self):
        accepting = self.sim.process(self.layer1.server_socket(self.PORT).accept())
        self.client = self.layer0.socket()
        yield from self.client.connect(self.node1.host, self.PORT)
        self.server = yield accepting

    def pingpong(self, payload):
        yield from self.client.write(payload)
        data = yield from self.server.read(len(payload))
        yield from self.server.write(data)
        echoed = yield from self.client.read(len(payload))
        return echoed

    def one_way(self, payload):
        t0 = self.sim.now
        yield from self.client.write(payload)
        data = yield from self.server.read(len(payload))
        return self.sim.now - t0, data


#: bottom to top; the ladder's per-layer metrics use the ``layer`` names.
#: The three extra ORB profiles are Table 1 rows, not ladder rungs.
RUNGS = (
    NetworkRung,
    MadeleineRung,
    MadIORung,
    CircuitRung,
    VLinkRung,
    MpiRung,
    lambda: MpiRung(standalone=True),
    CorbaRung,
    lambda: CorbaRung("OMNIORB_3", "middleware.corba.omniorb3"),
    lambda: CorbaRung("MICO_2_3_7", "middleware.corba.mico"),
    lambda: CorbaRung("ORBACUS_4_0_5", "middleware.corba.orbacus"),
    JavaSocketRung,
)

#: rungs that get ``<layer>.*`` ladder metrics in BENCHMARK.json.
LADDER = (
    "simnet.network",
    "madeleine",
    "arbitration.madio",
    "abstraction.circuit",
    "abstraction.vlink",
    "middleware.mpi",
    "middleware.mpi_standalone",
    "middleware.corba",
    "middleware.javasockets",
)

#: the paper's Table 1 (plus the two ORBs quoted in the §5 text):
#: layer -> (one-way latency in us, maximum bandwidth in MB/s).
TABLE1 = {
    "abstraction.circuit": (8.4, 240.0),
    "abstraction.vlink": (10.2, 239.0),
    "middleware.mpi": (12.06, 238.7),
    "middleware.corba.omniorb3": (20.3, 238.4),
    "middleware.corba": (18.4, 235.8),
    "middleware.javasockets": (40.0, 237.9),
    "middleware.corba.mico": (63.0, 55.0),
    "middleware.corba.orbacus": (54.0, 63.0),
}
