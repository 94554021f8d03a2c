"""Link probes: passive traffic observers and active ping processes.

Two complementary observation channels feed the estimators:

* :class:`PassiveLinkProbe` — sits in the network's ``probe`` slot, one per
  link; the transmit paths call it directly and it converts every real
  frame crossing the wire into latency/bandwidth samples, and every
  datagram loss or blackholed frame into a loss sample.  Free (no traffic
  of its own) but blind when the link is idle.  The flight recorder does
  not share this channel: the network emits ``link.*`` events to
  ``sim.telemetry`` on its own, so recording feeds nothing to the model.
* :class:`ActivePingProbe` — a fixed-rate simulator process
  (:class:`repro.simnet.engine.PeriodicTask`) emulating a tiny echo probe
  between two hosts of the network: each tick it draws the probe's fate
  from its own *seeded* generator against the link's current physical
  parameters.  Catches silent degradation and death on idle links, and a
  run of lost probes is the failure-detector signal.

TCP's internal loss model never drops frames (the window model absorbs the
loss and retransmits), so TCP losses reach the passive probe through
:meth:`PassiveLinkProbe.burst`, called per congestion-window burst with the
burst's packet count and loss draw; the probe turns it into a per-burst
loss *fraction* sample.  The matching TCP data frame skips the implicit
zero-loss update (``count_loss=False``) so the rate is not halved.  Active
probes remain the only failure-detection signal and the only observation
channel on idle links.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.simnet.host import Host
from repro.simnet.network import Frame, Network
from repro.monitoring.estimators import LinkSample


class PassiveLinkProbe:
    """Per-link observer recording achieved metrics from real traffic.

    A link has at most one: the probe takes the network's ``probe`` slot,
    and :meth:`detach` frees it."""

    def __init__(self, network: Network, on_sample: Callable[[LinkSample], None]):
        if network.probe is not None:
            raise ValueError(f"network {network.name!r} already has a passive probe")
        self.network = network
        self.on_sample = on_sample
        self.frames = 0
        self.losses = 0
        network.probe = self

    def frame(self, frame: Frame) -> None:
        """A frame was put on the wire and will arrive."""
        network = self.network
        meta = frame.meta
        tx_begin = meta["tx_begin"]
        tx_end = meta["tx_end"]
        bandwidth = None
        if tx_end > tx_begin:
            bandwidth = network.wire_bytes(frame.nbytes) / (tx_end - tx_begin)
        self.frames += 1
        self.on_sample(
            LinkSample(
                at=network.sim.now,
                kind="frame",
                latency=meta["arrival"] - tx_end,
                bandwidth=bandwidth,
                nbytes=frame.nbytes,
                # a TCP data frame's loss verdict arrives with its burst's
                # report; counting the frame as a zero-loss sample too would
                # halve the measured rate
                count_loss=not meta.get("tcp_data"),
            )
        )

    def burst(self, npkts: int, lost_pkts: int, nbytes: int, bursts: int = 1,
              latency: Optional[float] = None, bandwidth: Optional[float] = None) -> None:
        """A TCP congestion-window burst of ``npkts`` packets, ``lost_pkts``
        of them lost to the window model's draw.

        A fluid-mode flow batches ``bursts`` zero-loss bursts into one
        report (the weight keeps estimator sample counts equal to the
        packet run) and passes the ``latency`` / ``bandwidth`` their frames
        would have measured: those bursts ride no real frames, so the probe
        synthesizes the frame samples too (a stable flow's frames observe
        the link's nominal parameters exactly; see :meth:`frame`)."""
        if npkts <= 0:
            return
        if lost_pkts:
            self.losses += 1
        now = self.network.sim.now
        self.on_sample(
            LinkSample(
                at=now,
                kind="tcp",
                nbytes=nbytes,
                loss_fraction=lost_pkts / npkts,
                bursts=bursts,
            )
        )
        if latency is not None:
            self.frames += bursts
            self.on_sample(
                LinkSample(
                    at=now,
                    kind="frame",
                    latency=latency,
                    bandwidth=bandwidth,
                    nbytes=nbytes,
                    count_loss=False,
                    bursts=bursts,
                )
            )

    def loss(self, nbytes: int) -> None:
        """``nbytes`` vanished: a lost datagram or a blackholed frame."""
        self.losses += 1
        self.on_sample(
            LinkSample(at=self.network.sim.now, kind="frame", nbytes=nbytes, lost=True)
        )

    def detach(self) -> None:
        if self.network.probe is self:
            self.network.probe = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PassiveLinkProbe {self.network.name} frames={self.frames} losses={self.losses}>"


class ActivePingProbe:
    """Seeded periodic ping across one network, run as a simulator process.

    Models a minimal echo probe between two attached hosts without pushing
    frames through the full protocol stack: each tick the probe's fate is
    drawn against the link's *current* physical loss rate (seeded generator,
    fully reproducible), and on success the achieved round-trip derives from
    the current latency/bandwidth — so churn-mutated parameters become
    visible even on otherwise idle links.  A probe across a down wire or a
    dead endpoint is always lost.
    """

    def __init__(
        self,
        network: Network,
        on_sample: Callable[[LinkSample], None],
        *,
        interval: float = 0.05,
        payload: int = 64,
        seed: int = 0x9806,
        src: Optional[Host] = None,
        dst: Optional[Host] = None,
    ):
        self.network = network
        self.sim = network.sim
        self.on_sample = on_sample
        self.interval = interval
        self.payload = payload
        self.rng = random.Random(seed)
        # explicit endpoints make this a *pair* probe; the default watches
        # the wire itself: any two live attached hosts can still exchange
        # probes, so one dead member must not read as a dead network.
        self.src = src
        self.dst = dst
        self.sent = 0
        self.lost = 0
        self._task = self.sim.every(interval, self._tick)

    def _tick(self) -> None:
        network = self.network
        self.sent += 1
        if self.src is not None and self.dst is not None:
            alive = network.link_alive(self.src, self.dst)
        else:
            # are two attached hosts up?  (asked on every tick: no copies of
            # the membership, and the count stops at the second)
            live = 0
            if network.up:
                for host in network.nics:
                    if host.up:
                        live += 1
                        if live == 2:
                            break
            alive = live == 2
        # two one-way crossings; each MTU-sized leg faces the loss rate once
        dropped = not alive or (
            network.loss_rate > 0.0
            and (
                self.rng.random() < network.loss_rate
                or self.rng.random() < network.loss_rate
            )
        )
        if dropped:
            self.lost += 1
            self.on_sample(LinkSample(at=self.sim.now, kind="ping", lost=True))
            return
        one_way = network.latency + network.serialization_time(self.payload)
        self.on_sample(
            LinkSample(
                at=self.sim.now,
                kind="ping",
                latency=one_way,
                bandwidth=network.bandwidth,
                nbytes=self.payload,
            )
        )

    def cancel(self) -> None:
        self._task.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ActivePingProbe {self.network.name} every {self.interval * 1e3:.0f}ms "
            f"sent={self.sent} lost={self.lost}>"
        )
