"""Link probes: passive traffic observers and active ping processes.

Two complementary observation channels feed the estimators:

* :class:`PassiveLinkProbe` — sits in the network's ``probe`` slot, one per
  link; the transmit paths call it directly and it converts every real
  frame crossing the wire into latency/bandwidth samples, and every
  datagram loss or blackholed frame into a loss sample.  Free (no traffic
  of its own) but blind when the link is idle.  The flight recorder does
  not share this channel: the network emits ``link.*`` events to
  ``sim.telemetry`` on its own, so recording feeds nothing to the model.
* :class:`ActivePingProbe` — a fixed-rate tick emulating a tiny echo probe
  between two hosts of the network: each tick draws the probe's fate from
  its own *seeded* generator against the link's physical parameters.
  Catches silent degradation and death on idle links, and a run of lost
  probes is the failure-detector signal.  A tick costs an engine event only
  when its outcome is observable; the others are folded in as arithmetic,
  so every change to the link must be announced (:meth:`Network.changed`).

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

import itertools
import math
import random
from collections import deque
from typing import Callable, Deque, Optional

from repro.simnet.host import Host
from repro.simnet.network import Frame, Network
from repro.monitoring.estimators import LinkSample

#: most ticks an active probe folds per wake-up on a quiet link: bounds the
#: uniforms it draws ahead (twice this) and the planning done per wake-up.
LOOKAHEAD = 64


class PassiveLinkProbe:
    """Per-link observer recording achieved metrics from real traffic.

    A link has at most one: the probe takes the network's ``probe`` slot,
    and :meth:`detach` frees it.  Through the slot it also hears of every
    parameter or endpoint change (:meth:`changed`), which it passes to
    ``on_change`` when its owner set one."""

    def __init__(self, network: Network, on_sample: Callable[[LinkSample], None]):
        if network.probe is not None:
            raise ValueError(f"network {network.name!r} already has a passive probe")
        self.network = network
        self.on_sample = on_sample
        self.on_change: Optional[Callable[[], None]] = None
        self.frames = 0
        self.losses = 0
        network.probe = self

    def changed(self) -> None:
        """The link's parameters or an endpoint's state changed."""
        if self.on_change is not None:
            self.on_change()

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
    """Seeded periodic ping across one network, folded in when observable.

    Models a minimal echo probe between two attached hosts without pushing
    frames through the full protocol stack: every ``interval`` a tick draws
    the probe's fate against the link's loss rate (seeded generator, fully
    reproducible), and on success the achieved one-way time derives from the
    latency/bandwidth — so churn-mutated parameters become visible even on
    otherwise idle links.  A probe across a down wire or a dead endpoint is
    always lost.

    Ticks are not timers.  The probe keeps one, at the next tick whose
    outcome is observable: the next lost probe, the first tick
    ``quiet_ticks`` does not vouch for, or :data:`LOOKAHEAD` ticks ahead —
    on a partitioned kernel no later than the first tick past the executing
    window, so windows open where a timer per tick would open them.  The
    ticks up to it are *folded* when the probe wakes, or earlier through
    :meth:`advance`: the same draws at the same instants (``t += interval``,
    as ``call_later`` accumulates) as a timer per tick.  A tick's uniforms do
    not depend on the loss rate, only how many it consumes does (none while
    the link is dead or lossless, one on a first-leg loss, two otherwise),
    so they are drawn ahead into a buffer.  Folded ticks read the link as it
    was at the last plan: whoever changes it calls :meth:`Network.changed`,
    and the owner folds the ticks due by then and plans again.

    The owner's hooks: ``quiet_ticks(sample, limit)`` — how many of the next
    ``limit`` ticks, all successful with ``sample``'s values, change nothing
    observable (0 by default: a standalone probe keeps a timer per tick and
    hands each tick to ``on_sample``); ``on_run(sample, n)``, when set, takes
    ``n`` successful ticks ending at ``sample.at`` in one call.

    At one instant ticks come first: a tick at ``t`` folds before a passive
    sample observed at ``t``, a change made at ``t`` and a read at ``t``.
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
        # the partition the probe's timer lives in: where it was built
        self.partition = self.sim.current_partition
        self.on_sample = on_sample
        self.on_run: Optional[Callable[[LinkSample, int], None]] = None
        self.quiet_ticks: Callable[[LinkSample, int], int] = _every_tick_observable
        self.interval = interval
        self.payload = payload
        self.rng = random.Random(seed)
        # explicit endpoints make this a *pair* probe; the default watches
        # the wire itself: any two live attached hosts can still exchange
        # probes, so one dead member must not read as a dead network.
        self.src = src
        self.dst = dst
        self._sent = 0
        self._lost = 0
        self._draws: Deque[float] = deque()   # rng.random() values drawn ahead
        self._params = None                   # what the folded ticks read
        self._reach = LOOKAHEAD               # how far the next plan looks
        self._handle = self.sim.call_later(interval, self._wake)
        self._at = self._handle.when          # the next tick not folded yet

    @property
    def sent(self) -> int:
        self.advance(self.sim.now)
        return self._sent

    @property
    def lost(self) -> int:
        self.advance(self.sim.now)
        return self._lost

    def _read(self) -> tuple:
        """``(alive, loss_rate, one_way, bandwidth)`` of the link now."""
        network = self.network
        if self.src is not None and self.dst is not None:
            alive = network.link_alive(self.src, self.dst)
        else:
            # are two attached hosts up?  (no copies of the membership, and
            # the count stops at the second)
            live = 0
            if network.up:
                for host in network.nics:
                    if host.up:
                        live += 1
                        if live == 2:
                            break
            alive = live == 2
        one_way = network.latency + network.serialization_time(self.payload)
        return alive, network.loss_rate, one_way, network.bandwidth

    def _draw_ahead(self, count: int) -> None:
        random_ = self.rng.random
        self._draws.extend([random_() for _ in range(count - len(self._draws))])

    def advance(self, until: float, emit: Optional[Callable[[LinkSample], None]] = None) -> bool:
        """Fold every tick due at or before ``until``; True if any was.

        A tick goes to ``emit`` when given, else a run of successful ticks
        to ``on_run`` (when set) and every other tick to ``on_sample``."""
        at = self._at
        if at > until:
            return False
        alive, loss_rate, one_way, bandwidth = self._params or self._read()
        run_to = self.on_run if emit is None else None
        emit = emit or self.on_sample
        interval = self.interval
        draws = self._draws
        draw = draws.popleft
        run = 0
        last = at
        while at <= until:
            if len(draws) < 2:
                self._draw_ahead(2 * LOOKAHEAD)
            # two one-way crossings; each MTU-sized leg faces the loss rate
            # once
            dropped = not alive or (
                loss_rate > 0.0 and (draw() < loss_rate or draw() < loss_rate)
            )
            # the probe's state is committed before a callback runs: what it
            # sets off may come back through advance()
            self._sent += 1
            self._at = at + interval
            if dropped:
                if run:
                    run_to(self._sample(last, one_way, bandwidth), run)
                    run = 0
                self._lost += 1
                emit(LinkSample(at=at, kind="ping", lost=True))
            elif run_to is not None:
                run += 1
                last = at
            else:
                emit(self._sample(at, one_way, bandwidth))
            at = self._at
        if run:
            run_to(self._sample(last, one_way, bandwidth), run)
        return True

    def _sample(self, at: float, one_way: float, bandwidth: float) -> LinkSample:
        return LinkSample(
            at=at, kind="ping", latency=one_way, bandwidth=bandwidth, nbytes=self.payload
        )

    def _wake(self) -> None:
        # at its own timer the probe reads the link live: every change since
        # the last plan was reported (and re-planned) before now, so live is
        # what it planned with; a standalone probe, which nobody tells of
        # changes, reads each tick as it falls due
        self._params = self._read()
        self.advance(self.sim.now)
        self._plan()

    def replan(self) -> None:
        """Read the link, and keep the one timer at the next tick whose
        outcome is observable."""
        self._params = self._read()
        self._plan()

    def _plan(self) -> None:
        if self._at == math.inf:
            return  # cancelled
        sim = self.sim
        alive, loss_rate, one_way, bandwidth = self._params
        # a plan that held looks twice as far the next time, up to LOOKAHEAD
        reach, self._reach = self._reach, min(2 * self._reach, LOOKAHEAD)
        ahead = 0
        if alive:
            ahead = self.quiet_ticks(self._sample(self._at, one_way, bandwidth), reach)
        end = sim.window_end
        if end is None:
            end = sim.now if sim.partition_count > 1 else math.inf
        at, interval = self._at, self.interval
        steps = 0
        while steps < ahead and at <= end:
            at += interval
            steps += 1
        if steps and loss_rate > 0.0:
            # the next lost tick: the first draw under the loss rate, while
            # every tick before it consumes two
            self._draw_ahead(2 * steps)
            window = list(itertools.islice(self._draws, 2 * steps))
            if min(window) < loss_rate:
                at = self._at
                for _ in range(next(i for i, u in enumerate(window) if u < loss_rate) // 2):
                    at += interval
        self._schedule(at)

    def wake_soon(self) -> None:
        """Something outside the probe moved the state its plan predicted
        from: wake at the next tick at the latest, and plan one tick ahead
        (a link with traffic is disturbed again soon)."""
        self._reach = 1
        if self._handle.when > self._at:
            self._schedule(self._at)

    def _schedule(self, at: float) -> None:
        handle = self._handle
        if handle.when == at and not handle.fired:
            return
        handle.cancel()
        self._handle = self.sim.call_at_partition(self.partition, at, self._wake)

    def cancel(self) -> None:
        """Fold the ticks due by now, then stop ticking."""
        self.advance(self.sim.now)
        self._at = math.inf
        self._handle.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ActivePingProbe {self.network.name} every {self.interval * 1e3:.0f}ms "
            f"sent={self._sent} lost={self._lost}>"
        )


def _every_tick_observable(_sample: LinkSample, _limit: int) -> int:
    return 0
