"""The feedback loop: measured link profiles flow back into the topology KB.

A :class:`TopologyMonitor` owns, per watched network, a passive probe, an
optional active ping probe and a :class:`~repro.monitoring.estimators.LinkEstimator`.
Whenever the estimate moves materially — the link *reclassifies* (e.g. a WAN
whose measured loss crossed ``LOSSY_THRESHOLD`` flips to ``LOSSY_WAN``) or a
metric drifts beyond ``push_threshold`` — the monitor pushes the measured
profile into the :class:`~repro.abstraction.topology.TopologyKB`, which
bumps the generation (invalidating the RoutingEngine/Selector caches) and
notifies subscribers (triggering adaptive VLink re-selection).

A run of ``dead_after`` consecutive lost active probes is the failure
detector: the link is marked down in the KB; the first successful probe
afterwards marks it back up.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Dict, List, Optional

from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.abstraction.topology import (
    LOSSY_THRESHOLD,
    WAN_LATENCY_THRESHOLD,
    LinkClass,
    TopologyKB,
)
from repro.monitoring.estimators import LinkEstimator, LinkSample, MeasuredLink
from repro.monitoring.probes import ActivePingProbe, PassiveLinkProbe


class LinkWatch:
    """Probes + estimator + push bookkeeping for one watched network."""

    def __init__(
        self,
        monitor: "TopologyMonitor",
        network: Network,
        *,
        interval: float,
        seed: int,
        alpha: float,
        window: int,
        min_samples: int,
        active: bool,
        coalesce: int = 1,
    ):
        """Watch ``network`` from the partition executing the constructor.

        The active probe keeps one timer, at the next tick whose outcome
        the monitor would act on (see :class:`ActivePingProbe`): the watch
        vouches for the ticks in between (:meth:`_quiet_ticks`) and folds
        them into the estimator as runs (``update_run``).  A passive sample
        and a :meth:`Network.changed` first fold the ticks due by then; a
        read of :attr:`estimator` and :meth:`stop` fold the ticks due by
        now."""
        self.monitor = monitor
        self.network = network
        self._estimator = LinkEstimator(
            alpha=alpha, window=window, min_samples=min_samples, batch=coalesce
        )
        # A passive probe on a *boundary* link observes traffic from both
        # endpoints' shards (the probe is called in the transmitting shard),
        # and mid-window the two shards' clocks are not comparable: the
        # shard that runs second would feed the estimator samples older
        # than ones it already holds.  Boundary watches therefore route
        # every sample over the barrier sample bus: shard-local buffers,
        # drained at the window edge and merged by virtual time, so the
        # estimator sees both shards' samples in the single loop's order.
        # Ticks then act on nothing mid-window: the barrier folds them in.
        sim = monitor.sim
        self._bus_key: Optional[str] = None
        on_sample = self._on_sample
        if sim.partition_count > 1 and sim.is_boundary(network):
            # one channel per watch: a re-watch must not inherit the
            # publications of the window its predecessor stopped in
            self._bus_key = f"linkwatch:{network.name}#{next(monitor._serial)}"
            sim.register_barrier_channel(self._bus_key, self._apply_batch)
            on_sample = self._publish_sample
        self.passive = PassiveLinkProbe(network, on_sample)
        self.active: Optional[ActivePingProbe] = None
        if active:
            self.active = probe = ActivePingProbe(
                network, on_sample, interval=interval, seed=seed
            )
            self.passive.on_change = self._changed
            if self._bus_key is None:
                self.passive.on_sample = self._observe
                probe.on_run = self._on_run
                probe.quiet_ticks = self._quiet_ticks
            else:
                probe.quiet_ticks = _window_quiet
        self.marked_down = False
        # what the KB believed when the watch started: the baseline the
        # estimates are compared against (the live network attributes are
        # the *physical* truth churn mutates — the KB must not read the
        # answer off them, it must measure it).
        topology = monitor.topology
        self.believed = MeasuredLink(
            latency=topology.effective_latency(network),
            bandwidth=topology.effective_bandwidth(network),
            loss_rate=topology.effective_loss_rate(network),
            samples=0,
            updated_at=monitor.sim.now,
        )
        self.believed_class = topology.classify_network(network)

    def _publish_sample(self, sample: LinkSample) -> None:
        self.monitor.sim.publish_at_barrier(self._bus_key, sample)

    def _apply_batch(self, batch) -> None:
        """Barrier-bus consumer: apply one window's boundary samples.

        ``batch`` arrives as ``(src_partition, publish_index, sample)`` in
        (partition, index) order; re-sort by observation time first so the
        estimator consumes samples in virtual-time order regardless of
        which endpoint's shard observed them.  The probe's ticks of the
        window that published nothing join in as the probe's partition's,
        ahead of its publications of the same instant."""
        merged = [(sample.at, p, i, sample) for p, i, sample in batch]
        probe = self.active
        if probe is not None:
            ticks = []
            probe.advance(self.monitor.sim.now, ticks.append)
            merged += [(tick.at, probe.partition, -1, tick) for tick in ticks]
        merged.sort()  # (at, partition, index) is unique: samples never compare
        for entry in merged:
            self._on_sample(entry[3])

    def _on_sample(self, sample: LinkSample) -> None:
        # update() returns False when the sample was coalesced into a
        # pending run (estimator batch > 1): the estimate cannot have moved,
        # so the per-sample evaluation — the dominant monitoring cost on
        # probe-heavy runs — is skipped entirely.
        if self._estimator.update(sample):
            self.monitor._evaluate(self)

    def _on_run(self, sample: LinkSample, n: int) -> None:
        """``n`` successful ticks ending at ``sample.at``: the ones before the
        last act on nothing (the probe's plan), so only the last evaluates."""
        if self._estimator.update_run(sample, n):
            self.monitor._evaluate(self)

    def _observe(self, sample: LinkSample) -> None:
        """A passive sample: the ticks due by its instant come first, and the
        tick after it may act (its run head applies alone)."""
        probe = self.active
        probe.advance(sample.at)
        self._on_sample(sample)
        probe.wake_soon()

    def _quiet_ticks(self, sample: LinkSample, limit: int) -> int:
        """How many of the next ``limit`` ticks, all successful with
        ``sample``'s values, neither push nor mark the link up: the
        estimator runs them forward on a copy through ``_should_push``."""
        if self.marked_down:
            return 0  # the next successful tick marks the link up
        monitor = self.monitor
        return self._estimator.preview(
            sample, limit, lambda estimate: monitor._should_push(self, estimate)
        )

    def _changed(self) -> None:
        """:meth:`Network.changed`: fold the ticks due by now under the old
        parameters, then plan under the new ones.  A change made by another
        partition mid-window (a host flip) reaches the probe's partition
        at the window's end."""
        sim = self.monitor.sim
        probe = self.active
        end = sim.window_end
        if end is not None and sim.current_partition != probe.partition:
            sim.call_at_partition(probe.partition, end, self._changed)
            return
        probe.advance(sim.now)
        probe.replan()

    @property
    def estimator(self) -> LinkEstimator:
        """The estimator, with the ticks due by now folded in.  A read may
        flush its pending coalesced run (``estimate()`` and ``samples`` do),
        so the probe wakes at its next tick to plan from there."""
        probe = self.active
        if probe is not None:
            probe.advance(self.monitor.sim.now)
            probe.wake_soon()
        return self._estimator

    def stop(self) -> None:
        self.passive.detach()
        if self.active is not None:
            self.active.cancel()
        if self._bus_key is not None:
            # after the barrier has delivered this window's publications
            sim = self.monitor.sim
            sim.call_at_barrier(sim.now, sim.unregister_barrier_channel, self._bus_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LinkWatch {self.network.name} samples={self._estimator.samples}>"


def _window_quiet(_sample: LinkSample, limit: int) -> int:
    """A boundary watch's ticks act on nothing until the barrier."""
    return limit


class TopologyMonitor:
    """Owns the monitoring feedback loop of one deployment.

    Exposed as ``framework.monitoring``; call :meth:`watch` per network of
    interest, and the measured world starts replacing the nominal one for
    every selection decision.
    """

    def __init__(
        self,
        topology: TopologyKB,
        sim: Simulator,
        *,
        push_threshold: float = 0.2,
        dead_after: int = 5,
    ):
        self.topology = topology
        self.sim = sim
        self.push_threshold = push_threshold
        self.dead_after = dead_after
        self._watches: Dict[Network, LinkWatch] = {}
        self._serial = itertools.count()  # barrier-bus channel per watch
        self.pushes = 0
        self.reclassifications = 0
        self.links_marked_down = 0
        self.links_marked_up = 0

    # -- watch management --------------------------------------------------------
    def watch(
        self,
        network: Network,
        *,
        interval: float = 0.05,
        seed: int = 0x9806,
        alpha: float = 0.25,
        window: int = 32,
        min_samples: int = 4,
        active: bool = True,
        coalesce: int = 1,
    ) -> LinkWatch:
        """Start monitoring ``network``; idempotent per network.

        The watch (its active probe's timer in particular) runs in the
        event-loop partition that owns the link, so a partitioned kernel
        keeps probe execution next to the link it measures.

        ``coalesce > 1`` batches runs of identical probe samples into
        closed-form estimator updates and skips the per-sample evaluation
        in between (see :class:`~repro.monitoring.estimators.LinkEstimator`
        ``batch``); loss and changed samples still apply and evaluate
        immediately.  Either way a tick costs an engine event only when the
        evaluation it leads to would act (see :class:`LinkWatch`)."""
        if network in self._watches:
            return self._watches[network]
        with self.sim.in_partition(network.owning_partition()):
            watch = LinkWatch(
                self,
                network,
                interval=interval,
                # stable per-network tweak (never Python's salted hash(): the
                # probe schedule must reproduce across processes)
                seed=seed ^ (zlib.crc32(network.name.encode("utf-8")) & 0xFFFF),
                alpha=alpha,
                window=window,
                min_samples=min_samples,
                active=active,
                coalesce=coalesce,
            )
        self._watches[network] = watch
        return watch

    def unwatch(self, network: Network) -> None:
        watch = self._watches.pop(network, None)
        if watch is not None:
            watch.stop()

    def stop(self) -> None:
        """Cancel every probe (leaves pushed measurements in the KB)."""
        for watch in list(self._watches.values()):
            watch.stop()
        self._watches.clear()

    def watches(self) -> List[LinkWatch]:
        return list(self._watches.values())

    # -- the feedback step ---------------------------------------------------------
    def _evaluate(self, watch: LinkWatch) -> None:
        estimator = watch._estimator
        network = watch.network
        # Failure detection first: a run of lost probes is death, not loss.
        if estimator.consecutive_lost >= self.dead_after:
            if not watch.marked_down:
                watch.marked_down = True
                self.links_marked_down += 1
                self.topology.mark_link_down(network, detail="probe timeout")
                if self.sim.telemetry is not None:
                    self.sim.telemetry.emit("monitor.link_down", net=network.name)
            return
        if watch.marked_down and estimator.consecutive_lost == 0:
            watch.marked_down = False
            self.links_marked_up += 1
            self.topology.mark_link_up(network, detail="probe recovered")
            if self.sim.telemetry is not None:
                self.sim.telemetry.emit("monitor.link_up", net=network.name)
        estimate = estimator.estimate()
        if estimate is None:
            return
        if self._should_push(watch, estimate):
            self._push(watch, estimate)

    def _should_push(self, watch: LinkWatch, estimate: MeasuredLink) -> bool:
        """Push on a class flip or a material drift vs the current belief."""
        believed = watch.believed_class
        if self._classify(estimate, watch.network, believed) is not believed:
            return True
        return self._changed(watch.believed, estimate)

    def _changed(self, believed: MeasuredLink, estimate: MeasuredLink) -> bool:
        pairs = [
            (believed.latency, estimate.latency),
            (believed.bandwidth, estimate.bandwidth),
        ]
        for old, new in pairs:
            if old is None or new is None or old <= 0:
                continue
            if abs(new - old) / old > self.push_threshold:
                return True
        return abs(estimate.loss_rate - believed.loss_rate) > max(
            self.push_threshold * believed.loss_rate, 0.005
        )

    def _classify(
        self,
        estimate: MeasuredLink,
        network: Network,
        current: Optional[LinkClass] = None,
    ) -> LinkClass:
        """What the KB would say with this estimate applied.

        With ``current`` given, the lossy verdict is hysteretic: a link
        already believed lossy only flips back once its measured loss drops
        well below the threshold, so window noise cannot flap the class
        (and with it the adapter choice) sample by sample.
        """
        if network.is_parallel:
            return LinkClass.SAN
        latency = estimate.latency if estimate.latency is not None else network.latency
        if latency >= WAN_LATENCY_THRESHOLD:
            threshold = LOSSY_THRESHOLD
            if current is LinkClass.LOSSY_WAN:
                threshold = LOSSY_THRESHOLD / 4.0
            if estimate.loss_rate >= threshold:
                return LinkClass.LOSSY_WAN
            return LinkClass.WAN
        return LinkClass.LAN

    def _push(self, watch: LinkWatch, estimate: MeasuredLink) -> None:
        network = watch.network
        self.topology.apply_measurement(
            network,
            latency=estimate.latency,
            bandwidth=estimate.bandwidth,
            loss_rate=estimate.loss_rate,
            detail=f"measured over {estimate.samples} samples",
        )
        watch.believed = estimate
        self.pushes += 1
        if self.sim.telemetry is not None:
            self.sim.telemetry.emit(
                "monitor.push",
                net=network.name,
                latency=estimate.latency,
                bandwidth=estimate.bandwidth,
                loss_rate=estimate.loss_rate,
                samples=estimate.samples,
            )
        after = self._classify(estimate, network, watch.believed_class)
        if after is not watch.believed_class:
            self.reclassifications += 1
            watch.believed_class = after

    # -- reporting ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        return {
            "watched": sorted(n.name for n in self._watches),
            "pushes": self.pushes,
            "reclassifications": self.reclassifications,
            "links_marked_down": self.links_marked_down,
            "links_marked_up": self.links_marked_up,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TopologyMonitor watching {len(self._watches)} links pushes={self.pushes}>"
