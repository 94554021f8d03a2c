"""Partitioned simulation kernel: shard the event loop across partitions.

Very large deployments (the 1000-host grid of the scale benchmarks) are
built from *clusters* joined by WAN links whose wire latency is several
milliseconds — orders of magnitude above every intra-cluster delay.  That
latency is *lookahead* in the classic conservative parallel-DES sense: an
event a partition sends across a WAN boundary at virtual time ``t`` cannot
take effect on the far side before ``t + latency``, so every partition can
safely execute a bounded window of virtual time without hearing from its
peers at all.

:class:`PartitionedSimulator` is a drop-in for
:class:`~repro.simnet.engine.Simulator` (``Simulator(partitions=N)``
constructs one).  It owns ``N`` :class:`_PartitionShard` queues — each a
full timer-wheel kernel reusing the PR 3 machinery — and runs them in
windows::

    window = [start, start + lookahead]   (inclusive of the horizon)

where ``start`` is the earliest pending event across all shards and
``lookahead`` is the minimum latency over the registered *boundary*
networks (links whose attached hosts live in different partitions; networks
self-register when a host attachment makes them span partitions).  Within a
window every shard executes independently in its own exact ``(when, seq)``
order; scheduling calls issued by executing model code always land in the
issuing shard.

Cross-partition scheduling (:meth:`Simulator.call_at_partition` — the
network layer routes every ``transmit`` completion through it) goes through
per-destination **boundary mailboxes**.  A mailbox entry is stamped
``(when, sent_at, src_partition, src_seq)`` and must satisfy
``when >= window horizon`` (violations raise :class:`LookaheadViolation`
rather than silently reordering).  At the window barrier each mailbox is
sorted by that stamp and drained into the destination shard, which defines
the deterministic total order for same-timestamp cross-partition
deliveries: earlier send time first, then lower source partition, then
source scheduling order.

Trace equality with the single-loop kernel holds event-for-event as long
as cross-partition deliveries do not tie *exactly* (same float timestamp)
with destination-local events scheduled during the same window — a
measure-zero coincidence under continuous latency models.  At such a tie
the single loop interleaves by global scheduling order, which no partition
can observe; the partitioned kernel instead applies the deterministic
mailbox rule above (the delivery runs after the destination's
locally-scheduled events of that timestamp).  Both orders are legal
executions of the model.

The shards run their windows in turn, in index order, in the caller's
address space: partitioning exists to prove a deployment's sharding correct
(every cross-partition interaction rides a link with enough lookahead and
the trace equals the single loop's), not to go faster.

Determinism contract for scenario authors:

* every host, probe and fault schedule belongs to exactly one partition
  (``framework.boot`` / ``TopologyMonitor.watch`` / ``FaultInjector``
  handle this given ``host.partition`` / ``network.partition``);
* cross-partition interaction goes through networks whose latency is at
  least the window lookahead (the mailbox check enforces it);
* mutable state shared across partitions (a network's ``up`` flag, the
  topology KB) must only be *written* by its owning partition; reads from
  other partitions see window-granular state.  *Passive* link probes on a
  boundary network observe traffic from **both** endpoints' partitions
  (the probe is called in the transmitting shard); their samples ride the
  **barrier sample bus** (:meth:`PartitionedSimulator.publish_at_barrier`):
  shard-local buffers drained at the window barrier in a deterministic
  ``(sample time, source partition, publish order)`` merge — two shards'
  clocks are not comparable mid-window, so that merge is what orders their
  samples by virtual time.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.simnet.engine import (
    SimEvent,
    SimStats,
    SimulationError,
    Simulator,
    TimerHandle,
)

__all__ = ["PartitionedSimulator", "LookaheadViolation", "DEFAULT_LOOKAHEAD"]

#: window width used when no boundary network is registered and no explicit
#: ``lookahead=`` was configured: well under every WAN latency in
#: :mod:`repro.simnet.networks`, comfortably above LAN/SAN delays.
DEFAULT_LOOKAHEAD = 1e-3


class LookaheadViolation(SimulationError):
    """A cross-partition event was scheduled inside the current window.

    Conservative execution is only correct when a boundary crossing lands at
    or past the window horizon; a violation means a link between partitions
    is faster than the configured lookahead (e.g. two partitions sharing a
    LAN, or a boundary WAN degraded below the window width)."""


class _PartitionShard(Simulator):
    """One partition's event queue: a full timer-wheel kernel plus the
    bookkeeping the facade needs (index, mailbox sequence counter)."""

    def __init__(self, index: int, *, wheel_width: float, wheel_buckets: int):
        super().__init__(wheel_width=wheel_width, wheel_buckets=wheel_buckets)
        self.index = index
        self._mail_seq = itertools.count()

    def next_event_time(self) -> Optional[float]:
        """Timestamp of this shard's earliest live entry, or None."""
        if self._next_ready() is not None:
            return self._now
        head = self._pull()
        return head[0] if head is not None else None


class PartitionedSimulator(Simulator):
    """N per-partition event queues executed in conservative time windows.

    Constructed via ``Simulator(partitions=N, ...)``.  The public
    :class:`~repro.simnet.engine.Simulator` surface is preserved; the
    differences that can matter to model code:

    * :meth:`step` is unavailable (execution is window-at-a-time);
    * :meth:`call_at_partition` returns ``None`` (no cancellable handle) for
      a genuine boundary crossing;
    * :meth:`stop` halts the executing shard immediately and the run at the
      window barrier;
    * ``run(until=event)`` overshoots by at most one window (the run stops
      at the barrier after the event is processed).
    """

    def __init__(
        self,
        *,
        partitions: int,
        lookahead: Optional[float] = None,
        wheel_width: float = 64e-6,
        wheel_buckets: int = 512,
    ) -> None:
        # deliberately no super().__init__(): the facade owns no queue of its
        # own — every structure-touching method is overridden to route into a
        # shard, and a stray use of base internals should fail loudly.
        partitions = int(partitions)
        if partitions < 2:
            raise SimulationError(
                f"PartitionedSimulator needs at least 2 partitions, got {partitions}"
            )
        self._shards: List[_PartitionShard] = [
            _PartitionShard(i, wheel_width=wheel_width, wheel_buckets=wheel_buckets)
            for i in range(partitions)
        ]
        self._mailboxes: List[List[Tuple]] = [[] for _ in range(partitions)]
        # routing state: the shard whose window is executing (None between
        # windows) and the in_partition override stack
        self._shard: Optional[_PartitionShard] = None
        self._override: List[_PartitionShard] = []
        self._time = 0.0
        self._window_end: Optional[float] = None
        self._configured_lookahead = self._checked_lookahead(lookahead)
        self._boundaries: List[Any] = []
        self._p_stopped = False
        self.windows_run = 0
        self.mailbox_deliveries = 0
        # barrier-synchronized hooks: (when, seq, fn, args) min-heap, run at
        # the first window edge at/after `when` (see call_at_barrier)
        self._barrier_hooks: List[Tuple] = []
        self._barrier_seq = itertools.count()
        # barrier sample bus: per-shard publish buffers drained into the
        # registered channel consumers at every window barrier (boundary
        # probe samples et al.; see publish_at_barrier)
        self._bus_buffers: List[List[Tuple[str, Any]]] = [[] for _ in range(partitions)]
        self._bus_consumers: dict = {}

    # -- shard routing ------------------------------------------------------
    def _active_shard(self) -> _PartitionShard:
        """The shard scheduling calls go to: an explicit ``in_partition``
        override, else the shard whose window is executing, else partition 0
        (deployment-construction default)."""
        if self._override:
            return self._override[-1]
        shard = self._shard
        if shard is not None:
            return shard
        return self._shards[0]

    def in_partition(self, partition: int):
        """Route scheduling calls made inside the context to ``partition``.

        A deployment-construction tool: entering a *different* partition
        from executing model code is refused — the target shard's clock is
        mid-window (behind or ahead of the caller's), so direct scheduling
        there would violate causality; cross-partition scheduling from model
        code must go through :meth:`call_at_partition` (the mailbox path),
        and hosts whose bring-up can be triggered mid-run (gateways) should
        be booted at deployment time.
        """
        target = self._shards[self._check_partition(partition)]
        executing = self._shard
        if executing is not None and executing is not target:
            raise SimulationError(
                f"cannot enter partition {partition} from model code executing "
                f"in partition {executing.index}: use call_at_partition for "
                "cross-partition scheduling, or set the deployment up before run()"
            )
        return _PartitionContext(self, target)

    def _check_partition(self, partition: int) -> int:
        if not 0 <= partition < len(self._shards):
            raise SimulationError(
                f"partition {partition!r} out of range (0..{len(self._shards) - 1})"
            )
        return partition

    @property
    def partition_count(self) -> int:
        return len(self._shards)

    @property
    def current_partition(self) -> int:
        return self._active_shard().index

    @property
    def window_end(self) -> Optional[float]:
        return self._window_end

    # -- boundaries / lookahead --------------------------------------------
    def add_boundary(self, network: Any) -> Any:
        """Register a partition-spanning network; its (current) latency
        bounds the window width.  Idempotent; called automatically by
        :meth:`note_network_span` when an attachment makes a network span
        partitions."""
        if network not in self._boundaries:
            self._boundaries.append(network)
        return network

    def note_network_span(self, network: Any) -> None:
        """Called by :meth:`repro.simnet.network.Network.connect`: if the
        network's attached hosts now live in more than one partition it is a
        boundary link."""
        parts = {getattr(host, "partition", 0) for host in network.nics}
        if len(parts) > 1:
            self.add_boundary(network)

    def boundary_networks(self) -> List[Any]:
        return list(self._boundaries)

    def is_boundary(self, network: Any) -> bool:
        return network in self._boundaries

    def call_at_barrier(self, when: float, fn: Callable, *args: Any) -> None:
        """Defer ``fn(*args)`` to the first window barrier at/after ``when``.

        The hook runs on the facade between windows: every shard has drained
        its window and sits at a common virtual time (``now`` reads the
        facade clock), mailboxes are merged, and the *next* window's width
        is computed after the hook — so a hook that degrades a boundary
        link's latency below the old window width is safe: the next window
        shrinks instead of violating lookahead mid-flight.  Hooks fire in
        ``(when, registration order)``; scheduling calls made by a hook
        route like deployment-construction code (partition 0 unless wrapped
        in :meth:`in_partition`).
        """
        heapq.heappush(self._barrier_hooks, (when, next(self._barrier_seq), fn, args))
        return None

    # -- barrier sample bus --------------------------------------------------
    def register_barrier_channel(self, key: str, consumer: Callable) -> None:
        """Register the consumer for barrier-bus channel ``key``.

        ``consumer(batch)`` is called at each window barrier that drained at
        least one publication on the channel, with ``batch`` a list of
        ``(src_partition, publish_index, payload)`` in deterministic merged
        order.  Re-registering a key replaces the consumer.
        """
        self._bus_consumers[key] = consumer

    def unregister_barrier_channel(self, key: str) -> None:
        """Drop channel ``key``'s consumer: later publications on it are
        discarded at the barrier."""
        self._bus_consumers.pop(key, None)

    def publish_at_barrier(self, key: str, payload: Any) -> None:
        """Publish ``payload`` on barrier-bus channel ``key``.

        Buffered shard-locally (no mid-window shared writes) and delivered
        to the channel's consumer at the next window barrier.
        """
        self._bus_buffers[self._active_shard().index].append((key, payload))

    def _drain_barrier_bus(self) -> None:
        """Window barrier: deliver published payloads to channel consumers.

        Per channel, the batch is ordered by (source partition, publish
        index) — a pure function of the per-shard publish streams.
        """
        batches: dict = {}
        for p, buf in enumerate(self._bus_buffers):
            if buf:
                for i, (key, payload) in enumerate(buf):
                    batches.setdefault(key, []).append((p, i, payload))
                del buf[:]
        for key in sorted(batches):
            consumer = self._bus_consumers.get(key)
            if consumer is not None:
                consumer(batches[key])

    def effective_lookahead(self) -> float:
        """The window width for the next window: the minimum of the
        configured ``lookahead`` and the *current* latency of every boundary
        network (recomputed per window so degraded links shrink the window
        instead of breaking conservation)."""
        width = self._configured_lookahead
        for network in self._boundaries:
            latency = network.latency
            if width is None or latency < width:
                width = latency
        if width is None:
            width = DEFAULT_LOOKAHEAD
        if width <= 0.0:
            raise SimulationError(
                "effective lookahead collapsed to zero: a boundary network has "
                "zero latency; partitions joined by latency-free links cannot "
                "execute conservatively"
            )
        return width

    # -- clock --------------------------------------------------------------
    @property
    def now(self) -> float:
        shard = self._shard
        if shard is not None:
            return shard._now
        if self._override:
            return self._override[-1]._now
        return self._time

    # -- scheduling ----------------------------------------------------------
    def call_later(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        return self._active_shard().call_later(delay, fn, *args)

    def call_at(self, when: float, fn: Callable, *args: Any) -> TimerHandle:
        return self._active_shard().call_at(when, fn, *args)

    def _push_triggered(self, ev: SimEvent) -> None:
        self._active_shard()._push_triggered(ev)

    def completed(self, value: Any = None, name: str = "") -> SimEvent:
        # filed by the shard, as _push_triggered files an event; its sim is
        # the facade, as SimEvent(self, name).succeed(value) makes it
        ev = self._active_shard().completed(value, name)
        ev.sim = self
        return ev

    def call_at_partition(
        self, partition: int, when: float, fn: Callable, *args: Any
    ) -> Optional[TimerHandle]:
        dst = self._shards[self._check_partition(partition)]
        src = self._shard
        if src is None or src is dst:
            # outside the run loop, or a partition-local delivery: straight
            # into the destination queue — same path as the single kernel.
            return dst.call_at(when, fn, *args)
        window_end = self._window_end
        if window_end is not None and when < window_end:
            raise LookaheadViolation(
                f"cross-partition event at t={when!r} lands inside the current "
                f"window (horizon {window_end!r}): the link from partition "
                f"{src.index} to {dst.index} is faster than the lookahead"
            )
        self._mailboxes[dst.index].append(
            (when, src._now, src.index, next(src._mail_seq), fn, args)
        )
        return None

    def _merge_mailboxes(self) -> None:
        """The window barrier: drain every mailbox into its destination
        shard in ``(when, sent_at, src_partition, src_seq)`` order — the
        deterministic total order for cross-partition deliveries."""
        for dst, box in zip(self._shards, self._mailboxes):
            if not box:
                continue
            box.sort(key=lambda e: e[:4])
            for when, _sent_at, _src, _seq, fn, args in box:
                # `when >= horizon >= dst.now` by the lookahead check; equal
                # timestamps land on the ready FIFO in mailbox order.
                dst.call_at(max(when, dst._now), fn, *args)
            self.mailbox_deliveries += len(box)
            box.clear()

    # -- main loop -----------------------------------------------------------
    def step(self) -> bool:  # pragma: no cover - explicit API gap
        raise SimulationError(
            "PartitionedSimulator executes window-at-a-time; use run() "
            "(single-step debugging wants Simulator(partitions=1))"
        )

    def _next_when(self) -> Optional[float]:
        best = None
        for shard in self._shards:
            t = shard.next_event_time()
            if t is not None and (best is None or t < best):
                best = t
        if self._barrier_hooks:
            t = self._barrier_hooks[0][0]
            if best is None or t < best:
                best = t
        return best

    def run(self, until: Optional[Any] = None, max_time: Optional[float] = None) -> Any:
        self._p_stopped = False
        target_event, target_time = self._targets(until, self._time)
        self._run_windows(target_event, target_time, max_time)

        if target_event is not None and target_event.triggered:
            if target_event.ok:
                return target_event.value
            raise target_event.value
        return None

    def _run_windows(
        self,
        target_event: Optional[SimEvent],
        target_time: Optional[float],
        max_time: Optional[float],
    ) -> None:
        while not self._p_stopped:
            if target_event is not None and target_event._processed:
                break
            nxt = self._next_when()
            if nxt is None:
                if target_event is not None:
                    raise SimulationError(
                        f"simulation ran out of events while waiting for {target_event!r} "
                        "(deadlock: nobody will ever trigger it)"
                    )
                # natural exhaustion: commit a common clock so later
                # scheduling (relative delays) agrees across partitions.
                for shard in self._shards:
                    if shard._now > self._time:
                        self._time = shard._now
                for shard in self._shards:
                    if shard._now < self._time:
                        shard._now = self._time
                break
            if target_time is not None and nxt > target_time:
                for shard in self._shards:
                    if shard._now < target_time:
                        shard._now = target_time
                self._time = target_time
                break
            if max_time is not None and nxt > max_time:
                raise SimulationError(f"virtual time exceeded max_time={max_time}")
            window_end = nxt + self.effective_lookahead()
            if target_time is not None and window_end > target_time:
                window_end = target_time
            if max_time is not None and window_end > max_time:
                window_end = max_time
            self._window_end = window_end
            try:
                # each shard runs its window in turn, in index order
                for shard in self._shards:
                    if self._p_stopped:
                        break
                    self._shard = shard
                    shard.run(until=window_end)
            finally:
                # merge even when model code raised out of a shard: mailbox
                # entries are post-horizon and safe to deliver any time.
                self._shard = None
                self._window_end = None
                self._merge_mailboxes()
            self.windows_run += 1
            for shard in self._shards:
                if shard._now > self._time:
                    self._time = shard._now
            # window edge: deliver barrier-bus publications (boundary probe
            # samples) in the deterministic merged order — before telemetry
            # drains (consumer emissions commit with this barrier) and
            # before hooks (samples observed this window predate edge churn)
            self._drain_barrier_bus()
            # window edge: drain per-shard telemetry buffers into the
            # deterministic merged stream
            hub = self.telemetry
            if hub is not None:
                hub.on_window_barrier(window_end)
            # window edge: every shard has reached the horizon — run the
            # barrier hooks that have come due (boundary-link churn et al.)
            hooks = self._barrier_hooks
            while hooks and hooks[0][0] <= window_end and not self._p_stopped:
                _when, _seq, fn, args = heapq.heappop(hooks)
                fn(*args)

    def stop(self) -> None:
        """Stop the run: the executing shard halts immediately, remaining
        shards at the window barrier."""
        self._p_stopped = True
        if self._shard is not None:
            self._shard.stop()

    # -- introspection -------------------------------------------------------
    def pending_count(self) -> int:
        live = sum(shard._live for shard in self._shards)
        return live + sum(len(box) for box in self._mailboxes) + len(self._barrier_hooks)

    def stats(self) -> SimStats:
        """Aggregated kernel counters across all shards, in the same
        :class:`~repro.simnet.engine.SimStats` shape the single loop
        returns (``.as_dict()`` keys match field-for-field).

        ``events_processed``, ``timers_scheduled``, ``cancellations`` and
        ``wheel_rebuilds`` sum exactly across shards.  ``peak_pending`` is
        per-shard by nature: the merged value is the *sum of per-shard
        peaks*, an upper bound on the true concurrent peak (shards hit
        their maxima at different instants).  Use :meth:`partition_stats`
        for the undistorted per-shard view."""
        shard_stats = self.partition_stats()
        return SimStats(
            events_processed=sum(s.events_processed for s in shard_stats),
            timers_scheduled=sum(s.timers_scheduled for s in shard_stats),
            cancellations=sum(s.cancellations for s in shard_stats),
            peak_pending=sum(s.peak_pending for s in shard_stats),
            wheel_rebuilds=sum(s.wheel_rebuilds for s in shard_stats),
        )

    def partition_stats(self) -> List[SimStats]:
        """Per-shard counter snapshots, in partition order."""
        return [shard.stats() for shard in self._shards]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PartitionedSimulator partitions={len(self._shards)} "
            f"t={self._time:g} windows={self.windows_run}>"
        )


class _PartitionContext:
    """Context manager pushing a partition override onto the routing stack
    (see :meth:`PartitionedSimulator.in_partition`)."""

    __slots__ = ("sim", "shard")

    def __init__(self, sim: PartitionedSimulator, shard: _PartitionShard):
        self.sim = sim
        self.shard = shard

    def __enter__(self) -> PartitionedSimulator:
        self.sim._override.append(self.shard)
        return self.sim

    def __exit__(self, *_exc: Any) -> None:
        self.sim._override.pop()
