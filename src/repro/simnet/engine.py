"""Discrete-event simulation kernel.

A deliberately small, dependency-free engine in the style of SimPy:

* :class:`Simulator` owns the virtual clock and the timer structures.
* :class:`SimEvent` is a one-shot completion token carrying a value (or an
  exception) plus a list of callbacks.
* :class:`Timeout` is an event that fires after a fixed virtual delay.
* :class:`Process` wraps a generator; the generator *yields* events and is
  resumed with the event value when the event fires.  Processes are
  themselves events (they fire when the generator returns), so processes can
  wait for each other.
* :class:`AllOf` / :class:`AnyOf` combine events.

The engine is fully deterministic: events scheduled for the same virtual
time fire in FIFO order of scheduling (a monotonically increasing sequence
number breaks ties), and the only randomness anywhere in :mod:`repro.simnet`
comes from explicitly seeded generators owned by the network models.

Delayed triggers
----------------

One asynchronous operation is one completion event, and a *delayed* trigger
— ``event.succeed(value, delay=d)`` / ``event.fail(exc, delay=d)`` with
``d > 0``, and every :class:`Timeout` — is one loop entry: a timer in the
``(now + d, seq)`` slot the call took, whose callback (:meth:`SimEvent.fire`)
marks the event triggered and runs its callbacks there and then.  The
callbacks therefore run in the *timer's* ``(when, seq)`` slot, ordered
against everything else by the sequence number drawn when the trigger was
requested, not by one drawn when it fell due.  Until then the event is
pending (``triggered`` is False and a process may still be interrupted off
it); arguments are validated at the call, and triggering an event that
already is — directly, or by a second delayed trigger falling due — raises
:class:`SimulationError` naming it.  An immediate trigger (``delay <= 0``)
marks the event at once and processes it through the same-timestamp FIFO.
All of this lives in :class:`SimEvent`, so every kernel (wheel, reference
heap, partitioned) orders it identically.

Scheduling internals
--------------------

The kernel used to be a single monolithic ``heapq``; at grid scale (hundreds
of booted hosts, thousands of concurrent timers) the heap churns on three
workloads that have cheaper homes:

* **same-timestamp completions** — the vast majority of entries are
  triggered events and zero-delay callbacks that fire *now*; they live in a
  plain FIFO deque (:attr:`Simulator._ready`) and never touch the heap;
* **near-future timers** — entries within the wheel horizon go into a
  hierarchical timer wheel (:attr:`Simulator._buckets`): per-bucket append
  is O(1) and each bucket is sorted once when its turn comes (sorting one
  small, mostly-ordered bucket is far cheaper than maintaining a global
  heap invariant per event);
* **far-future timers** — everything past the horizon waits in an overflow
  heap and is re-bucketed wheel-window by wheel-window.

Every scheduling call returns a :class:`TimerHandle`; cancellation is lazy
(the handle is flagged and skipped when its slot drains) so cancelling is
O(1) and dead entries no longer churn the queue.  The executed order is the
exact ``(when, seq)`` order of the historical heap kernel —
:class:`ReferenceSimulator` keeps that original scheduler alive as an
executable specification, and the tier-1 suite asserts trace equality
between the two on recorded scenarios.
"""

from __future__ import annotations

import contextlib
import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (double-firing an event,
    yielding a non-event from a process, running a simulator with no events
    while waiting for a condition, ...)."""


#: :class:`TimerHandle` lifecycle states.
_PENDING, _FIRED, _CANCELLED = 0, 1, 2

class TimerHandle:
    """One scheduled callback, cancellable in O(1).

    Returned by :meth:`Simulator.call_later` / :meth:`Simulator.call_at`.
    :meth:`cancel` flags the entry and drops the callback references
    immediately; the slot itself is removed lazily when the wheel (or the
    overflow heap) drains past it, so cancellation never has to search a
    queue.  Handles order by ``(when, seq)`` — the engine-wide total order.
    """

    __slots__ = ("when", "seq", "sim", "fn", "args", "_state")

    def __init__(self, when: float, seq: int, sim: "Simulator", fn: Callable, args: tuple):
        self.when = when
        self.seq = seq
        self.sim = sim
        self.fn = fn
        self.args = args
        self._state = _PENDING

    @property
    def cancelled(self) -> bool:
        return self._state == _CANCELLED

    @property
    def fired(self) -> bool:
        return self._state == _FIRED

    def cancel(self) -> bool:
        """Cancel the entry; True if it was still pending."""
        if self._state != _PENDING:
            return False
        self._state = _CANCELLED
        self.fn = None
        self.args = None
        sim = self.sim
        sim._live -= 1
        sim._cancellations += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("pending", "fired", "cancelled")[self._state]
        return f"<TimerHandle t={self.when:g} #{self.seq} {state}>"


class SimStats:
    """Counter snapshot returned by :meth:`Simulator.stats`."""

    __slots__ = (
        "events_processed",
        "timers_scheduled",
        "cancellations",
        "peak_pending",
        "wheel_rebuilds",
    )

    def __init__(self, events_processed: int, timers_scheduled: int, cancellations: int,
                 peak_pending: int, wheel_rebuilds: int):
        self.events_processed = events_processed
        self.timers_scheduled = timers_scheduled
        self.cancellations = cancellations
        self.peak_pending = peak_pending
        self.wheel_rebuilds = wheel_rebuilds

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<SimStats {inner}>"


class SimEvent:
    """A one-shot completion token.

    An event starts *pending*; it becomes *triggered* exactly once, either
    through :meth:`succeed` (with a value) or :meth:`fail` (with an
    exception).  Callbacks registered with :meth:`add_callback` run when the
    event is processed by the simulator loop, in registration order.

    ``value`` is the value passed to :meth:`succeed` — or, once the event
    failed, the exception (``_exc`` holds it too and backs :attr:`ok`).
    """

    #: ``seq`` is stamped by the simulator when the event triggers (it
    #: orders the ready FIFO against due timers); unset while pending.
    #: ``callbacks`` is None once the event is processed.
    __slots__ = (
        "sim",
        "callbacks",
        "value",
        "_exc",
        "_triggered",
        "_processed",
        "name",
        "seq",
    )

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["SimEvent"], None]]] = []
        self.value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self.name = name

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the simulator has run the callbacks of this event."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._triggered and self._exc is None

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Trigger the event successfully, optionally after ``delay``."""
        if self._triggered:
            raise self._already_triggered()
        if delay > 0.0:
            self.sim.call_later(delay, self.fire, value)
            return self
        self._triggered = True
        self.value = value
        self.sim._push_triggered(self)
        return self

    def fail(self, exc: BaseException, delay: float = 0.0) -> "SimEvent":
        """Trigger the event with an exception, optionally after ``delay``."""
        if self._triggered:
            raise self._already_triggered()
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if delay > 0.0:
            self.sim.call_later(delay, self.fire, None, exc)
            return self
        self._triggered = True
        self.value = self._exc = exc
        self.sim._push_triggered(self)
        return self

    def _already_triggered(self) -> SimulationError:
        return SimulationError(f"event {self.name or id(self)} already triggered")

    def fire(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        """Trigger the event *and* run its callbacks, in the engine slot
        that is executing.

        This is where every delayed trigger ends (the timer of
        ``succeed/fail(..., delay > 0)`` and of :class:`Timeout` is this
        method).  A layer whose own timer already fires at the completion
        instant (``TcpConnection._complete_send``) calls it from that timer
        instead of pushing the event through the ready FIFO for a second
        slot; nothing else should, since the callbacks run in the caller's
        frame.
        """
        if self._triggered:
            raise self._already_triggered()
        self._triggered = True
        self._processed = True
        self.value = value if exc is None else exc
        self._exc = exc
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:
            fn(self)

    # -- composition ------------------------------------------------------
    def add_callback(self, fn: Callable[["SimEvent"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed the callback runs immediately (in
        the caller's stack frame), which keeps chained completions correct
        even when a lower layer fires synchronously.
        """
        if self._processed:
            fn(self)
        else:
            self.callbacks.append(fn)

    def remove_callback(self, fn: Callable[["SimEvent"], None]) -> bool:
        """Detach a callback registered with :meth:`add_callback`.

        Returns True if it was found (never, once the event is processed).
        Used by :meth:`Process.interrupt` to abandon the event the process
        was waiting on: without the removal, a later firing of the abandoned
        event would re-enter the generator at the wrong yield point.
        """
        if self.callbacks is None:
            return False
        try:
            self.callbacks.remove(fn)
            return True
        except ValueError:
            return False

    def chain(self, other: "SimEvent") -> "SimEvent":
        """Propagate this event's outcome into ``other`` when it fires."""

        def _propagate(ev: "SimEvent") -> None:
            if ev.ok:
                if not other.triggered:
                    other.succeed(ev.value)
            else:
                if not other.triggered:
                    other.fail(ev.value)

        self.add_callback(_propagate)
        return other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {self.name or hex(id(self))} {state}>"


class Timeout(SimEvent):
    """An event that fires ``delay`` seconds of virtual time after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay!r}")
        super().__init__(sim, name=name or "timeout")
        sim.call_later(delay, self.fire, value)


class Process(SimEvent):
    """Wraps a generator that yields :class:`SimEvent` instances.

    The process itself is an event: it succeeds with the generator's return
    value, or fails with the exception the generator raised.  A failure of a
    yielded event is re-raised *inside* the generator so it can be handled
    with ordinary ``try/except``.
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you forget to call the process function?"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Optional[SimEvent] = None
        # Bootstrap: resume the generator once the loop starts.
        boot = SimEvent(sim, name=f"{self.name}/boot")
        boot.add_callback(self._resume)
        boot.succeed(None)

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield point."""
        if self._triggered:
            return
        target = self._waiting_on
        self._waiting_on = None
        # Abandon the event we were waiting on: if it fires later it must
        # not resume the generator at the (by then stale) yield point.
        if target is not None:
            target.remove_callback(self._resume)
        # Deliver asynchronously so we do not re-enter the generator from
        # arbitrary stacks.
        self.sim.call_later(0.0, self._throw, Interrupt(cause))

    def _throw(self, exc: BaseException) -> None:
        if self._triggered:
            return
        try:
            nxt = self._gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:  # pragma: no cover - defensive
            self.fail(err)
            return
        self._wait_for(nxt)

    def _resume(self, ev: SimEvent) -> None:
        if self._triggered:
            return
        try:
            if ev._exc is None:
                nxt = self._gen.send(ev.value)
            else:
                nxt = self._gen.throw(ev._exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as err:
            self.fail(err)
            return
        self._wait_for(nxt)

    def _wait_for(self, target: Any) -> None:
        if not isinstance(target, SimEvent):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield SimEvent instances"
                )
            )
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class Interrupt(Exception):
    """Raised inside a process generator by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class PeriodicTask:
    """A lightweight recurring task: run ``fn(*args)`` every ``interval``.

    The engine-level helper behind simulator *processes* that only need a
    fixed-rate tick whose every run has an effect (heartbeats, beacons):
    cheaper than a full generator process and explicitly cancellable.  A
    tick that is usually pure arithmetic should not be one timer per tick —
    active link probes keep a single timer at the next tick whose outcome is
    observable (:class:`repro.monitoring.probes.ActivePingProbe`).  Note
    that a live periodic task keeps the timer queue non-empty, so
    ``run(until=None)`` will not terminate until every periodic task has
    been cancelled.
    """

    __slots__ = ("sim", "interval", "fn", "args", "cancelled", "runs", "_handle")

    def __init__(self, sim: "Simulator", interval: float, fn: Callable, *args: Any):
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval!r}")
        self.sim = sim
        self.interval = float(interval)
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.runs = 0
        self._handle: Optional[TimerHandle] = sim.call_later(self.interval, self._tick)

    def _tick(self) -> None:
        if self.cancelled:
            return
        self.fn(*self.args)
        self.runs += 1
        # the callback may have cancelled the task (self-stopping probes):
        # rescheduling then would leave an uncancellable dead tick
        if not self.cancelled:
            self._handle = self.sim.call_later(self.interval, self._tick)

    def cancel(self) -> None:
        """Stop the task and remove the scheduled tick from the queue."""
        if self.cancelled:
            return
        self.cancelled = True
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.cancel()


class AllOf(SimEvent):
    """Fires when every child event has fired; value is the list of values."""

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent], name: str = ""):
        super().__init__(sim, name=name or "all_of")
        self._children = list(events)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for ev in self._children:
            ev.add_callback(self._child_done)

    def _child_done(self, ev: SimEvent) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(SimEvent):
    """Fires as soon as one child fires; value is ``(index, value)``."""

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulator", events: Iterable[SimEvent], name: str = ""):
        super().__init__(sim, name=name or "any_of")
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf requires at least one event")
        for idx, ev in enumerate(self._children):
            ev.add_callback(lambda e, i=idx: self._child_done(i, e))

    def _child_done(self, idx: int, ev: SimEvent) -> None:
        if self._triggered:
            return
        if ev.ok:
            self.succeed((idx, ev.value))
        else:
            self.fail(ev.value)

class Simulator:
    """The event loop: a virtual clock plus the timer wheel.

    ``wheel_width`` (seconds per bucket) and ``wheel_buckets`` define the
    near-future horizon ``wheel_width * wheel_buckets``; timers past the
    horizon wait in the overflow heap and are re-bucketed one window at a
    time.  The defaults (64 µs x 512 = ~33 ms) fit the simulated stacks:
    per-message software costs and LAN round trips land in the wheel while
    probe intervals and WAN timeouts ride the overflow heap.

    Internally every structure stores ``(when, seq, handle)`` triples so all
    ordering comparisons run as C tuple compares; triggered events skip the
    timer structures entirely and ride the ``_ready`` FIFO as
    ``(seq, event)`` pairs.

    ``Simulator(partitions=N)`` with ``N > 1`` returns a
    :class:`~repro.simnet.partition.PartitionedSimulator` instead: the same
    public surface, but the event loop is sharded into ``N`` per-partition
    queues executed in conservative lookahead windows (see
    :mod:`repro.simnet.partition`).  The partition-aware entry points below
    (:meth:`call_at_partition`, :meth:`in_partition`,
    :attr:`partition_count`) are no-ops on the single-loop kernel so model
    code can target partitions unconditionally.
    """

    #: flight-recorder hook (:mod:`repro.telemetry`): ``None`` means
    #: recording is off — instrumented code gates on this one attribute
    #: check, so the disabled state is exactly the pre-telemetry hot path.
    #: (The single-loop kernel also sets it per instance in ``__init__``:
    #: first assigning it after construction, as ``enable_telemetry`` would,
    #: can cost the instance its shared-key attribute layout — a measured
    #: 3% on every later ``self.`` access of the run loop.)
    telemetry = None

    def __new__(cls, *args: Any, **kwargs: Any) -> "Simulator":
        if cls is Simulator:
            partitions = kwargs.get("partitions")
            if partitions is not None and int(partitions) > 1:
                from repro.simnet.partition import PartitionedSimulator

                return super().__new__(PartitionedSimulator)
        return super().__new__(cls)

    def __init__(
        self,
        *,
        wheel_width: float = 64e-6,
        wheel_buckets: int = 512,
        partitions: Optional[int] = None,
        lookahead: Optional[float] = None,
    ) -> None:
        if partitions is not None and int(partitions) > 1:
            # Simulator(partitions=N) dispatches to PartitionedSimulator via
            # __new__; landing here means a subclass was asked to shard.
            raise SimulationError(
                f"{type(self).__name__} does not support partitions={partitions!r}"
            )
        self._checked_lookahead(lookahead)  # the single loop has no windows
        if wheel_width <= 0.0 or wheel_buckets < 1:
            raise SimulationError("wheel_width must be positive and wheel_buckets >= 1")
        self.telemetry = None  # see the class attribute
        self._now = 0.0
        self._seq = 0
        self._stopped = False
        # same-timestamp FIFO: (seq, SimEvent) for triggered events and
        # (seq, TimerHandle) for zero-delay callbacks, in seq order
        self._ready: deque = deque()
        # timer wheel: the bucket at `_cursor` is drained through `_batch`
        self._width = float(wheel_width)
        self._inv_width = 1.0 / float(wheel_width)
        self._nbuckets = int(wheel_buckets)
        self._span = self._width * self._nbuckets
        self._buckets: List[List] = [[] for _ in range(self._nbuckets)]
        self._wheel_count = 0
        self._epoch: Optional[float] = None  # None: wheel idle, overflow holds all timers
        self._cursor = -1
        self._batch: List = []
        self._batch_pos = 0
        # sub-bucket-width delays scheduled while their bucket drains
        self._imminent: List = []
        self._head_imminent = False
        # far-future timers: (when, seq, handle) beyond the wheel window
        self._overflow: List = []
        # bumped whenever a timer lands in a timer structure, so the run
        # loop's cached head knows to re-pull
        self._timer_gen = 0
        # counters (see stats())
        self._live = 0
        self._events_processed = 0
        self._timers_scheduled = 0
        self._cancellations = 0
        self._peak_pending = 0
        self._wheel_rebuilds = 0

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time, in seconds."""
        return self._now

    # -- event construction helpers ---------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create a fresh pending event."""
        return SimEvent(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create an event firing after ``delay`` virtual seconds."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a simulation process."""
        return Process(self, gen, name=name)

    def every(self, interval: float, fn: Callable, *args: Any) -> PeriodicTask:
        """Run ``fn(*args)`` every ``interval`` virtual seconds until cancelled."""
        return PeriodicTask(self, interval, fn, *args)

    def all_of(self, events: Iterable[SimEvent]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[SimEvent]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------
    def call_later(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` virtual seconds; cancellable."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay!r})")
        return self._schedule(self._now + delay, fn, args)

    def call_at(self, when: float, fn: Callable, *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` at absolute virtual time ``when``; cancellable."""
        if when < self._now:
            raise SimulationError(f"cannot schedule in the past (t={when!r} < now={self._now!r})")
        return self._schedule(when, fn, args)

    # -- partition-aware entry points (single-loop: plain pass-throughs) ----
    @property
    def partition_count(self) -> int:
        """Number of event-loop partitions (1 on the single-loop kernel)."""
        return 1

    @property
    def current_partition(self) -> int:
        """Index of the partition whose events are executing right now."""
        return 0

    @property
    def window_end(self) -> Optional[float]:
        """The horizon of the conservative window executing right now, or
        None outside one (always None on the single loop: no windows)."""
        return None

    def call_at_partition(
        self, partition: int, when: float, fn: Callable, *args: Any
    ) -> Optional[TimerHandle]:
        """Schedule ``fn(*args)`` at ``when`` into ``partition``'s queue.

        On the single-loop kernel the partition index is ignored.  On the
        partitioned kernel a cross-partition call rides a boundary mailbox
        and must land at or past the current window horizon (conservative
        lookahead); it returns ``None`` instead of a cancellable handle.
        """
        del partition
        return self.call_at(when, fn, *args)

    def is_boundary(self, network: Any) -> bool:
        """True when ``network`` spans event-loop partitions.  Always False
        on the single-loop kernel (there is nothing to span)."""
        del network
        return False

    def call_at_barrier(self, when: float, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` to run at a window barrier at/after ``when``.

        Global-state mutations that are unsafe mid-window on a partitioned
        kernel (e.g. churn degrading a *boundary* link's latency below the
        in-flight window) go through this: the partitioned kernel defers
        them to the next window edge, where every shard has reached a common
        virtual time and the next window is sized from the mutated
        parameters.  The single-loop kernel has no windows, so this is a
        plain :meth:`call_at`.  Returns ``None`` (barrier hooks are not
        cancellable).
        """
        self.call_at(when, fn, *args)
        return None

    @staticmethod
    def _checked_lookahead(lookahead: Optional[float]) -> Optional[float]:
        """``lookahead`` as both kernels accept it: ``None`` or positive."""
        if lookahead is not None and not lookahead > 0.0:
            raise SimulationError(f"lookahead must be positive, got {lookahead!r}")
        return lookahead

    def in_partition(self, partition: int):
        """Context manager routing scheduling calls to ``partition``.

        Deployment construction uses this to boot hosts, probes and fault
        schedules into the partition that owns them; a no-op here.
        """
        del partition
        return contextlib.nullcontext(self)

    def _push_triggered(self, ev: SimEvent) -> None:
        # fast path: a triggered event is processed at the current timestamp
        # and is not cancellable — no TimerHandle, no timer structure.
        ev.seq = self._seq = self._seq + 1
        live = self._live = self._live + 1
        if live > self._peak_pending:
            self._peak_pending = live
        self._ready.append(ev)

    @staticmethod
    def _process_event(ev: SimEvent) -> None:
        ev._processed = True
        callbacks, ev.callbacks = ev.callbacks, None
        for fn in callbacks:
            fn(ev)

    def _schedule(self, when: float, fn: Callable, args: tuple) -> TimerHandle:
        seq = self._seq = self._seq + 1
        handle = TimerHandle(when, seq, self, fn, args)
        live = self._live = self._live + 1
        if live > self._peak_pending:
            self._peak_pending = live
        self._timers_scheduled += 1
        if when <= self._now:
            # fires at the current timestamp: FIFO deque, no heap traffic
            self._ready.append(handle)
            return handle
        self._timer_gen += 1
        epoch = self._epoch
        if epoch is not None:
            idx = int((when - epoch) * self._inv_width)
            if idx <= self._cursor:
                # lands inside the bucket currently being drained (delays
                # shorter than the bucket width: layering costs, dispatch
                # delays).  A dedicated small heap keeps this O(log m)
                # whatever the batch size.
                heapq.heappush(self._imminent, (when, seq, handle))
            elif idx < self._nbuckets:
                self._buckets[idx].append((when, seq, handle))
                self._wheel_count += 1
            else:
                heapq.heappush(self._overflow, (when, seq, handle))
        else:
            heapq.heappush(self._overflow, (when, seq, handle))
        return handle

    # -- timer-wheel internals ---------------------------------------------
    def _pop_timer(self) -> None:
        """Remove the triple last returned by :meth:`_pull` from its home."""
        if self._head_imminent:
            heapq.heappop(self._imminent)
        else:
            self._batch_pos += 1

    def _pull(self) -> Optional[tuple]:
        """The next live timer triple in (when, seq) order, or None.  The
        triple is left in place; pop it with :meth:`_pop_timer`."""
        imminent = self._imminent
        while imminent and imminent[0][2]._state != _PENDING:
            heapq.heappop(imminent)
        while True:
            batch = self._batch
            pos = self._batch_pos
            size = len(batch)
            while pos < size:
                triple = batch[pos]
                if triple[2]._state == _PENDING:
                    self._batch_pos = pos
                    if imminent and imminent[0] < triple:
                        self._head_imminent = True
                        return imminent[0]
                    self._head_imminent = False
                    return triple
                pos += 1
            self._batch_pos = pos
            if imminent:
                # everything in `imminent` precedes every future bucket
                self._head_imminent = True
                return imminent[0]
            if self._wheel_count:
                cursor = self._cursor + 1
                buckets = self._buckets
                nbuckets = self._nbuckets
                while cursor < nbuckets and not buckets[cursor]:
                    cursor += 1
                if cursor < nbuckets:
                    self._cursor = cursor
                    bucket = buckets[cursor]
                    buckets[cursor] = []
                    self._wheel_count -= len(bucket)
                    bucket.sort()
                    self._batch = bucket
                    self._batch_pos = 0
                    continue
                self._wheel_count = 0  # pragma: no cover - defensive resync
            # wheel exhausted: build the next window around the overflow head
            overflow = self._overflow
            while overflow and overflow[0][2]._state != _PENDING:
                heapq.heappop(overflow)
            if not overflow:
                self._epoch = None
                self._cursor = -1
                self._batch = []
                self._batch_pos = 0
                return None
            epoch = overflow[0][0]
            window_end = epoch + self._span
            self._epoch = epoch
            self._cursor = -1
            self._wheel_rebuilds += 1
            buckets = self._buckets
            nbuckets = self._nbuckets
            inv_width = self._inv_width
            count = 0
            while overflow and overflow[0][0] < window_end:
                triple = heapq.heappop(overflow)
                if triple[2]._state != _PENDING:
                    continue
                idx = int((triple[0] - epoch) * inv_width)
                if idx >= nbuckets:  # pragma: no cover - float boundary guard
                    idx = nbuckets - 1
                buckets[idx].append(triple)
                count += 1
            self._wheel_count = count
            self._batch = []
            self._batch_pos = 0

    def _execute_ready(self, item) -> None:
        """Run one ``_ready`` entry (SimEvent or zero-delay TimerHandle)."""
        self._live -= 1
        self._events_processed += 1
        if item.__class__ is TimerHandle:
            item._state = _FIRED
            fn = item.fn
            args = item.args
            item.fn = None
            item.args = None
            fn(*args)
        else:
            item._processed = True
            callbacks, item.callbacks = item.callbacks, None
            for fn in callbacks:
                fn(item)

    def _execute_timer(self, handle: TimerHandle) -> None:
        when = handle.when
        if when > self._now:
            self._now = when
        handle._state = _FIRED
        fn = handle.fn
        args = handle.args
        handle.fn = None
        handle.args = None
        self._live -= 1
        self._events_processed += 1
        fn(*args)

    def _next_ready(self):
        """The live head of the same-timestamp FIFO, or None."""
        ready = self._ready
        while ready:
            item = ready[0]
            if item.__class__ is not TimerHandle or item._state == _PENDING:
                return item
            ready.popleft()
        return None

    # -- main loop ---------------------------------------------------------
    def step(self) -> bool:
        """Run one scheduled entry.  Returns False when nothing is pending."""
        ready_head = self._next_ready()
        timer_head = self._pull()
        if ready_head is not None and (
            timer_head is None
            or self._now < timer_head[0]
            or (self._now == timer_head[0] and ready_head.seq < timer_head[1])
        ):
            self._ready.popleft()
            self._execute_ready(ready_head)
            return True
        if timer_head is None:
            return False
        self._pop_timer()
        self._execute_timer(timer_head[2])
        return True

    def run(self, until: Optional[Any] = None, max_time: Optional[float] = None) -> Any:
        """Run the loop.

        Parameters
        ----------
        until:
            ``None`` — run until no events remain; a :class:`SimEvent` — run
            until that event is processed and return its value (raising its
            exception if it failed); a number — run until virtual time
            reaches that instant.
        max_time:
            Safety cap on virtual time; exceeding it raises
            :class:`SimulationError` (used by tests as a deadlock guard).
        """
        self._stopped = False
        target_event, target_time = self._targets(until, self._now)

        # The loop interleaves the same-timestamp FIFO with due timers in
        # exact (when, seq) order.  The next-timer triple is cached across
        # ready-FIFO drains: executed events can only add timers through
        # `_schedule`, which bumps `_timer_gen`, and cancellations are
        # caught by the handle-state check.
        ready = self._ready
        timer = None
        timer_gen = -1
        while not self._stopped:
            if target_event is not None and target_event._processed:
                break
            if timer is None or timer_gen != self._timer_gen or timer[2]._state != _PENDING:
                timer = self._pull()
                timer_gen = self._timer_gen
            if ready:
                # The FIFO drains whole while no timer is due at `now`, and up
                # to the due timer's seq while one is.  What its entries
                # append is at `now` with a later seq (`_schedule` sends
                # `when <= now` here) and a timer they schedule lies ahead,
                # so between entries only stop() and the target are checked.
                last = timer[1] if timer is not None and timer[0] <= self._now else None
                if last is None or ready[0].seq < last:
                    while ready:
                        item = ready.popleft()
                        if last is not None and item.seq > last:
                            ready.appendleft(item)
                            break
                        if item.__class__ is TimerHandle:
                            if item._state != _PENDING:
                                continue
                            self._live -= 1
                            self._events_processed += 1
                            item._state = _FIRED
                            fn = item.fn
                            args = item.args
                            item.fn = None
                            item.args = None
                            fn(*args)
                        else:
                            self._live -= 1
                            self._events_processed += 1
                            item._processed = True
                            callbacks = item.callbacks
                            item.callbacks = None
                            for fn in callbacks:
                                fn(item)
                        if self._stopped or (
                            target_event is not None and target_event._processed
                        ):
                            break
                    continue
            if timer is None:
                if target_event is not None and not target_event.triggered:
                    raise SimulationError(
                        f"simulation ran out of events while waiting for {target_event!r} "
                        "(deadlock: nobody will ever trigger it)"
                    )
                break
            when = timer[0]
            if target_time is not None and when > target_time:
                self._now = target_time
                break
            if max_time is not None and when > max_time:
                raise SimulationError(f"virtual time exceeded max_time={max_time}")
            self._pop_timer()
            self._execute_timer(timer[2])
            timer = None

        if target_event is not None and target_event.triggered:
            if target_event.ok:
                return target_event.value
            raise target_event.value
        return None

    @staticmethod
    def _targets(until: Optional[Any], now: float) -> tuple:
        """:meth:`run`'s ``until`` as ``(event, time)``, the other one None.
        A time before ``now`` is refused, as :meth:`call_at` refuses one: the
        clock never moves backwards."""
        if isinstance(until, SimEvent):
            return until, None
        if until is None:
            return None, None
        target_time = float(until)
        if target_time < now:
            raise SimulationError(
                f"cannot run until the past (until={target_time!r} < now={now!r})"
            )
        return None, target_time

    def stop(self) -> None:
        """Stop :meth:`run` at the next iteration (used by watchdogs)."""
        self._stopped = True

    # -- introspection -----------------------------------------------------
    def pending_count(self) -> int:
        """Number of *live* scheduled entries (cancelled entries awaiting
        lazy deletion are not counted)."""
        return self._live

    def stats(self) -> SimStats:
        """Kernel counters: events processed, timers scheduled, cancellations,
        peak pending entries, wheel-window rebuilds."""
        return SimStats(
            events_processed=self._events_processed,
            timers_scheduled=self._timers_scheduled,
            cancellations=self._cancellations,
            peak_pending=self._peak_pending,
            wheel_rebuilds=self._wheel_rebuilds,
        )


class ReferenceSimulator(Simulator):
    """The historical monolithic-heap scheduler, kept as an executable
    ordering specification.

    Everything — zero-delay callbacks, triggered events, near and far
    timers — goes through one ``heapq`` ordered by ``(when, seq)``, exactly
    like the pre-wheel kernel.  The tier-1 determinism tests run recorded
    scenarios on both schedulers and assert trace equality.  Cancellation
    is honoured (dead entries are skipped when popped) so the two kernels
    accept the same API; it takes no options — there is no wheel to size.
    """

    def __init__(self) -> None:
        super().__init__()
        self._heap: List = []

    def _push_triggered(self, ev: SimEvent) -> None:
        self._schedule(self._now, self._process_event, (ev,))

    def _schedule(self, when: float, fn: Callable, args: tuple) -> TimerHandle:
        seq = self._seq = self._seq + 1
        handle = TimerHandle(when, seq, self, fn, args)
        live = self._live = self._live + 1
        if live > self._peak_pending:
            self._peak_pending = live
        self._timers_scheduled += 1
        heapq.heappush(self._heap, (when, seq, handle))
        return handle

    def _peek_live(self) -> Optional[TimerHandle]:
        heap = self._heap
        while heap:
            handle = heap[0][2]
            if handle._state == _PENDING:
                return handle
            heapq.heappop(heap)
        return None

    def step(self) -> bool:
        handle = self._peek_live()
        if handle is None:
            return False
        heapq.heappop(self._heap)
        self._execute_timer(handle)
        return True

    def run(self, until: Optional[Any] = None, max_time: Optional[float] = None) -> Any:
        self._stopped = False
        target_event, target_time = self._targets(until, self._now)

        while not self._stopped:
            if target_event is not None and target_event._processed:
                break
            head = self._peek_live()
            if head is None:
                if target_event is not None and not target_event.triggered:
                    raise SimulationError(
                        f"simulation ran out of events while waiting for {target_event!r} "
                        "(deadlock: nobody will ever trigger it)"
                    )
                break
            if target_time is not None and head.when > target_time:
                self._now = target_time
                break
            if max_time is not None and head.when > max_time:
                raise SimulationError(f"virtual time exceeded max_time={max_time}")
            heapq.heappop(self._heap)
            self._execute_timer(head)

        if target_event is not None and target_event.triggered:
            if target_event.ok:
                return target_event.value
            raise target_event.value
        return None
