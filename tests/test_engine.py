"""Unit tests for the discrete-event simulation kernel."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.simnet.buffers import StreamBuffer
from repro.simnet.engine import (
    AllOf,
    AnyOf,
    Interrupt,
    Process,
    ReferenceSimulator,
    SimEvent,
    SimulationError,
    Simulator,
)
from repro.simnet.partition import PartitionedSimulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    t = sim.timeout(1.5)
    sim.run()
    assert t.triggered
    assert sim.now == pytest.approx(1.5)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_later(2.0, lambda: order.append("b"))
    sim.call_later(1.0, lambda: order.append("a"))
    sim.call_later(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for name in "abcd":
        sim.call_later(1.0, lambda n=name: order.append(n))
    sim.run()
    assert order == list("abcd")


def test_event_succeed_carries_value():
    sim = Simulator()
    ev = sim.event()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    ev.succeed(42)
    sim.run()
    assert seen == [42]
    assert ev.ok and ev.processed


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")


def test_delayed_succeed():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("later", delay=2.0)
    sim.run(until=ev)
    assert sim.now == pytest.approx(2.0)
    assert ev.value == "later"


KERNELS = [Simulator, ReferenceSimulator]


@pytest.mark.parametrize("kernel", KERNELS)
def test_delayed_trigger_is_one_engine_event_in_the_timers_slot(kernel):
    sim = kernel()
    order = []
    ev = sim.event(name="op")
    ev.add_callback(lambda e: order.append(("op", e.value, sim.now)))
    ev.succeed("v", delay=1.0)  # takes its (1.0, seq) slot here ...
    sim.call_later(1.0, order.append, "later-timer")  # ... ahead of this one
    failing = sim.event(name="failing")
    failing.add_callback(lambda e: order.append(("failing", e.ok)))
    failing.fail(ValueError("boom"), delay=1.0)
    tick = sim.timeout(1.0, value="tick")
    tick.add_callback(lambda e: order.append(("tick", e.value)))
    assert not ev.triggered and not failing.triggered and not tick.triggered
    before = sim.stats().events_processed
    sim.run()
    assert order == [("op", "v", 1.0), "later-timer", ("failing", False), ("tick", "tick")]
    assert ev.processed and failing.processed and tick.processed
    assert isinstance(failing.value, ValueError)
    # four loop entries: three delayed triggers and one plain timer
    assert sim.stats().events_processed - before == 4


@pytest.mark.parametrize("kernel", KERNELS)
def test_delayed_trigger_arguments_are_validated_at_the_call(kernel):
    sim = kernel()
    ev = sim.event(name="op")
    with pytest.raises(SimulationError, match="exception instance"):
        ev.fail("oops", delay=1.0)
    assert sim.pending_count() == 0  # nothing was left to blow up inside run()
    ev.succeed(1)
    with pytest.raises(SimulationError, match="event op already triggered"):
        ev.succeed(2, delay=1.0)
    with pytest.raises(SimulationError, match="event op already triggered"):
        ev.fail(ValueError("late"), delay=1.0)
    sim.run()
    assert ev.value == 1


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("loser", ["succeed", "fail", "timeout"])
def test_delayed_trigger_losing_a_race_names_its_event(kernel, loser):
    """A direct trigger overtaking a delayed one is the same error whichever
    of the three delayed paths lost, and it names the event."""
    sim = kernel()
    if loser == "timeout":
        ev = sim.timeout(2.0, name="raced")
    else:
        ev = sim.event(name="raced")
        if loser == "succeed":
            ev.succeed("slow", delay=2.0)
        else:
            ev.fail(ValueError("slow"), delay=2.0)
    sim.call_later(1.0, ev.succeed, "fast")
    with pytest.raises(SimulationError, match="event raced already triggered"):
        sim.run()
    assert ev.value == "fast" and sim.now == 2.0


def test_callback_after_processing_runs_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(7)
    sim.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == [7]


def test_chain_propagates_value():
    sim = Simulator()
    a, b = sim.event(), sim.event()
    a.chain(b)
    a.succeed("x")
    sim.run()
    assert b.value == "x"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_cannot_schedule_in_the_past():
    for kernel in KERNELS:
        sim = kernel()
        sim.call_later(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match=r"in the past \(t=1.0 < now=5.0\)"):
            sim.call_at(1.0, lambda: None)
        with pytest.raises(SimulationError, match=r"in the past \(delay=-0.5\)"):
            sim.call_later(-0.5, lambda: None)


def test_bad_kernel_options_are_rejected():
    with pytest.raises(SimulationError, match="wheel_width must be positive"):
        Simulator(wheel_width=0.0)
    with pytest.raises(SimulationError, match="wheel_buckets >= 1"):
        Simulator(wheel_buckets=0)
    with pytest.raises(SimulationError, match="periodic interval must be positive, got 0"):
        Simulator().every(0, lambda: None)

    class SingleLoop(Simulator):
        pass

    # only Simulator itself dispatches partitions=N to the partitioned kernel
    with pytest.raises(SimulationError, match="SingleLoop does not support partitions=2"):
        SingleLoop(partitions=2)


def test_process_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(proc())
    result = sim.run(until=p)
    assert result == "done"
    assert sim.now == pytest.approx(1.0)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_process_receives_event_values():
    sim = Simulator()

    def proc():
        value = yield sim.timeout(0.5, value="tick")
        return value

    assert sim.run(until=sim.process(proc())) == "tick"


def test_process_exception_propagates_to_run():
    sim = Simulator()

    def proc():
        yield sim.timeout(0.1)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        sim.run(until=sim.process(proc()))


def test_failed_event_raises_inside_process():
    sim = Simulator()
    ev = sim.event()

    def proc():
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught {exc}"

    p = sim.process(proc())
    ev.fail(RuntimeError("bad"))
    assert sim.run(until=p) == "caught bad"


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def proc():
        yield 42

    with pytest.raises(SimulationError):
        sim.run(until=sim.process(proc()))


def test_processes_can_wait_on_each_other():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return 99

    def parent():
        value = yield sim.process(child())
        return value + 1

    assert sim.run(until=sim.process(parent())) == 100


def test_process_interrupt():
    sim = Simulator()

    def proc():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            return ("interrupted", intr.cause)

    p = sim.process(proc())
    sim.call_later(1.0, p.interrupt, "reason")
    assert sim.run(until=p) == ("interrupted", "reason")


def test_all_of_collects_values():
    sim = Simulator()
    events = [sim.timeout(i, value=i) for i in (3, 1, 2)]
    combo = sim.all_of(events)
    assert sim.run(until=combo) == [3, 1, 2]
    assert sim.now == pytest.approx(3)


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    combo = AllOf(sim, [])
    sim.run()
    assert combo.triggered and combo.value == []


def test_any_of_returns_first():
    sim = Simulator()
    events = [sim.timeout(5, value="slow"), sim.timeout(1, value="fast")]
    idx, value = sim.run(until=sim.any_of(events))
    assert (idx, value) == (1, "fast")
    assert sim.now == pytest.approx(1)


def test_any_of_requires_events():
    sim = Simulator()
    with pytest.raises(SimulationError):
        AnyOf(sim, [])


def test_run_until_time():
    sim = Simulator()
    fired = []
    sim.call_later(1.0, lambda: fired.append(1))
    sim.call_later(10.0, lambda: fired.append(2))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == pytest.approx(5.0)


def test_run_detects_deadlock():
    for kernel in KERNELS:
        sim = kernel()
        ev = sim.event()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=ev)


def test_max_time_guard():
    for kernel in KERNELS:
        sim = kernel()

        def forever():
            while True:
                yield sim.timeout(1.0)

        sim.process(forever())
        with pytest.raises(SimulationError, match="virtual time exceeded max_time=10.0"):
            sim.run(max_time=10.0)


@pytest.mark.parametrize("kernel", KERNELS)
def test_step_runs_one_entry_at_a_time(kernel):
    sim = kernel()
    fired = []
    sim.call_later(2.0, fired.append, "b")
    sim.call_later(1.0, fired.append, "a")
    assert sim.step() and fired == ["a"] and sim.now == 1.0
    assert sim.step() and fired == ["a", "b"] and sim.now == 2.0
    assert not sim.step()


def test_stop_interrupts_run():
    sim = Simulator()
    sim.call_later(1.0, sim.stop)
    sim.call_later(100.0, lambda: None)
    sim.run()
    assert sim.now == pytest.approx(1.0)
    assert sim.pending_count() == 1


# ---------------------------------------------------------------------------
# TimerHandle / cancellation
# ---------------------------------------------------------------------------


def test_call_later_returns_cancellable_handle():
    sim = Simulator()
    fired = []
    keep = sim.call_later(1.0, lambda: fired.append("keep"))
    drop = sim.call_later(1.0, lambda: fired.append("drop"))
    assert drop.cancel() is True
    assert drop.cancelled and not drop.fired
    sim.run()
    assert fired == ["keep"]
    assert keep.fired


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    handle = sim.call_later(0.5, lambda: None)
    sim.run()
    assert handle.fired
    assert handle.cancel() is False


def test_double_cancel_counts_once():
    sim = Simulator()
    handle = sim.call_later(0.5, lambda: None)
    assert handle.cancel() is True
    assert handle.cancel() is False
    assert sim.stats().cancellations == 1
    assert sim.pending_count() == 0


def test_cancel_zero_delay_entry():
    sim = Simulator()
    fired = []
    handle = sim.call_later(0.0, lambda: fired.append(1))
    handle.cancel()
    sim.run()
    assert fired == []


def test_pending_count_reports_live_entries_only():
    sim = Simulator()
    handles = [sim.call_later(float(i + 1), lambda: None) for i in range(5)]
    assert sim.pending_count() == 5
    handles[1].cancel()
    handles[3].cancel()
    # dead entries await lazy deletion but are not reported
    assert sim.pending_count() == 3
    sim.run()
    assert sim.pending_count() == 0


def test_periodic_task_cancel_removes_scheduled_tick():
    sim = Simulator()
    task = sim.every(0.1, lambda: None)
    assert sim.pending_count() == 1
    task.cancel()
    assert sim.pending_count() == 0
    sim.run()  # terminates: no dead tick left behind
    assert task.runs == 0
    assert sim.now == 0.0


def test_stats_counters():
    sim = Simulator()
    sim.call_later(0.5, lambda: None)
    cancelled = sim.call_later(1.0, lambda: None)
    cancelled.cancel()
    ev = sim.event()
    ev.succeed("x")
    sim.run()
    stats = sim.stats()
    assert stats.events_processed == 2  # the timer and the triggered event
    assert stats.timers_scheduled == 2
    assert stats.cancellations == 1
    assert stats.peak_pending >= 2
    assert stats.as_dict()["events_processed"] == 2


# ---------------------------------------------------------------------------
# Process.interrupt: stale-resume regression
# ---------------------------------------------------------------------------


def test_interrupt_detaches_abandoned_event():
    """A later firing of the event an interrupted process was waiting on
    must not re-enter the generator at the stale yield point."""
    sim = Simulator()
    abandoned = sim.event(name="abandoned")
    log = []

    def proc():
        try:
            value = yield abandoned
            log.append(("abandoned-value", value))
        except Interrupt:
            log.append("interrupted")
        value = yield sim.timeout(5.0, value="after")
        log.append(value)
        return "done"

    p = sim.process(proc())
    sim.call_later(1.0, p.interrupt)
    # the abandoned event fires *after* the interrupt and before the second
    # yield completes: with the stale callback still attached this resumed
    # the generator early with value "stale".
    sim.call_later(2.0, abandoned.succeed, "stale")
    assert sim.run(until=p) == "done"
    assert log == ["interrupted", "after"]
    assert sim.now == pytest.approx(6.0)


def test_interrupt_still_delivers_cause():
    sim = Simulator()

    def proc():
        try:
            yield sim.timeout(10.0)
        except Interrupt as intr:
            return intr.cause

    p = sim.process(proc())
    sim.call_later(0.5, p.interrupt, "why")
    assert sim.run(until=p) == "why"


# ---------------------------------------------------------------------------
# timer wheel: boundaries, overflow, ordering
# ---------------------------------------------------------------------------


def test_wheel_bucket_boundary_times():
    """Timers exactly on bucket edges and window edges fire in time order."""
    sim = Simulator(wheel_width=1e-3, wheel_buckets=4)  # window = 4 ms
    fired = []
    for delay in (0.004, 0.001, 0.0, 0.002, 0.0039999, 0.008, 0.0040001, 0.012, 0.003):
        sim.call_later(delay, lambda d=delay: fired.append(d))
    sim.run()
    assert fired == sorted(fired)
    assert sim.now == pytest.approx(0.012)


def test_wheel_overflow_rebuild():
    """Timers far past the horizon drain window by window."""
    sim = Simulator(wheel_width=1e-3, wheel_buckets=8)  # window = 8 ms
    fired = []
    delays = [i * 0.0075 for i in range(40)]  # spans many windows
    rng = random.Random(7)
    rng.shuffle(delays)
    for delay in delays:
        sim.call_later(delay, lambda d=delay: fired.append(d))
    sim.run()
    assert fired == sorted(delays)
    assert sim.stats().wheel_rebuilds >= 2


def test_schedule_into_current_bucket_preserves_order():
    """Sub-bucket-width delays land before later same-bucket timers."""
    sim = Simulator(wheel_width=1.0, wheel_buckets=4)
    fired = []
    sim.call_later(0.9, lambda: fired.append("late"))

    def early():
        fired.append("first")
        # now=0.5; 0.2 lands inside the currently-draining bucket, before
        # the 0.9 entry that is already sorted into the batch
        sim.call_later(0.2, lambda: fired.append("second"))

    sim.call_later(0.5, early)
    sim.run()
    assert fired == ["first", "second", "late"]


def test_same_time_fifo_across_structures():
    """Entries at one timestamp fire in scheduling order regardless of the
    structure (wheel bucket vs. triggered-event FIFO) they came from."""
    sim = Simulator()
    fired = []
    sim.call_later(1.0, lambda: fired.append("timer-a"))

    def trigger():
        fired.append("timer-b")
        ev = sim.event()
        ev.add_callback(lambda e: fired.append("event"))
        ev.succeed(None)
        sim.call_later(0.0, lambda: fired.append("zero-delay"))

    sim.call_later(1.0, trigger)
    sim.call_later(1.0, lambda: fired.append("timer-c"))
    sim.run()
    assert fired == ["timer-a", "timer-b", "timer-c", "event", "zero-delay"]


def test_run_until_time_with_wheel_boundaries():
    sim = Simulator(wheel_width=1e-3, wheel_buckets=4)
    fired = []
    for delay in (0.001, 0.005, 0.02):
        sim.call_later(delay, lambda d=delay: fired.append(d))
    sim.run(until=0.005)
    assert fired == [0.001, 0.005]
    assert sim.now == pytest.approx(0.005)
    assert sim.pending_count() == 1


# ---------------------------------------------------------------------------
# determinism: trace equality with the reference heap scheduler
# ---------------------------------------------------------------------------


def _recorded_scenario(sim, seed=0xFEED):
    """A seeded storm of timers, cancellations, events and processes; returns
    the recorded (time, label) trace."""
    rng = random.Random(seed)
    trace = []
    cancellable = []

    def fire(label):
        trace.append((sim.now, label))
        # randomly schedule follow-ups, including ties on the same timestamp
        for _ in range(rng.randrange(0, 3)):
            delay = rng.choice([0.0, 0.0, rng.random() * 0.002, rng.random() * 0.5])
            handle = sim.call_later(delay, fire, f"{label}/{delay:.6f}")
            if rng.random() < 0.3:
                cancellable.append(handle)
        if cancellable and rng.random() < 0.4:
            cancellable.pop(rng.randrange(len(cancellable))).cancel()

    for i in range(40):
        sim.call_later(rng.random() * 0.01, fire, f"seed{i}")

    def proc(idx):
        for _ in range(rng.randrange(1, 4)):
            value = yield sim.timeout(rng.random() * 0.05, value=idx)
            trace.append((sim.now, f"proc{idx}={value}"))
        return idx

    procs = [sim.process(proc(i)) for i in range(5)]
    done = sim.all_of(procs)
    done.add_callback(lambda ev: trace.append((sim.now, f"all={ev.value}")))
    sim.run(max_time=30.0)
    return trace


def test_trace_equality_with_reference_heap():
    """The wheel kernel executes the exact (when, seq) order of the
    monolithic-heap kernel: identical trace, order and timestamps."""
    wheel_trace = _recorded_scenario(Simulator())
    heap_trace = _recorded_scenario(ReferenceSimulator())
    assert len(wheel_trace) > 100
    assert wheel_trace == heap_trace


def test_trace_equality_with_tiny_wheel():
    """Window rebuilds and bucket-boundary handling do not disturb order."""
    wheel_trace = _recorded_scenario(Simulator(wheel_width=3e-4, wheel_buckets=4))
    heap_trace = _recorded_scenario(ReferenceSimulator())
    assert wheel_trace == heap_trace


def test_periodic_task_self_cancel_from_callback():
    """A periodic callback cancelling its own task must stop the task cold:
    no dead tick rescheduled, no further runs, run() terminates."""
    sim = Simulator()
    holder = {}

    def tick():
        holder["task"].cancel()

    holder["task"] = sim.every(0.1, tick)
    sim.run()
    assert holder["task"].runs == 1
    assert sim.now == pytest.approx(0.1)
    assert sim.pending_count() == 0


# ---------------------------------------------------------------------------
# the clock never moves backwards
# ---------------------------------------------------------------------------

EVERY_KERNEL = {
    "wheel": Simulator,
    "heap": ReferenceSimulator,
    "partitioned": lambda: Simulator(partitions=2),
}


@pytest.mark.parametrize("kernel", EVERY_KERNEL.values(), ids=EVERY_KERNEL.keys())
def test_run_until_a_past_instant_is_refused_and_leaves_the_clock(kernel):
    sim = kernel()
    fired = []
    sim.call_later(1.0, fired.append, 1.0)
    sim.call_later(5.0, fired.append, 5.0)
    sim.run(until=2.0)
    with pytest.raises(SimulationError, match=r"until=1\.5 < now=2\.0"):
        sim.run(until=1.5)
    assert sim.now == 2.0
    # a relative delay still counts from the instants already executed
    sim.call_later(1.0, fired.append, 3.0)
    sim.run()
    assert fired == [1.0, 3.0, 5.0] and sim.now == 5.0


# ---------------------------------------------------------------------------
# event() and completed() set a SimEvent's slots themselves
# ---------------------------------------------------------------------------

_UNSET = object()


def slot_state(ev, sim):
    """Every slot of ``ev`` (``_UNSET`` for one never assigned; ``sim``
    as whether it is ``sim``) and its class."""
    state = {name: getattr(ev, name, _UNSET) for name in SimEvent.__slots__}
    state["sim"] = state["sim"] is sim
    state["class"] = type(ev)
    return state


@pytest.mark.parametrize("kernel", EVERY_KERNEL.values(), ids=EVERY_KERNEL.keys())
def test_event_and_completed_set_every_slot_as_the_constructor_and_succeed_do(kernel):
    """``Simulator.event`` builds what ``SimEvent(sim, name)`` builds, and
    ``completed(v, name)`` what ``SimEvent(sim, name).succeed(v)`` leaves —
    the slots, the counters and the callbacks' slot in the loop — on each
    kernel: both calls build the event without ``__init__``, so this
    guards their copies of the slot list."""
    built, made = kernel(), kernel()
    assert slot_state(made.event("op"), made) == slot_state(SimEvent(built, "op"), built)
    assert slot_state(made.event(), made) == slot_state(SimEvent(built), built)

    value = object()
    log = []
    for sim, ev in ((built, SimEvent(built, "done").succeed(value)),
                    (made, made.completed(value, "done"))):
        assert ev.sim is sim and ev.triggered and not ev.processed and ev.value is value
        sim.call_later(0.0, log.append, (sim is made, "timer"))
        ev.add_callback(lambda e, mine=sim is made: log.append((mine, e.value)))
    twins = made.completed(None), SimEvent(built).succeed(None)
    assert slot_state(twins[0], made) == slot_state(twins[1], built)
    assert made.stats().as_dict() == built.stats().as_dict()
    assert made.pending_count() == built.pending_count()
    built.run()
    made.run()
    assert log == [(False, value), (False, "timer"), (True, value), (True, "timer")]
    assert made.stats().as_dict() == built.stats().as_dict()


# ---------------------------------------------------------------------------
# the ready drain: one pass of the run loop per triggered event
# ---------------------------------------------------------------------------


def same_on_both_kernels(scenario):
    """``scenario(sim)``'s observation on the wheel kernel, asserted equal to
    the reference heap's."""
    wheel = scenario(Simulator())
    assert wheel == scenario(ReferenceSimulator())
    return wheel


def burst_at(sim, when, names, log):
    """At ``when``, trigger one event per name, each logging ``(now, name)``
    when processed; a far timer stays pending throughout."""
    events = [sim.event(name=name) for name in names]
    for ev in events:
        ev.add_callback(lambda e: log.append((sim.now, e.name)))
    sim.call_later(10.0, log.append, "far")
    sim.call_later(when, lambda: [ev.succeed() for ev in events])
    return events


def test_a_run_ending_on_its_event_mid_drain_leaves_the_rest_queued_in_order():
    def scenario(sim):
        log = []
        events = burst_at(sim, 1.0, "abcde", log)
        sim.run(until=events[1])
        first = (list(log), sim.now, sim.pending_count())
        del log[:]
        sim.run()
        return first, log

    first, rest = same_on_both_kernels(scenario)
    assert first == ([(1.0, "a"), (1.0, "b")], 1.0, 4)
    assert rest == [(1.0, "c"), (1.0, "d"), (1.0, "e"), "far"]


def test_stop_from_a_callback_inside_a_drain_stops_right_after_that_entry():
    def scenario(sim):
        log = []
        events = burst_at(sim, 1.0, "abc", log)
        events[1].add_callback(lambda _e: sim.stop())
        sim.run()
        first = (list(log), sim.now)
        sim.run()
        return first, log

    first, log = same_on_both_kernels(scenario)
    assert first == ([(1.0, "a"), (1.0, "b")], 1.0)
    assert log == [(1.0, "a"), (1.0, "b"), (1.0, "c"), "far"]


def test_a_cancelled_zero_delay_handle_is_skipped_and_not_counted():
    def scenario(sim):
        log = []
        sim.call_later(10.0, log.append, "far")

        def burst():
            sim.call_later(0.0, log.append, "a")
            sim.call_later(0.0, log.append, "b").cancel()
            sim.call_later(0.0, log.append, "c")

        sim.call_later(1.0, burst)
        sim.run(until=5.0)
        stats = sim.stats()
        return log, stats.events_processed, stats.cancellations

    # the burst's timer and two of its three callbacks
    assert same_on_both_kernels(scenario) == (["a", "c"], 3, 1)


def test_a_processed_event_runs_a_new_callback_at_once_and_has_none_to_remove():
    def scenario(sim):
        seen = []
        now, later = sim.event(), sim.event()
        for ev in (now, later):
            ev.add_callback(seen.append)
        now.succeed("now")
        later.succeed("later", delay=1.0)  # processed by its timer
        sim.run()
        out = []
        for ev in (now, later):
            del seen[:]
            ev.add_callback(seen.append)
            out.append((seen == [ev], ev.remove_callback(seen.append), ev.value))
        return out

    assert same_on_both_kernels(scenario) == [(True, False, "now"), (True, False, "later")]


def test_a_failed_event_holds_its_exception_as_value_and_raises_it_in_a_waiter():
    def scenario(sim):
        out = []
        for delay in (0.0, 1.0):
            exc = ValueError(f"failed after {delay}")
            ev = sim.event()

            def waiter(ev=ev):
                try:
                    yield ev
                except ValueError as caught:
                    return caught

            waiting = sim.process(waiter())
            ev.fail(exc, delay=delay)
            caught = sim.run(until=waiting)
            out.append((ev.value is exc, ev.ok, caught is exc))
        return out

    assert same_on_both_kernels(scenario) == [(True, False, True)] * 2


# ---------------------------------------------------------------------------
# differential: the wheel, at its default size and a tiny one, against the
# reference heap on random schedules
# ---------------------------------------------------------------------------

#: the delay classes of :func:`random_schedule`, for the default wheel's
#: 64 µs buckets and ~33 ms horizon
DELAY_CLASSES = ("zero", "sub-bucket", "buckets", "past-horizon", "tie")
TIE_GRID = 1e-3
WHEELS = {
    "default": Simulator,
    "tiny": lambda: Simulator(wheel_width=2e-5, wheel_buckets=4),
}


def random_schedule(sim, seed, budget, seeds, splits, finish):
    """A seeded program of timers, delayed triggers, timeouts, events made
    already complete, reads a stream buffer satisfies at once and
    cancellations, run on ``sim`` in pieces: each split is a ``step()``
    (``None``) or a ``run(until=now + d)``, then the rest runs through
    ``run()`` or ``step()`` by ``step()`` (``finish``).  Every fired entry
    posts up to two more (``budget`` in all) and may cancel an earlier
    handle, pending or not; the choices are drawn in firing order, so a
    kernel that orders one entry differently draws a different program.
    Returns the trace and the kernel's counters."""
    rng = random.Random(seed)
    trace, handles, left = [], [], [budget]
    stream = StreamBuffer(sim)

    def when_from(now):
        kind = rng.choice(DELAY_CLASSES)
        if kind == "zero":
            return now
        if kind == "sub-bucket":
            return now + rng.random() * 64e-6
        if kind == "buckets":
            return now + rng.random() * 5e-3
        if kind == "past-horizon":
            return now + 0.034 + rng.random()
        return (math.floor(now / TIE_GRID) + rng.randrange(1, 3)) * TIE_GRID

    def act(label):
        trace.append((sim.now, label))
        for _ in range(rng.choice((0, 1, 1, 2))):
            if left[0] > 0:
                left[0] -= 1
                post(f"{label}.{left[0]}")
        if handles and rng.random() < 0.3:
            handle = handles.pop(rng.randrange(len(handles)))
            trace.append((sim.now, "cancel", handle.seq, handle.cancel()))

    def post(label):
        now = sim.now
        when = when_from(now)
        kind = rng.choice(
            ("later", "at", "partition", "succeed", "fail", "timeout", "completed", "read")
        )
        if kind == "later":
            handles.append(sim.call_later(when - now, act, label))
        elif kind == "at":
            handles.append(sim.call_at(when, act, label))
        elif kind == "partition":
            handles.append(sim.call_at_partition(0, when, act, label))
        elif kind == "completed":
            sim.completed(label, label).add_callback(lambda e: act(f"{label}:{e.value}"))
        elif kind == "read":
            stream.append(bytes(range(rng.randrange(1, 9))))
            ev = stream.recv_exact(rng.randrange(stream.available() + 1))
            ev.add_callback(lambda e: act(f"{label}:{e.value.hex()}"))
        else:
            ev = sim.timeout(when - now, label) if kind == "timeout" else sim.event(label)
            ev.add_callback(lambda e: act(f"{label}:{'ok' if e.ok else 'failed'}"))
            if kind == "succeed":
                ev.succeed(label, delay=when - now)
            elif kind == "fail":
                ev.fail(KeyError(label), delay=when - now)

    for i in range(seeds):
        post(f"s{i}")
    for split in splits:
        if split is None:
            trace.append(("step", sim.step(), sim.now))
        else:
            sim.run(until=sim.now + split)
            trace.append(("until", sim.now))
    if finish == "run":
        sim.run()
    else:
        while sim.step():
            pass
    stats = sim.stats()
    return trace, stats.events_processed, stats.timers_scheduled, stats.cancellations


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    budget=st.integers(min_value=0, max_value=80),
    seeds=st.integers(min_value=1, max_value=12),
    splits=st.lists(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.05, allow_nan=False)),
        max_size=6,
    ),
    finish=st.sampled_from(["run", "step"]),
)
def test_the_wheel_runs_any_schedule_as_the_reference_heap_does(seed, budget, seeds, splits, finish):
    """Cancels before and after a timer fires, zero delays, sub-bucket
    delays scheduled while their bucket drains, timers past the horizon,
    delayed succeed / fail and Timeouts, ``completed()`` events and
    satisfied reads, ties at one instant, run(until=t) and step(): same
    trace and same events, timers and cancellations — and on the
    partitioned kernel with all its work in one partition, where the
    program steps nowhere (it has no ``step()``)."""
    reference = random_schedule(ReferenceSimulator(), seed, budget, seeds, splits, finish)
    assert len(reference[0]) >= seeds
    for make in WHEELS.values():
        assert random_schedule(make(), seed, budget, seeds, splits, finish) == reference
    if finish == "run" and None not in splits:
        partitioned = PartitionedSimulator(partitions=2)
        assert random_schedule(partitioned, seed, budget, seeds, splits, finish) == reference
