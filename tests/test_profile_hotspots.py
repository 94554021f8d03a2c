"""``tools/profile_hotspots.py`` profiles what perfbench times, the way it
times it."""

import gc

from tests.helpers import load_tool


def test_the_window_is_profiled_with_the_collector_paused(monkeypatch, capsys):
    """perfbench runs a batch's set-up with the cyclic collector on and its
    window with the collector paused; the tool does the same, or a
    collection pause is charged to whichever function allocates when it
    strikes.  ``--quick``: both windows (the census's and the profiled
    one) ran paused, both set-ups collector-on, and the report came out."""
    tool = load_tool("profile_hotspots")
    import workloads  # perfbench's, on the path the tool put it on

    real = workloads.WORKLOADS["kernel_timers"]
    seen = []

    class Watched:
        def __init__(self, batch):
            self.batch = batch

        def run(self):
            seen.append(("run", gc.isenabled()))
            self.batch.run()

        def finish(self):
            return self.batch.finish()

    def build(seed, scale):
        seen.append(("build", gc.isenabled()))
        return Watched(real.build(seed, scale))

    watched = workloads.Workload(real.name, real.unit, build)
    monkeypatch.setitem(workloads.WORKLOADS, "kernel_timers", watched)
    assert tool.main(["kernel_timers", "--quick", "--top", "3"]) == 0
    assert seen == [("build", True), ("run", False)] * 2
    assert gc.isenabled()
    report = capsys.readouterr().out
    assert "== one window of kernel_timers" in report


def test_the_timer_census_counts_every_timer_the_window_schedules():
    """The census counts a timer at the call that files it, so on a QUICK
    ``kernel_timers`` window its total is the window's
    ``SimStats.timers_scheduled``."""
    tool = load_tool("profile_hotspots")
    import workloads  # perfbench's, on the path the tool put it on

    batch = workloads.WORKLOADS["kernel_timers"].build(1, workloads.QUICK)
    before = batch.sim.stats().timers_scheduled
    timers, triggered = tool.census(batch.run)
    scheduled = batch.sim.stats().timers_scheduled - before
    assert scheduled > 0 and sum(timers.values()) == scheduled
    assert sum(triggered.values()) > 0


def test_the_event_census_counts_every_event_the_window_triggers():
    """Every event the kernel files in its ready FIFO is counted, whichever
    call files it (``_push_triggered`` or ``completed``): on a QUICK
    ``kernel_timers`` window the total is the window's sequence numbers
    that are not timers — processed, pending or cancelled entries, less
    the timers."""
    tool = load_tool("profile_hotspots")
    import workloads  # perfbench's, on the path the tool put it on

    batch = workloads.WORKLOADS["kernel_timers"].build(1, workloads.QUICK)
    sim = batch.sim

    def entries():
        stats = sim.stats()
        return (
            stats.events_processed + sim.pending_count() + stats.cancellations
            - stats.timers_scheduled
        )

    before = entries()
    _timers, triggered = tool.census(batch.run)
    assert sum(triggered.values()) == entries() - before > 0
