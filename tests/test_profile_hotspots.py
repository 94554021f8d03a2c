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
