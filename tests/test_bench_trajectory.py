"""``tools/bench_trajectory.py``: the per-PR perfbench trajectory at the root."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.helpers import REPO, load_tool


@pytest.fixture
def tool(tmp_path, monkeypatch):
    module = load_tool("bench_trajectory")
    monkeypatch.setattr(module, "TRAJECTORY", tmp_path / "BENCH_trajectory.jsonl")
    monkeypatch.setattr(module, "CHANGES", tmp_path / "CHANGES.md")
    return module


def result_file(tmp_path) -> Path:
    """A result file shaped like ``perfbench/run.py``'s, catalogue from
    BENCHMARK.json, one ladder workload and one without rungs."""
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: index for index, m in enumerate(spec["per_layer"])}
    no_rungs = {k: v for k, v in per_layer.items() if not k.endswith(".events_per_rt")}
    row = {"unit": "s", "median": 0.5, "q1": 0.4, "q3": 0.6, "n": 5, "values": [0.5] * 5}
    entry = {"end_to_end": {"wall_s": row, "setup_s": row, "peak_rss_mb": row}, "failed": 0}
    path = tmp_path / "result-seed1.json"
    path.write_text(json.dumps({
        "fingerprint": {"commit": "abc", "seed": 1, "run_seconds": 8.0},
        "workloads": {
            "stack_pingpong": {**entry, "per_layer": per_layer},
            "kernel_timers": {**entry, "per_layer": no_rungs},
        },
    }))
    return path


def test_a_line_holds_medians_quartiles_the_26_counters_and_events_per_rung(tool, tmp_path):
    line = tool.line_of(17, "zero-copy receive", result_file(tmp_path))
    assert (line["pr"], line["title"]) == (17, "zero-copy receive")
    assert line["fingerprint"]["commit"] == "abc"
    ladder, bare = line["workloads"]["stack_pingpong"], line["workloads"]["kernel_timers"]
    assert ladder["end_to_end"]["wall_s"] == {"median": 0.5, "q1": 0.4, "q3": 0.6, "n": 5}
    assert len(ladder["counters"]) == len(bare["counters"]) == 26
    assert "simnet.engine.events" in ladder["counters"]
    assert "abstraction.routing.relay_bytes_forwarded" in ladder["counters"]
    assert not any(k.endswith((".calls", ".self_s", "_us", "_MBps")) for k in ladder["counters"])
    assert len(ladder["events_per_rt"]) == 9 and "middleware.corba" in ladder["events_per_rt"]
    assert "events_per_rt" not in bare


def test_check_fails_until_the_newest_pr_of_changes_has_a_line(tool, tmp_path, capsys):
    tool.CHANGES.write_text("PR 15: one completion\nPR 17: zero-copy receive, see PR 14\n")
    assert tool.newest_pr_in_changes() == 17
    assert tool.check() == 1 and "no line for PR 17" in capsys.readouterr().out
    tool.TRAJECTORY.write_text(json.dumps(tool.line_of(15, "", result_file(tmp_path))) + "\n")
    assert tool.check() == 1
    with open(tool.TRAJECTORY, "a") as out:
        out.write(json.dumps(tool.line_of(17, "", result_file(tmp_path))) + "\n")
    assert tool.check() == 0


def _two_lines_with_a_moved_counter_and_rung(tool, tmp_path):
    """PR 15's line, and PR 17's with one counter and one rung changed."""
    before = tool.line_of(15, "one completion", result_file(tmp_path))
    after = json.loads(json.dumps(before))
    after["pr"] = 17
    after["workloads"]["kernel_timers"]["counters"]["simnet.engine.events"] += 1
    after["workloads"]["stack_pingpong"]["events_per_rt"]["middleware.corba"] += 2
    tool.TRAJECTORY.write_text(json.dumps(before) + "\n" + json.dumps(after) + "\n")
    return before, after


def test_check_passes_when_every_moved_figure_is_named_in_the_prs_entry(tool, tmp_path, capsys):
    before, after = _two_lines_with_a_moved_counter_and_rung(tool, tmp_path)
    assert [m[:2] for m in tool.moved_figures(before, after)] == [
        ("stack_pingpong", "middleware.corba.events_per_rt"),
        ("kernel_timers", "simnet.engine.events"),
    ]
    tool.CHANGES.write_text(
        "PR 15: one completion\nPR 17: zero-copy receive; `simnet.engine.events` +1 on\n"
        "kernel_timers, `middleware.corba.events_per_rt` 14 -> 16\n"
    )
    assert tool.check() == 0
    out = capsys.readouterr().out
    assert "2 exact figures moved since PR 15" in out and "wall_s" not in out
    assert "kernel_timers" in out and "simnet.engine.events" in out


def test_check_fails_when_a_moved_figure_is_not_named(tool, tmp_path, capsys):
    _two_lines_with_a_moved_counter_and_rung(tool, tmp_path)
    # PR 15's entry names the rung; PR 17's own entry does not
    tool.CHANGES.write_text(
        "PR 15: `middleware.corba.events_per_rt`\nPR 17: `simnet.engine.events` moved\n"
    )
    assert tool.check() == 1
    assert "not named in CHANGES.md's PR 17 entry: middleware.corba.events_per_rt" in (
        capsys.readouterr().out
    )


def test_the_committed_trajectory_is_well_formed():
    lines = [
        json.loads(ln) for ln in (REPO / "BENCH_trajectory.jsonl").read_text().splitlines() if ln
    ]
    prs = [line["pr"] for line in lines]
    assert prs == sorted(set(prs)) and {11, 12, 14, 15, 17} <= set(prs)
    for line in lines:
        assert line["title"] and line["source"] and line["workloads"]
        for entry in line["workloads"].values():
            for row in entry.get("end_to_end", {}).values():
                assert row["median"] > 0
            assert len(entry.get("counters", {})) in (0, 26)
