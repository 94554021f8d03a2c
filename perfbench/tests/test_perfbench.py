"""Tests of the benchmark itself: ``python -m pytest perfbench/tests -q``.

Outside ``testpaths``, so tier-1 does not run them.  Everything runs at
``--quick`` size (32-host grids, 200 round trips).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: workloads whose seed reaches a counter: churn, heartbeat losses, flaps.
#: (`bulk_*` feed theirs to the probe RNGs of lossless WANs, `stack_*` to
#: the payload bytes: nothing countable moves.)
SEEDED = ["grid_deployment", "grid_partitioned", "kernel_timers"]

sys.path.insert(0, str(PERFBENCH))
import compare  # noqa: E402


def run_py(*args, cwd=ROOT, script=PERFBENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """Three full ``--quick`` runs: seed 1 twice, seed 2 once."""
    out = tmp_path_factory.mktemp("results")
    results = []
    for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
        path = out / f"{tag}.json"
        done = run_py("--quick", "--repeats", 2, "--seed", seed, "--out", path)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        results.append(json.loads(path.read_text()))
    return results


def exact_figures(result, workload):
    return {
        name: value for name, value in result["workloads"][workload]["per_layer"].items()
        if not name.endswith(compare.HOST_TIME_SUFFIXES)
    }


def test_same_seed_repeats_every_exact_figure(quick_runs):
    first, again, _other = quick_runs
    for workload in WORKLOADS:
        assert first["workloads"][workload]["failed"] == 0
        assert exact_figures(first, workload) == exact_figures(again, workload), workload


def test_seed_moves_the_seeded_workloads_only(quick_runs):
    first, _again, other = quick_runs
    for workload in SEEDED:
        assert exact_figures(first, workload) != exact_figures(other, workload), workload
    for workload in set(WORKLOADS) - set(SEEDED):
        assert exact_figures(first, workload) == exact_figures(other, workload), workload


def test_every_per_layer_metric_is_moved_by_some_workload(quick_runs):
    """A name in BENCHMARK.json that no code produces would read 0 for ever.
    The ones that do read 0 everywhere are the stated expectations: the
    recorder is off, nothing boots or adapts inside a window, no frame is
    dropped, and churn empties the routing cache before the window ends."""
    moved = {
        name for entry in quick_runs[0]["workloads"].values()
        for name, value in entry["per_layer"].items() if value
    }
    assert {m["name"] for m in SPEC["per_layer"]} - moved == {
        "telemetry.self_s", "telemetry.calls", "core.self_s", "core.calls",
        "abstraction.adaptive.self_s", "abstraction.adaptive.calls",
        "simnet.network.frames_dropped", "abstraction.routing.cached_paths",
    }


def test_result_carries_fingerprint_and_quartiles(quick_runs):
    result = quick_runs[0]
    expected = {"cpu", "nproc", "python", "platform", "commit", "seed", "run_seconds", "repeats"}
    assert expected <= set(result["fingerprint"])
    row = result["workloads"]["kernel_timers"]["end_to_end"]["wall_s"]
    assert row["n"] == 2 and row["q1"] <= row["median"] <= row["q3"]


def test_compare_agrees_with_itself(quick_runs):
    lines, regressed = compare.compare(quick_runs[0], quick_runs[0], SPEC)
    assert not regressed
    assert not any("exact figure moved" in line for line in lines)
    rows = [ln for ln in lines if ln.split()[:1] and ln.split()[0] in WORKLOADS]
    assert len(rows) == len(WORKLOADS) * (len(SPEC["end_to_end"]) + 1)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_contract_names_and_units(trace, section):
    done = run_py("--workload", "grid_partitioned", "--seed", 3, "--seconds", 0.05,
                  "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr[-2000:]
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in last["metrics"].items()} == expected
    for name in expected:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
        assert name in done.stdout.rsplit("\n", 3)[0]  # printed by name before the JSON
    if trace:
        assert last["metrics"]["simnet.partition.windows"]["value"] > 0
        assert (PERFBENCH / "out" / "trace-grid_partitioned.json").is_file()
    else:
        assert all(m["value"] > 0 for m in last["metrics"].values())


def test_spec_shape():
    assert len(WORKLOADS) == 7 and len(SPEC["per_layer"]) <= 128
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = run_py("--workload", "kernel_timers", "--seed", 1, "--seconds", 1, "--trace", 0,
                  cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()


def summary(median, spread=0.01, n=5):
    return {"median": median, "q1": median * (1 - spread / 2), "q3": median * (1 + spread / 2),
            "n": n}


@pytest.mark.parametrize("a, b, better, expected", [
    (summary(1.0), summary(1.005), "lower", "unchanged"),
    (summary(1.0), summary(1.2), "lower", "regressed"),
    (summary(1.0), summary(0.9), "lower", "improved"),
    (summary(1.0), summary(0.9), "higher", "unchanged"),       # worse, but within the bound
    (summary(1.0), summary(0.8), "higher", "regressed"),
    (summary(1.0, spread=0.3), summary(1.02), "lower", "unresolved"),
    (summary(1.0), summary(1.02, spread=0.3), "lower", "unresolved"),
    (summary(1.0, spread=0.3), summary(1.5), "lower", "regressed"),  # beyond any spread
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, bound=0.15) == expected
