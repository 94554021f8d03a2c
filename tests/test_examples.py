"""Every example runs, and ``examples/quickstart.py`` prints the paper's
Table 1 rows."""

from __future__ import annotations

import re
import runpy
import sys
from pathlib import Path

import pytest

import repro

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import stack  # noqa: E402 - the one ladder holds the paper's values

#: quickstart row -> its Table 1 cell.
LAYER_OF = {
    "Circuit (parallel abstraction)": "abstraction.circuit",
    "VLink (distributed abstraction)": "abstraction.vlink",
    "MPICH-1.2.5": "middleware.mpi",
    "omniORB-4.0.0": "middleware.corba",
}


@pytest.mark.parametrize(
    "example", sorted((REPO / "examples").glob("*.py")), ids=lambda path: path.stem
)
def test_example_runs(example):
    runpy.run_path(str(example))["main"]()


def test_quickstart_prints_four_table1_rows_within_tolerance(capsys):
    results = runpy.run_path(str(REPO / "examples" / "quickstart.py"))["main"]()
    printed = capsys.readouterr().out
    assert set(results) == set(LAYER_OF)
    for row, (latency_us, bandwidth_MBps) in results.items():
        paper_latency, paper_bandwidth = stack.TABLE1[LAYER_OF[row]]
        assert latency_us == pytest.approx(paper_latency, rel=0.12), row
        assert bandwidth_MBps == pytest.approx(paper_bandwidth, rel=0.10), row
        assert f"{row:34s}{latency_us:8.2f} us{bandwidth_MBps:9.1f} MB/s" in printed


def test_package_version_is_the_projects():
    declared = re.search(r'^version = "(.+)"$', (REPO / "pyproject.toml").read_text(), re.M)
    assert repro.__version__ == declared.group(1)
