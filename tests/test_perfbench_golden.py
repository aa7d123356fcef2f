"""The benchmark's golden outputs (perfbench/golden.json) at seed 0.

perfbench checks every repetition's exact counts and output digests
against golden.json, and reports a mismatch as an incorrect run.  This
runs the two workloads that finish in about a second each, once and
untraced, through the benchmark's own workload and compare code, so a
change that moves a golden count or digest fails here as well.  Like
tests/test_golden.py it holds on the BLAS kernel the goldens were
recorded on (see the test header).
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("run"), importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["sweep-small-n", "gbb-linesearch"])
def test_seed_0_matches_the_golden_outputs(perfbench, tmp_path, name):
    run, workloads = perfbench
    golden = run.load_golden()[name]["0"]
    wl = workloads.WORKLOADS[name]
    rep = wl.run(wl.make_inputs(0), tmp_path)
    mismatches, checked = run.compare(rep, golden)
    assert mismatches == []
    assert checked == len(golden["counts"]) + len(golden["digests"]) > 0
    assert rep.errors == 0
