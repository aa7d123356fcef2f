"""The benchmark's per-layer metrics wrap module attributes of the package
(perfbench/workloads.py:trace_targets).  A renamed attribute, or a call
that goes through a local name instead of the module, would read as a
crash or a silent zero in a traced benchmark run; this checks that every
wrapped layer still records spans, nested where the benchmark expects."""

import hashlib
import heapq
import importlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from stlsbb import (
    ExperimentGrid,
    SpectrumSetting,
    generate_instance,
    harness,
    quadratic,
    solver,
)
from stlsbb.steps import parse_policy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

LAYERS = (
    "kernels.raw_bb_loop",
    "kernels.hessian_apply",
    "kernels.policy_step",
    "steps.next_steplength",
    "solver.run",
)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("spans"), importlib.import_module("workloads")


def test_trace_targets_reach_every_layer(perfbench):
    spans, workloads = perfbench
    tracer = spans.Tracer()
    inst = generate_instance(30, SpectrumSetting(1, 1e3), seed=2)
    with spans.patched(workloads.trace_targets(tracer)):
        tr = quadratic.solve_bb(inst, parse_policy("atc:3"), 1e-6, 5000)
        harness.run_rosenbrock_table(epsilons=(1e-1,), policies=("gamma:1",))
    rows = tracer.rows()
    calls = {name: n for name, (n, _) in spans.self_times(rows).items()}
    for layer in LAYERS:
        assert calls.get(layer, 0) > 0, layer

    def under(parent):
        return Counter(name for name, _, _, p in rows if p >= 0 and rows[p][0] == parent)

    # the raw loop reaches both kernels through the module, once per step
    assert under("kernels.raw_bb_loop") == {
        "kernels.hessian_apply": tr.iterations + 1,
        "kernels.policy_step": tr.iterations,
    }
    assert under("steps.next_steplength")["kernels.policy_step"] > 0
    assert under("solver.run")["steps.next_steplength"] > 0
    # hessian_apply's fifth argument is the vector the benchmark sizes
    assert tracer.counters["kernels.hessian_apply.elems"] == 30 * calls[
        "kernels.hessian_apply"
    ]


def test_traced_sweep_reaches_the_kernels(perfbench, monkeypatch):
    # the sweep runs one history-free loop; a path that bypassed the module
    # attributes would read as zeros in a traced sweep-small-n run
    spans, workloads = perfbench
    monkeypatch.setattr(harness, "_SWEEP_ROWS", 5)
    tracer = spans.Tracer()
    grid = ExperimentGrid(n=20, setting_ids=(1, 2), kappas=(1e3,), epsilons=(1e-6, 1e-3),
                          seeds=(0, 1), policies=("bb1", "atc:3"), max_iter=200)
    with spans.patched(workloads.trace_targets(tracer)):
        cells = harness.run_quadratic_sweep(grid)
    assert len(cells) == grid.cell_count()
    rows = tracer.rows()
    assert spans.self_times(rows)["harness.run_quadratic_sweep"][0] == 1

    def under(parent):
        return Counter(name for name, _, _, p in rows if p >= 0 and rows[p][0] == parent)

    # one loop on a 5-row block pulls the grid's 16 rows: four (setting,
    # seed) instances, one Hessian product per row for its g0, from which
    # it also takes its opening steplength, one per block step, and one
    # policy step per row step.  A row takes the first slot
    # to free up, so the block steps until the last slot is done
    its = [c.iterations for c in cells]
    free = [0] * 5  # the step at which each slot frees up
    for n in its:
        heapq.heappush(free, heapq.heappop(free) + n)
    assert under("harness.run_quadratic_sweep") == {"kernels.raw_bb_loop": 1}
    assert under("kernels.raw_bb_loop") == {
        "quadratic.generate_instance": 4,
        "kernels.hessian_apply": 16 + max(free),
        "kernels.policy_step": sum(its),
    }


def test_traced_gbb_objective_rebuild_runs(perfbench):
    # GbbLineSearch.run rebuilds the quadratic objective positionally as
    # Objective(name, dim, eval, x0) to put a span on eval; a field inserted
    # before x0 would shift x0 into it and break that traced run here first
    spans, workloads = perfbench
    tracer = spans.Tracer()
    obj = quadratic.as_objective(generate_instance(30, SpectrumSetting(1, 1e3), seed=2))
    traced = solver.Objective(obj.name, obj.dim,
                              tracer.wrap("quadratic.objective_eval", obj.eval), obj.x0)
    cfg = workloads.GbbLineSearch.config
    policy = parse_policy(workloads.GbbLineSearch.policy)
    tr = solver.run(traced, traced.x0, cfg, policy)
    assert np.array_equal(traced.x0, obj.x0)
    assert tr.to_json() == solver.run(obj, obj.x0, cfg, policy).to_json()
    # without eval_rows the start, its probe and every trial are one traced
    # eval call each
    calls = spans.self_times(tracer.rows())["quadratic.objective_eval"][0]
    assert calls == 2 + sum(r.fevals for r in tr.rows)


def test_the_table_makes_one_run_call_per_cell(monkeypatch):
    # gbb-linesearch times and counts the Rosenbrock table through a
    # (*args, **kwargs) wrapper on solver.run, and its golden pins the 16
    # cells' 24 675 iterations: the cells resume one another, but each is
    # still one call whose trace holds its whole run.  One run per policy
    # would change what the benchmark counts, not only how fast it runs
    traces = []
    original = solver.run

    def timed_run(*args, **kwargs):
        traces.append(original(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(solver, "run", timed_run)
    table = harness.run_rosenbrock_table()
    assert len(traces) == 16
    assert sum(tr.iterations for tr in traces) == 24_675
    assert hashlib.sha256(table.to_csv().encode()).hexdigest() == (
        "c7d772d59fbe243502e54e83e336e2a6b5945a457c6e2fe93579bb99ae785c2d")


def test_traced_table_resumes_its_cells(perfbench):
    # under --trace 1 the Rosenbrock objective is rebuilt once per table,
    # so its cells still resume one another, and the table and each trace
    # are those of independent untraced runs
    spans, workloads = perfbench
    tracer = spans.Tracer()
    axes = {"epsilons": (1e-1, 1e-2, 1e-4), "policies": ("bb2", "atc:4")}
    traces = []

    def kept(original):
        def run(*args, **kwargs):
            traces.append((args, kwargs.get("resume"), original(*args, **kwargs)))
            return traces[-1][2]

        return run

    with spans.patched(workloads.trace_targets(tracer) + [(solver, "run", kept)]):
        table = harness.run_rosenbrock_table(**axes)
    assert table == harness.run_rosenbrock_table(**axes)
    assert [resume is None for _, resume, _ in traces] == [True] * 2 + [False] * 4
    for (obj, x0, config, policy), _, tr in traces:
        want = solver.run(solver.rosenbrock2(), x0, config, policy)
        assert tr.to_json() == want.to_json()
    assert spans.self_times(tracer.rows())["solver.run"][0] == 6
