"""Tests of the benchmark's own machinery.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
sys.path[:0] = [str(PERF.parent / "src"), str(PERF)]

import run  # noqa: E402
from calibrate import Interleaved, Reading, Timing, YardstickSpec, elapsed, reading  # noqa: E402
from spans import Tracer, patched, self_times  # noqa: E402
from workloads import Rep  # noqa: E402

BENCHMARK = json.loads((PERF.parent / "BENCHMARK.json").read_text())


def make_rep(**changes):
    fields = dict(timing=Timing(1.0, 1.0, 0.1, 100), iterations=10, cell_s=[0.5, 0.5],
                  counts={"iterations": 10, "cell_iterations": [4, 6]},
                  digests={"cells": "ab12"}, cells=2, errors=0)
    fields.update(changes)
    return Rep(**fields)


class TestGolden:
    reference = {"counts": {"iterations": 10, "cell_iterations": [4, 6]},
                 "digests": {"cells": "ab12"}}

    def test_identical_outputs_match(self):
        assert run.compare(make_rep(), self.reference) == ([], 3)

    def test_changed_digest_is_a_mismatch(self):
        mismatches, checked = run.compare(make_rep(digests={"cells": "ab13"}), self.reference)
        assert checked == 3
        assert mismatches == ["digests.cells: got 'ab13', golden 'ab12'"]

    def test_changed_and_missing_counts_are_mismatches(self):
        rep = make_rep(counts={"cell_iterations": [4, 7]})
        mismatches, _ = run.compare(rep, self.reference)
        assert len(mismatches) == 2

    def test_golden_copy_holds_the_quoted_seed_zero_counts(self):
        golden = run.load_golden()
        sweep = golden["sweep-small-n"]["0"]["counts"]
        assert (sweep["cells"], sweep["iterations"]) == (280, 112992)
        raw = golden["rawbb-large-n"]["0"]["counts"]["cell_iterations"]
        assert sum(raw[:4]) == 1649
        gbb = golden["gbb-linesearch"]["0"]["counts"]
        assert (gbb["rosenbrock_iterations"], gbb["rosenbrock_fevals"]) == (24675, 426575)
        assert (gbb["quadratic_iterations"], gbb["quadratic_fevals"]) == (2000, 57673)


class TestSpans:
    def test_self_time_subtracts_direct_children_only(self):
        rows = [
            ("root", 0, 100, -1),
            ("child", 10, 60, 0),
            ("leaf", 20, 30, 1),
            ("leaf", 40, 45, 1),
            ("child", 70, 90, 0),
        ]
        totals = self_times(rows)
        assert totals["root"] == (1, 100 - 50 - 20)
        assert totals["child"] == (2, (50 - 10 - 5) + 20)
        assert totals["leaf"] == (2, 15)
        assert sum(ns for _, ns in totals.values()) == 100

    def test_wrapped_calls_nest_under_their_caller(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(inner(x)),
                            on_call=lambda t, args, result: t.count("outer.result", result))
        assert outer(1) == 3
        rows = tracer.rows()
        assert [(name, parent) for name, _, _, parent in rows] == [
            ("outer", -1), ("inner", 0), ("inner", 0)]
        assert all(end >= start for _, start, end, _ in rows)
        assert tracer.counters == {"outer.result": 3}

    def test_rows_from_a_later_repetition_are_renumbered(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", inner)
        outer()
        first = len(tracer)
        outer()
        assert [(name, parent) for name, _, _, parent in tracer.rows(first)] == [
            ("outer", -1), ("inner", 0)]

    def test_patched_restores_in_reverse_order(self):
        class Owner:
            value = 1

        with patched([(Owner, "value", lambda v: v + 10), (Owner, "value", lambda v: v * 2)]):
            assert Owner.value == 22
        assert Owner.value == 1


class TestYardstick:
    def test_elapsed_takes_the_slices_out(self):
        start = Reading(wall=10.0, cpu=5.0, slice_wall=1.0, slice_cpu=0.5, slices=5)
        end = Reading(wall=14.0, cpu=8.5, slice_wall=1.5, slice_cpu=0.9, slices=9)
        t = elapsed(start, end)
        assert t == Timing(wall_s=3.5, cpu_s=3.1, slice_cpu_s=pytest.approx(0.4), slices=4)

    def test_norm_cpu_scales_by_the_mean_slice(self):
        # slices twice as slow as the reference: the host runs at half speed
        t = Timing(wall_s=4.0, cpu_s=4.0, slice_cpu_s=0.2, slices=100)
        assert t.norm_cpu_s(ref_slice_s=1e-3) == pytest.approx(2.0)
        assert (t + t).norm_cpu_s(ref_slice_s=1e-3) == pytest.approx(4.0)
        assert Timing(1.0, 1.0).norm_cpu_s(1e-3) is None

    def test_interleaved_runs_slices_between_bytecodes(self):
        spec = YardstickSpec(n=50, slice_iterations=5, every_s=0.005, ref_slice_s=1e-3)
        with Interleaved(spec) as il:
            start = reading()
            x = 0
            while reading().cpu - start.cpu < 0.2:
                x += 1
            t = elapsed(start, reading())
        assert il.slices > 0 and t.slices > 0
        assert 0.0 < t.slice_cpu_s < t.cpu_s
        assert reading().slices == 0  # nothing runs once the context closes


class TestResult:
    def test_end_to_end_names_and_units_match_benchmark_json(self):
        values = {name: 1.5 for name in run.E2E_UNITS}
        result = run.result_line(values, run.E2E_UNITS, attempted=4, failed=0)
        want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert result["correct"] is True
        json.dumps(result, allow_nan=False)

    def test_per_layer_names_and_units_match_benchmark_json(self):
        values = {name: 0.0 for name in run.LAYER_UNITS}
        result = run.result_line(values, run.LAYER_UNITS, attempted=4, failed=1,
                                 unavailable=run.KERNEL_METRICS)
        want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        assert result["correct"] is False
        assert result["metrics"]["kernels.policy_step.calls"]["value"] is None
        assert result["metrics"]["solver.fevals"]["value"] == 0.0

    def test_setup_metric_is_declared_as_the_contract_requires(self):
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                          "bound": max(m["bound"] for m in BENCHMARK["end_to_end"])}]


@pytest.mark.parametrize("n, want", [(9, None), (100, (90.0, 90)), (1000, (99.0, 990))])
def test_tail_percentile_needs_ten_samples_beyond(n, want):
    assert run.tail_percentile(list(range(1, n + 1))) == want
