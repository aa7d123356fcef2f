"""Harness checks: sweeps, tables, serialization, performance profiles."""

import json
import math
import re
import weakref
from collections import Counter
from itertools import product

import numpy as np
import pytest

from stlsbb import (
    AllFailedOnProblemError,
    ExperimentGrid,
    ProfileTable,
    RosenbrockTable,
    SpectrumSetting,
    SweepCell,
    average_table,
    generate_instance,
    harness,
    kernels,
    parse_policy,
    performance_profile,
    profile_from_cells,
    profile_from_matrix_csv,
    quadratic,
    run_quadratic_sweep,
    run_rosenbrock_table,
    solve_bb,
    sweep_from_csv,
    sweep_to_csv,
    sweep_to_json,
)
from stlsbb.errors import InvalidParameterError, StlsbbError
from stlsbb.harness import CAP_MARK, averages_to_csv, fmt17


class TestFmt17:
    def test_roundtrips_float64(self, rng):
        specials = [math.pi, 1.0 / 3.0, 1e-300, 1e300, 0.1, 2.0 / 3.0]
        for x in specials + list(rng.standard_normal(200)):
            assert float(fmt17(x)) == float(x)

    def test_plain_integers_stay_short(self):
        assert fmt17(2.0) == "2"


def make_cell(seed=0, policy="bb1", iterations=100, status="ok",
              setting=1, kappa=1e3, epsilon=1e-6):
    return SweepCell(
        setting_id=setting, kappa=kappa, epsilon=epsilon, seed=seed, n=20,
        policy=policy, max_iter=500, iterations=iterations, status=status,
    )


class TestGrid:
    def test_cell_count(self):
        g = ExperimentGrid(
            n=20, setting_ids=(1, 2), kappas=(1e3, 1e4), epsilons=(1e-4,),
            seeds=(0, 1, 2), policies=("bb1", "bb2"),
        )
        assert g.cell_count() == 2 * 2 * 1 * 3 * 2

    def test_axes_are_stored_as_tuples_of_their_type(self):
        g = ExperimentGrid(n=20.0, setting_ids=[1.0, "2"], kappas=[1000, "1e4"],
                           epsilons=["1e-4"], seeds=range(2), policies=["bb1"])
        for name, kind in (("setting_ids", int), ("kappas", float), ("epsilons", float),
                           ("seeds", int), ("policies", str)):
            values = getattr(g, name)
            assert type(values) is tuple
            assert all(type(v) is kind for v in values), name
        assert g.setting_ids == (1, 2) and g.kappas == (1e3, 1e4) and g.seeds == (0, 1)

    def test_empty_axis_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExperimentGrid(n=20, seeds=())

    def test_bad_epsilon_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExperimentGrid(n=20, epsilons=(2.0,))

    def test_bad_policy_rejected_early(self):
        with pytest.raises(InvalidParameterError):
            ExperimentGrid(n=20, policies=("bb3",))

    def test_a_policy_that_is_not_a_string_is_named(self):
        # refused as run_rosenbrock_table refuses it, not read through str()
        with pytest.raises(InvalidParameterError,
                           match="policy descriptor must be a string, got SteplengthPolicy"):
            ExperimentGrid(n=10, policies=(parse_policy("bb2"),))

    @pytest.mark.parametrize("axis", [
        {"setting_ids": (1, 2, 1)},
        {"kappas": (1e3, 1000)},
        {"epsilons": (1e-4, 1e-6, 0.0001)},
        {"seeds": (0, 0)},
        {"policies": ("bb1", "BB1")},
        {"policies": ("gamma:20", "bb2", "gamma:20.0")},
    ])
    def test_repeated_axis_value_rejected(self, axis):
        with pytest.raises(InvalidParameterError, match="repeats"):
            ExperimentGrid(n=20, **axis)

    def test_close_policies_are_distinct(self):
        # describe() rounds gamma to 6 digits; the runs still differ
        grid = ExperimentGrid(n=20, policies=("gamma:1.0000001", "gamma:1.0000002"))
        assert grid.cell_count() == 20


@pytest.fixture(scope="module")
def tiny():
    return ExperimentGrid(
        n=20, setting_ids=(1,), kappas=(500.0,), epsilons=(1e-4,),
        seeds=(0, 1), policies=("bb1", "gamma:1"), max_iter=5000,
    )


class TestSweep:
    def test_runs_all_cells_in_grid_order(self, tiny):
        cells = run_quadratic_sweep(tiny)
        assert len(cells) == tiny.cell_count()
        assert [c.seed for c in cells] == [0, 0, 1, 1]
        assert [c.policy for c in cells] == ["bb1", "gamma:1", "bb1", "gamma:1"]
        for c in cells:
            assert c.status == "ok" and c.solved
            assert 0 < c.iterations < tiny.max_iter

    def test_byte_identical_reruns(self, tiny):
        first = sweep_to_csv(run_quadratic_sweep(tiny))
        second = sweep_to_csv(run_quadratic_sweep(tiny))
        assert first == second

    def test_progress_callback(self, tiny):
        seen = []
        run_quadratic_sweep(tiny, progress=seen.append)
        assert len(seen) == tiny.cell_count()

    @staticmethod
    def cells_alone(grid):
        # (setting, kappa, epsilon, seed, policy, iterations, status) of
        # every cell from its own solve_bb run, in grid order
        want = []
        for sid in grid.setting_ids:
            for kappa in grid.kappas:
                for eps in grid.epsilons:
                    for seed in grid.seeds:
                        for pol in grid.policies:
                            try:
                                inst = generate_instance(grid.n, SpectrumSetting(sid, kappa),
                                                         seed)
                                tr = solve_bb(inst, parse_policy(pol), eps, grid.max_iter)
                                outcome = (tr.iterations, "ok" if tr.solved else "cap")
                            except StlsbbError as exc:
                                outcome = (None, f"error:{type(exc).__name__}")
                            want.append((sid, kappa, eps, seed, pol, *outcome))
        return want

    @staticmethod
    def outcomes(cells):
        return [(c.setting_id, c.kappa, c.epsilon, c.seed, c.policy, c.iterations, c.status)
                for c in cells]

    @pytest.mark.parametrize("block_doubles", [None, 30, 60, 150])
    def test_blocks_equal_cell_by_cell_solve_bb(self, monkeypatch, block_doubles):
        # the grid's rows run in one lock-step block, with 30 / 60 / 150
        # doubles of 1 / 2 / 5 rows that straddle (setting, kappa) groups;
        # kappa=100 is invalid for setting 2, so those cells take no row
        # and every one is an error marker
        if block_doubles is not None:
            monkeypatch.setattr(kernels, "_BLOCK_DOUBLES", block_doubles)
        grid = ExperimentGrid(
            n=30, setting_ids=(1, 2), kappas=(100.0, 1e4), seeds=(0, 1, 2),
            policies=("bb1", "bb2", "gamma:20", "atc:3"), max_iter=120,
        )
        seen = []
        cells = run_quadratic_sweep(grid, progress=seen.append)
        assert Counter(seen) == Counter(cells)
        assert self.outcomes(cells) == self.cells_alone(grid)
        assert {c.status for c in cells} == {"ok", "cap", "error:InvalidSettingError"}

    @staticmethod
    def watch_loop(monkeypatch, on_take=None, on_leave=None):
        # wraps kernels.raw_bb_loop to record its widths, and to call
        # on_take(key, row) as the row keyed key is taken and on_leave(key)
        # as it leaves, before its outcome is passed on
        calls = []
        original = kernels.raw_bb_loop

        def watched(rows, width, max_iter, on_end, history=True):
            calls.append(width)
            taken = {}  # the rows in the block: hold none that has left

            def lazy():
                for row in rows:
                    taken[row[0]] = row
                    if on_take is not None:
                        on_take(row[0], row)
                    yield row

            def ended(key, result):
                del taken[key]
                if on_leave is not None:
                    on_leave(key)
                on_end(key, result)

            return original(lazy(), width, max_iter, ended, history)

        monkeypatch.setattr(kernels, "raw_bb_loop", watched)
        return calls

    # 72 rows: 48 on setting 1 and 24 on (2, 1e4), in one block of at most
    # sweep_rows rows; None keeps the 96-row cap, so the block starts with
    # all 72
    @pytest.mark.parametrize("sweep_rows", [1, 2, 5, 7, None])
    def test_calls_across_groups_equal_cell_by_cell_solve_bb(self, monkeypatch, sweep_rows):
        grid = ExperimentGrid(
            n=30, setting_ids=(1, 2), kappas=(100.0, 1e4), epsilons=(1e-6, 1e-3),
            seeds=(0, 1, 2), policies=("bb1", "bb2", "gamma:20", "atc:3"), max_iter=120,
        )
        want = self.cells_alone(grid)
        width = sweep_rows or harness._SWEEP_ROWS
        monkeypatch.setattr(harness, "_SWEEP_ROWS", width)
        live = {}  # the rows in the block, by their keys
        shared = []  # the (setting, kappa, epsilon) of the rows in the block at each take

        def on_take(j, row):
            live[j] = row
            shared.append({(inst.setting_id, inst.kappa, eps)
                           for _, inst, _, _, _, eps in live.values()})

        def on_leave(j):
            del live[j]

        calls = self.watch_loop(monkeypatch, on_take, on_leave)
        steps = []
        original = kernels.hessian_apply

        def counted(w1, w2, w3, v, x):
            if x.ndim == 2:
                steps.append(len(x))
            return original(w1, w2, w3, v, x)

        monkeypatch.setattr(kernels, "hessian_apply", counted)
        seen = []
        cells = run_quadratic_sweep(grid, progress=seen.append)
        assert calls == [width]
        assert Counter(seen) == Counter(cells)
        assert self.outcomes(cells) == want
        assert {c.status for c in cells} == {"ok", "cap", "error:InvalidSettingError"}
        assert len(shared) == 72 and not live
        assert max(steps, default=1) == min(width, 72)
        if width > 1:
            # the block mixes epsilons, and (setting, kappa) groups
            assert any(len({eps for _, _, eps in keys}) > 1 for keys in shared)
            assert any(len({key[:2] for key in keys}) > 1 for keys in shared)

    def test_instances_are_built_once_and_freed(self, monkeypatch):
        monkeypatch.setattr(kernels, "_BLOCK_DOUBLES", 4 * 20)
        built = Counter()
        refs = {}
        original = quadratic.generate_instance

        def counted(n, setting, seed):
            built[setting.setting_id, setting.kappa, seed] += 1
            inst = original(n, setting, seed)
            refs[setting.setting_id, setting.kappa, seed] = weakref.ref(inst)
            return inst

        def key(inst):
            return inst.setting_id, inst.kappa, inst.seed

        live = {}  # the keys of the rows in the block
        checks = []  # (alive keys, keys of live rows, group of the last row taken)

        def on_take(j, row):
            live[j] = key(row[1])
            last[:] = [live[j][:2]]

        def on_leave(j):
            del live[j]
            alive = {k for k, ref in refs.items() if ref() is not None}
            checks.append((alive, set(live.values()), last[0]))

        last = []
        monkeypatch.setattr(quadratic, "generate_instance", counted)
        self.watch_loop(monkeypatch, on_take, on_leave)
        grid = ExperimentGrid(
            n=20, setting_ids=(1, 2), kappas=(100.0, 1e4), epsilons=(1e-6, 1e-3),
            seeds=(0, 1, 2), policies=("bb1", "gamma:20"), max_iter=200,
        )
        cells = run_quadratic_sweep(grid)
        assert len(cells) == grid.cell_count()
        keys = [(s, k, seed) for s in (1, 2) for k in (100.0, 1e4) for seed in (0, 1, 2)]
        assert built == Counter(keys)
        assert len(refs) == 9  # (2, 100) never builds
        # an instance outlives its last row only while the grid is still
        # in its (setting, kappa) group
        for alive, rows, group in checks:
            assert all(k in rows or k[:2] == group for k in alive), (alive, rows, group)
        assert any(k[:2] != group for alive, rows, group in checks for k in alive)
        assert all(ref() is None for ref in refs.values())

    def test_progress_passes_each_cell_as_it_ends(self, monkeypatch):
        # 5-row block, no error cells: every cell takes a row
        monkeypatch.setattr(kernels, "_BLOCK_DOUBLES", 5 * 20)
        grid = ExperimentGrid(n=20, setting_ids=(1, 3), kappas=(1e3,), epsilons=(1e-6, 1e-3),
                              seeds=(0, 1), policies=("bb1", "atc:3", "gamma:20"),
                              max_iter=300)
        outside = np.geterr()
        ended = []  # the keys of the rows, in the order they left
        self.watch_loop(monkeypatch, on_leave=ended.append)
        states = []
        original = quadratic.generate_instance

        def built(*args):
            states.append(np.geterr())
            return original(*args)

        monkeypatch.setattr(quadratic, "generate_instance", built)
        passed = []  # (cell, rows ended so far)

        def progress(cell):
            states.append(np.geterr())
            passed.append((cell, len(ended)))

        cells = run_quadratic_sweep(grid, progress=progress)
        assert states and all(state == outside for state in states)
        # each cell is passed on once, as its row leaves, whose key is the
        # cell's place in the grid
        assert sorted(ended) == list(range(len(cells)))
        assert [cell for cell, _ in passed] == [cells[i] for i in ended]
        assert [t for _, t in passed] == list(range(1, len(cells) + 1))
        assert ended != sorted(ended)  # rows leave out of grid order
        # the cells come back in grid order all the same
        assert [(c.setting_id, c.kappa, c.epsilon, c.seed, c.policy) for c in cells] == list(
            product(grid.setting_ids, grid.kappas, grid.epsilons, grid.seeds, grid.policies))

    def test_csv_roundtrip(self, tiny):
        cells = run_quadratic_sweep(tiny)
        assert sweep_from_csv(sweep_to_csv(cells)) == cells

    def test_csv_header_enforced(self):
        with pytest.raises(InvalidParameterError):
            sweep_from_csv("a,b,c\n1,2,3\n")

    def test_csv_rows_hold_the_nine_columns(self, tiny):
        lines = sweep_to_csv(run_quadratic_sweep(tiny)).splitlines()
        for bad in (lines[2] + ",extra", lines[2].rpartition(",")[0]):
            with pytest.raises(ValueError):
                sweep_from_csv("\n".join(lines[:2] + [bad]))

    def test_overflowing_instance_is_nonfinite(self):
        grid = ExperimentGrid(n=20, kappas=(1e300,), seeds=(0,), policies=("bb1",))
        with np.errstate(all="ignore"):
            cells = run_quadratic_sweep(grid)
        assert [(c.status, c.solved, c.iterations) for c in cells] == [
            ("nonfinite", False, None)
        ]
        assert sweep_from_csv(sweep_to_csv(cells)) == cells
        (row,) = average_table(cells)
        assert row["failed"] == 1 and math.isnan(row["mean_iterations"])

    def test_json_shape(self, tiny):
        cells = run_quadratic_sweep(tiny)
        doc = json.loads(sweep_to_json(cells))
        assert doc["format"] == "stlsbb-sweep-v1"
        assert doc["stop_rule"] == "grad_rel"
        assert len(doc["cells"]) == len(cells)
        assert doc["cells"][0]["policy"] == "bb1"

    def test_json_cells_carry_the_csv_columns(self, tiny):
        cells = run_quadratic_sweep(tiny)
        header = sweep_to_csv(cells).splitlines()[1].split(",")
        doc = json.loads(sweep_to_json(cells))
        assert all(list(cell) == header for cell in doc["cells"])

    def test_solved_is_derived_from_status(self):
        statuses = ("ok", "cap", "nonfinite", "error:X")
        assert [make_cell(status=s).solved for s in statuses] == [True, False, False, False]


class TestSweepCsvRules:
    """sweep_from_csv holds each row to what sweep_to_csv writes."""

    @staticmethod
    def text(*rows):
        return sweep_to_csv([]) + "".join(row + "\n" for row in rows)

    def test_every_status_the_writer_writes_reads_back(self):
        cells = [make_cell(iterations=0), make_cell(iterations=500),
                 make_cell(status="cap", iterations=500),
                 make_cell(status="nonfinite", iterations=None),
                 make_cell(status="error:InvalidSettingError", iterations=None, setting=0,
                           kappa=1e300, policy="atc:3")]
        assert sweep_from_csv(sweep_to_csv(cells)) == cells

    @pytest.mark.parametrize("row", [
        "1,1000,1e-06,0,20,bb1,500,,ok",  # ok without a count
        "1,1000,1e-06,0,20,bb1,500,501,ok",  # ok past the cap
        "1,1000,1e-06,0,20,bb1,500,499,cap",  # cap short of the cap
        "1,1000,1e-06,0,20,bb1,500,,cap",
        "1,1000,1e-06,0,20,bb1,500,7,nonfinite",
        "1,1000,1e-06,0,20,bb1,500,7,error:X",
        "1,1000,1e-06,0,20,bb1,500,7,done",  # no such status
        "1,1000,1e-06,0,20,bb1,500,,",
        "1,1000,1e-06,0,20,bb3,500,7,ok",  # a policy that does not parse
    ])
    def test_a_row_breaking_a_writer_rule_is_refused(self, row):
        with pytest.raises(InvalidParameterError):
            sweep_from_csv(self.text(row))

    @pytest.mark.parametrize("column, value", [
        (0, "1.5"), (0, "x"), (1, "big"), (1, "nan"), (1, "1"), (2, "2"), (2, "nan"), (3, "-1"), (3, "x"),
        (4, "0"), (4, "20.5"), (6, "inf"), (7, "2.5"), (7, "-1"),
    ])
    def test_a_value_not_of_its_columns_kind_cannot_be_parsed(self, column, value):
        fields = "1,1000,1e-06,0,20,bb1,500,7,ok".split(",")
        fields[column] = value
        name = ("setting", "kappa", "epsilon", "seed", "n", "policy", "max_iter",
                "iterations")[column]
        with pytest.raises(ValueError, match=f"sweep row 1: {name} must"):
            sweep_from_csv(self.text(",".join(fields)))

    @pytest.mark.parametrize("row, error, message", [
        ("1,1000,1e-06,0,20,bb1,500,7", ValueError, "has 8 columns, expected 9"),
        ("1,1000,1e-06,0,20,bb1,500,7,ok,x", ValueError, "has 10 columns, expected 9"),
        ("1,1000,1e-06,0,20,bb3,500,7,ok", InvalidParameterError,
         "unknown policy descriptor 'bb3'"),
    ], ids=["8-columns", "10-columns", "unknown-policy"])
    def test_a_bad_row_is_named(self, row, error, message):
        # the second data row is the bad one
        with pytest.raises(error, match=f"^sweep row 2: {message}$"):
            sweep_from_csv(self.text("1,1000,1e-06,0,20,bb1,500,7,ok", row))

    def test_integral_values_read_as_their_kind(self):
        (cell,) = sweep_from_csv(self.text("1.0,1e3,1e-06,3,20.0,bb1,5e2,7,ok"))
        assert cell == make_cell(seed=3, iterations=7)
        assert type(cell.setting_id) is type(cell.seed) is type(cell.max_iter) is int


class TestAverages:
    def test_hand_mean(self):
        cells = [
            make_cell(seed=0, iterations=10),
            make_cell(seed=1, iterations=20),
        ]
        rows = average_table(cells)
        assert len(rows) == 1
        assert rows[0]["mean_iterations"] == 15.0
        assert rows[0]["seeds"] == 2 and rows[0]["failed"] == 0

    def test_cap_counts_in_mean_and_failed(self):
        cells = [
            make_cell(seed=0, iterations=10),
            make_cell(seed=1, iterations=500, status="cap"),
        ]
        rows = average_table(cells)
        assert rows[0]["mean_iterations"] == 255.0
        assert rows[0]["failed"] == 1

    def test_error_cells_excluded_from_mean(self):
        cells = [
            make_cell(seed=0, iterations=10),
            make_cell(seed=1, iterations=None, status="error:X"),
        ]
        rows = average_table(cells)
        assert rows[0]["mean_iterations"] == 10.0
        assert rows[0]["failed"] == 1
        only_err = average_table(cells[1:])
        assert math.isnan(only_err[0]["mean_iterations"])

    def test_groups_split_by_policy(self):
        cells = [make_cell(policy="bb1"), make_cell(policy="bb2")]
        assert len(average_table(cells)) == 2

    def test_csv_writer(self):
        text = averages_to_csv(average_table([make_cell()]))
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1].split(",")[0] == "setting"
        assert lines[2].split(",")[4] == "bb1"


class TestRosenbrockTable:
    def test_structure_and_accessor(self):
        table = run_rosenbrock_table(
            epsilons=(1e-1,), policies=("bb2", "gamma:1"), max_iter=300
        )
        assert table.epsilons == (1e-1,)
        for pol in table.policies:
            c = table.count(1e-1, pol)
            assert isinstance(c, int) and 0 < c <= 300

    def test_cells_in_any_epsilon_order(self):
        # the cells run loosest first, each resuming its policy's looser
        # cell, whatever the axis order; the table keeps that order, and
        # each count is that of a table of its epsilon alone
        epsilons, policies = (1e-2, 1e-4, 1e-1), ("bb2", "gamma:1")
        table = run_rosenbrock_table(epsilons=epsilons, policies=policies, max_iter=500)
        assert table.epsilons == epsilons
        for eps, row in zip(epsilons, table.counts):
            alone = run_rosenbrock_table(epsilons=(eps,), policies=policies, max_iter=500)
            assert row == alone.counts[0]
        assert table.counts[1] > table.counts[0] > table.counts[2]

    def test_cap_marks(self):
        table = run_rosenbrock_table(
            epsilons=(1e-8,), policies=("bb2", "gamma:1"), max_iter=5
        )
        assert table.counts == ((None, None),)
        assert CAP_MARK in table.render()
        assert CAP_MARK in table.to_csv()

    @pytest.mark.parametrize("kwargs, match", [
        ({"policies": ()}, "grid axis policies is empty"),
        ({"epsilons": ()}, "grid axis epsilons is empty"),
        ({"epsilons": (0.1, 1e-2, 0.1)}, "grid axis epsilons repeats 0.1"),
        ({"policies": ("gamma:1", "bb2", "gamma:1.0")}, "grid axis policies repeats 'gamma:1.0'"),
        ({"policies": ("bb1", "nope")}, "unknown policy descriptor 'nope'"),
        ({"policies": ("bb1", parse_policy("bb2"))}, "policy descriptor must be a string"),
        ({"epsilons": (0.1, -1.0)}, "epsilon must"),
    ])
    def test_refused_axes_run_nothing(self, monkeypatch, kwargs, match):
        # the axes are checked as ExperimentGrid's are, and every policy is
        # parsed, before the first run
        runs = []
        monkeypatch.setattr(harness.solver, "run", lambda *args: runs.append(args))
        with pytest.raises(InvalidParameterError, match=re.escape(match)):
            run_rosenbrock_table(**kwargs)
        assert runs == []

    def test_count_names_what_it_misses(self):
        table = RosenbrockTable(epsilons=(0.1,), policies=("bb2",), counts=((61,),))
        assert table.count(0.1, "bb2") == 61
        with pytest.raises(InvalidParameterError, match=r"^no epsilon 0\.5 in \(0\.1,\)$"):
            table.count(0.5, "bb2")
        with pytest.raises(InvalidParameterError, match=r"^no policy 'bb1' in \('bb2',\)$"):
            table.count(0.1, "bb1")

    def test_render_and_csv_agree(self):
        table = RosenbrockTable(
            epsilons=(0.1, 0.01), policies=("a", "b"),
            counts=((3, None), (7, 9)),
        )
        text = table.render()
        assert "a" in text and "b" in text and "--" in text and "7" in text
        rows = [r.split(",") for r in table.to_csv().strip().split("\n")[2:]]
        assert rows[1] == [fmt17(0.1), "b", "--"]
        assert rows[2] == [fmt17(0.01), "a", "7"]


class TestPerformanceProfile:
    def test_hand_ratios(self):
        table = performance_profile([[1.0, 2.0], [2.0, 2.0]], solvers=("a", "b"))
        assert np.array_equal(table.ratios, [[1.0, 2.0], [1.0, 1.0]])
        assert table.rho("a", 1.0) == 1.0
        assert table.rho("b", 1.0) == 0.5
        assert table.rho("b", 2.0) == 1.0
        assert table.rho(1, 1.999) == 0.5
        assert table.solve_fraction("a") == 1.0
        assert np.array_equal(table.thresholds(), [1.0, 2.0])

    def test_failure_column(self):
        table = performance_profile([[1.0, math.inf], [2.0, math.nan]])
        assert table.solve_fraction(1) == 0.0
        assert table.rho(1, 1e12) == 0.0
        assert table.solve_fraction(0) == 1.0

    def test_all_failed_row_raises(self):
        with pytest.raises(AllFailedOnProblemError):
            performance_profile([[math.inf, math.nan], [1.0, 2.0]])

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            performance_profile([1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            performance_profile([[1.0], [2.0]])
        with pytest.raises(InvalidParameterError):
            performance_profile([[1.0, -2.0]])
        with pytest.raises(InvalidParameterError):
            performance_profile([[1.0, 2.0]], solvers=("only-one",))
        table = performance_profile([[1.0, 2.0]])
        with pytest.raises(InvalidParameterError):
            table.rho(0, 0.5)

    def test_a_missing_solver_is_named(self):
        table = performance_profile([[1.0, 2.0]], ("a", "b"))
        for lookup in (lambda s: table.rho(s, 1.0), table.solve_fraction):
            with pytest.raises(InvalidParameterError, match=r"^no solver 'zz' in \('a', 'b'\)$"):
                lookup("zz")
            # an index past the table, or below 0, is refused, not read
            # from the end of the table or left to numpy's IndexError
            with pytest.raises(InvalidParameterError, match=r"^solver index must be < 2, got 5$"):
                lookup(5)
            for bad in (-1, 0.5, True):
                with pytest.raises(InvalidParameterError,
                                   match=r"^solver index must be >= 0 and whole"):
                    lookup(bad)
        assert table.rho(np.int64(1), 2.0) == table.rho(1.0, 2.0) == table.rho("b", 2.0) == 1.0

    def test_repeated_solver_rejected(self):
        # rho and solve_fraction look a name up, so a second column of the
        # same name could never be read
        with pytest.raises(InvalidParameterError, match="'a'"):
            performance_profile([[1, 2]], ("a", "a"))

    def test_input_array_is_copied(self):
        costs = np.array([[1.0, 2.0], [2.0, 4.0]])
        table = performance_profile(costs)
        costs[0, 0] = 99.0
        assert table.ratios[0, 0] == 1.0
        with pytest.raises((ValueError, RuntimeError)):
            table.ratios[0, 0] = 5.0

    def test_random_profiles_are_monotone_and_normalized(self, rng):
        for _ in range(100):
            costs = rng.integers(1, 1000, size=(8, 4)).astype(float)
            # knock out some cells but keep column 0 finite so every row
            # retains a best cost
            mask = rng.uniform(size=(8, 4)) < 0.25
            mask[:, 0] = False
            costs[mask] = math.inf
            table = performance_profile(costs)
            thetas = [1.0, 1.5, 2.0, 5.0, 100.0, 1e9]
            best_share = 0.0
            for j in range(4):
                rhos = [table.rho(j, th) for th in thetas]
                assert all(a <= b + 1e-15 for a, b in zip(rhos, rhos[1:]))
                assert all(0.0 <= r <= 1.0 for r in rhos)
                assert rhos[-1] == pytest.approx(table.solve_fraction(j))
                best_share += table.rho(j, 1.0)
            # someone is best on every problem (ties can push the sum past 1)
            assert best_share >= 1.0 - 1e-15

    def test_profile_csv_rows(self):
        table = performance_profile([[1.0, 2.0], [2.0, 2.0]], solvers=("a", "b"))
        lines = table.to_csv().strip().split("\n")
        assert lines[1] == "theta,a,b"
        assert lines[2] == f"{fmt17(1.0)},{fmt17(1.0)},{fmt17(0.5)}"
        assert lines[3] == f"{fmt17(2.0)},{fmt17(1.0)},{fmt17(1.0)}"


def scanned_profile_csv(table):
    """The profile CSV by full scans: np.unique thresholds and one
    np.mean(col <= theta) per threshold and solver."""
    finite = table.ratios[np.isfinite(table.ratios)]
    thetas = np.unique(np.concatenate(([1.0], finite)))
    lines = ["# stlsbb-profile-v1", ",".join(["theta", *table.solvers])]
    for theta in thetas:
        lines.append(",".join([fmt17(theta)] + [fmt17(np.mean(table.ratios[:, j] <= theta))
                                                for j in range(len(table.solvers))]))
    return "\n".join(lines) + "\n", thetas


class TestProfileMatchesScans:
    """The sorted columns answer exactly what full scans of the ratio
    matrix answer, byte for byte and float for float."""

    def check(self, costs):
        table = performance_profile(costs)
        text, thetas = scanned_profile_csv(table)
        assert table.to_csv() == text
        assert np.array_equal(table.thresholds(), thetas)
        probes = np.concatenate((thetas, thetas * (1.0 + 1e-12), [1.5, 1e300, math.inf]))
        for j in range(len(table.solvers)):
            col = table.ratios[:, j]
            assert table.solve_fraction(j) == float(np.mean(np.isfinite(col)))
            for theta in probes:
                assert table.rho(j, theta) == float(np.mean(col <= theta))

    def test_random_matrices_with_ties_and_failures(self, rng):
        for _ in range(40):
            p, s = rng.integers(1, 40), rng.integers(2, 7)
            # few distinct costs, so ratios tie within and across columns
            costs = rng.integers(1, 12, size=(p, s)).astype(float)
            costs[rng.uniform(size=(p, s)) < 0.3] = math.inf
            costs[np.isinf(costs).all(axis=1), 0] = 3.0
            self.check(costs)

    def test_random_real_costs(self, rng):
        for _ in range(20):
            self.check(rng.uniform(1.0, 1e4, size=(rng.integers(1, 300), 5)))

    def test_a_solver_that_solves_one_problem(self):
        costs = np.full((7, 3), math.inf)
        costs[:, 0] = np.arange(1.0, 8.0)
        costs[4, 1] = 2.5
        self.check(costs)

    def test_a_single_problem(self):
        self.check([[4.0, 4.0, 6.0, math.inf]])

    def test_a_ratio_below_one_is_rejected_as_before(self):
        table = ProfileTable(("a", "b"), [[0.5, 1.0], [1.0, 2.0]])
        with pytest.raises(InvalidParameterError, match="theta must be >= 1"):
            table.to_csv()

    def test_theta_is_read_as_a_real(self):
        table = performance_profile([[1.0, 2.0]], ("a", "b"))
        with pytest.raises(InvalidParameterError, match="theta must be a real number"):
            table.rho(0, "x")
        with pytest.raises(InvalidParameterError, match="theta must be >= 1, got 0.5"):
            table.rho(1, 0.5)
        assert table.rho(1, "2") == table.rho(1, np.float64(2.0)) == 1.0


class TestProfileFromCells:
    def test_pivot_matches_direct_matrix(self):
        cells = [
            make_cell(seed=0, policy="bb1", iterations=10),
            make_cell(seed=0, policy="bb2", iterations=30),
            make_cell(seed=1, policy="bb1", iterations=40),
            make_cell(seed=1, policy="bb2", iterations=20),
        ]
        table = profile_from_cells(cells)
        want = performance_profile([[10.0, 30.0], [40.0, 20.0]], ("bb1", "bb2"))
        assert table.solvers == ("bb1", "bb2")
        assert np.array_equal(table.ratios, want.ratios)

    def test_a_repeated_cell_is_refused(self):
        # a second bb1 cell on one problem would overwrite the first's cost
        cells = [
            make_cell(seed=0, policy="bb1", iterations=10),
            make_cell(seed=0, policy="bb2", iterations=30),
            make_cell(seed=0, policy="bb1", iterations=40),
        ]
        with pytest.raises(InvalidParameterError, match="'bb1' has more than one cell"):
            profile_from_cells(cells)

    def test_cap_and_error_become_failures(self):
        cells = [
            make_cell(seed=0, policy="bb1", iterations=10),
            make_cell(seed=0, policy="bb2", iterations=500, status="cap"),
        ]
        table = profile_from_cells(cells)
        assert math.isinf(table.ratios[0, 1])


class TestProfileFromMatrixCsv:
    def test_tokens(self):
        text = "problem,a,b\np1,10,20\np2,5,fail\np3,4,--\np4,8,\n"
        table = profile_from_matrix_csv(text)
        assert table.solvers == ("a", "b")
        assert table.ratios[0, 1] == 2.0
        assert all(math.isinf(table.ratios[i, 1]) for i in (1, 2, 3))

    def test_comment_lines_skipped(self):
        text = "# produced elsewhere\nproblem,a,b\np1,10,20\n"
        assert profile_from_matrix_csv(text).ratios[0, 0] == 1.0

    def test_too_small_rejected(self):
        with pytest.raises(InvalidParameterError):
            profile_from_matrix_csv("problem,a\np1,10\n")
        with pytest.raises(InvalidParameterError):
            profile_from_matrix_csv("problem,a,b\n")

    @pytest.mark.parametrize("rows, bad, width", [
        ("p1,1,2,3\n", "1 ('p1')", 4),
        ("p1,1,2\np2,1\n", "2 ('p2')", 2),
        ("p1,1\n", "1 ('p1')", 2),
    ], ids=["wider", "ragged", "narrower"])
    def test_rows_must_match_the_header(self, rows, bad, width):
        with pytest.raises(ValueError,
                           match=rf"row {re.escape(bad)} has {width} fields; the header has 3"):
            profile_from_matrix_csv("problem,a,b\n" + rows)
