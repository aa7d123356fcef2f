"""Line-search solver: safeguards, nonmonotone acceptance, the full run
loop, and trace auditing."""

import dataclasses
import json
import math
import time
import warnings
import weakref
from collections import deque

import numpy as np
import pytest

import stlsbb
from stlsbb import (
    LineSearchStallError,
    Objective,
    RunTrace,
    SolverConfig,
    SteplengthPolicy,
    SpectrumSetting,
    TraceRow,
    audit_trace,
    generate_instance,
    kernels,
    nonmonotone_accept,
    parse_policy,
    rosenbrock2,
    run,
    run_rosenbrock_table,
    safeguard,
    solve_bb,
    solver,
    trace,
)
from stlsbb.errors import DimensionMismatchError, InvalidParameterError
from stlsbb.quadratic import as_objective
from stlsbb.solver import (
    STOP_GRAD_ABS,
    STOP_GRAD_REL,
    STOP_POINT_DIST,
)
from stlsbb.trace import GRADIENT_TOLERANCE, ITERATION_CAP, NONFINITE

COLUMNS = ("f", "grad_norm", "alpha", "backtracks", "fevals")


def sphere(dim=3):
    def eval_(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * float(x @ x), x.copy()

    return Objective("sphere", dim, eval_, x0=np.full(dim, 2.0))


class TestSafeguard:
    def test_reset_below_band(self):
        assert safeguard(0.0005, 0.001, 0.1) == 0.1

    def test_reset_above_band(self):
        assert safeguard(1500.0, 0.001, 0.1) == 0.1

    def test_band_edges_reset(self):
        # the band is open: alpha equal to eta or 1/eta is already outside
        assert safeguard(0.001, 0.001, 0.1) == 0.1
        assert safeguard(1000.0, 0.001, 0.1) == 0.1

    def test_interior_passes_through(self):
        assert safeguard(0.5, 0.001, 0.1) == 0.5
        assert safeguard(0.0011, 0.001, 0.1) == 0.0011

    def test_nonfinite_resets(self):
        assert safeguard(math.inf, 0.001, 0.1) == 0.1
        assert safeguard(math.nan, 0.001, 0.1) == 0.1


class TestNonmonotoneAccept:
    def test_accept_rule_hand_case(self):
        f_max = max((5.0, 3.0, 4.0))
        # threshold is 5 - 0.1 * 0.5 * 2 = 4.9
        assert nonmonotone_accept(4.9, f_max, 0.1, 0.5, 2.0)
        assert not nonmonotone_accept(4.900001, f_max, 0.1, 0.5, 2.0)

    @pytest.mark.parametrize("grad_sq", [3.7, 1e307, 1e308, math.inf])
    @pytest.mark.parametrize("f_max", [2.5, -1.5e308])
    def test_accept_on_arrays_equals_scalar_calls(self, rng, grad_sq, f_max):
        # on arrays the test rounds each element as on one trial's floats,
        # which run() and audit_trace() decide with, also where the
        # threshold overflows (1e307 with -1.5e308, and 1e308)
        beta = 0.1
        steps = [70.0]
        for _ in range(23):
            steps.append(steps[-1] * 0.8)
        ties = [f_max - beta * a * grad_sq for a in steps]
        f = [t + d for t in ties for d in (0.0, rng.standard_normal())]
        f += [math.nextafter(t, math.inf) for t in ties[:4]]
        f += [math.nextafter(t, -math.inf) for t in ties[4:8]]
        f += [math.nan, math.inf, -math.inf] * 4
        alphas = (steps * 4)[:len(f)]
        want = [nonmonotone_accept(fi, f_max, beta, a, grad_sq) for fi, a in zip(f, alphas)]
        with np.errstate(over="ignore", invalid="ignore"):
            got = nonmonotone_accept(np.array(f), f_max, beta, np.array(alphas), grad_sq)
        assert got.dtype == bool
        assert got.tolist() == want
        assert any(want) and not all(want)


class TestSolverConfig:
    def test_defaults_match_documented_values(self):
        c = SolverConfig()
        assert (c.memory, c.beta, c.eta, c.delta, c.sigma) == (
            10,
            0.1,
            0.001,
            0.1,
            0.8,
        )

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(InvalidParameterError):
            SolverConfig(max_iter=0)
        with pytest.raises(InvalidParameterError):
            SolverConfig(memory=-1)
        with pytest.raises(InvalidParameterError):
            SolverConfig(beta=1.0)
        with pytest.raises(InvalidParameterError):
            SolverConfig(eta=1.5)
        with pytest.raises(InvalidParameterError):
            SolverConfig(sigma=0.0)
        with pytest.raises(InvalidParameterError):
            SolverConfig(alpha0=-2.0)
        with pytest.raises(InvalidParameterError):
            SolverConfig(stop_rule="whenever")
        with pytest.raises(InvalidParameterError):
            SolverConfig(backtrack_cap=0)

    def test_delta_must_sit_inside_band(self):
        with pytest.raises(InvalidParameterError):
            SolverConfig(eta=0.001, delta=0.0005)
        with pytest.raises(InvalidParameterError):
            SolverConfig(eta=0.001, delta=2000.0)

    def test_point_rule_needs_target(self):
        with pytest.raises(InvalidParameterError):
            SolverConfig(stop_rule=STOP_POINT_DIST)
        c = SolverConfig(stop_rule=STOP_POINT_DIST, target=[1.0, 1.0])
        assert np.array_equal(c.target, [1.0, 1.0])

    @pytest.mark.parametrize("rule", [STOP_GRAD_ABS, STOP_GRAD_REL])
    def test_target_only_with_point_rule(self, rule):
        # no other rule reads a target, so one given there is a mistake
        with pytest.raises(InvalidParameterError):
            SolverConfig(stop_rule=rule, target=[1.0, 2.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_target_must_be_finite(self, bad):
        with pytest.raises(InvalidParameterError):
            SolverConfig(stop_rule=STOP_POINT_DIST, target=[bad, 1.0])

    def test_meta_roundtrip(self):
        c = SolverConfig(epsilon=1e-4, memory=7, sigma=0.5)
        back = SolverConfig.from_meta(c.to_meta())
        assert back == c
        # trace JSON keeps this key order: alpha0 is not a meta key, and
        # target comes last, only when it is set
        keys = ["solver", "epsilon", "max_iter", "memory", "beta", "delta",
                "eta", "sigma", "stop_rule", "backtrack_cap"]
        assert list(c.to_meta()) == keys
        c = SolverConfig(alpha0=0.5, stop_rule=STOP_POINT_DIST, target=[1.0, 2.0])
        meta = c.to_meta()
        assert list(meta) == keys + ["target"]
        assert meta["target"] == [1.0, 2.0]
        back = dataclasses.replace(SolverConfig.from_meta(meta), alpha0=0.5)
        assert np.array_equal(back.target, c.target)
        assert back.to_meta() == meta and back.alpha0 == 0.5


class TestObjectiveAndTraceChecks:
    def test_objective_needs_a_dimension(self):
        with pytest.raises(InvalidParameterError, match="dim must be >= 1"):
            Objective("empty", 0, lambda x: (0.0, x))

    def test_objective_x0_must_match_its_dimension(self):
        with pytest.raises(DimensionMismatchError, match="x0 has length 2, expected 3"):
            Objective("sphere", 3, lambda x: (0.0, x), x0=[1.0, 2.0])

    def test_objective_eval_must_be_callable(self):
        # refused here, not inside run with a bare TypeError, whether given
        # as None or left out without eval_rows
        with pytest.raises(InvalidParameterError, match="eval must be callable, got None"):
            Objective("q", 2, None)
        with pytest.raises(InvalidParameterError, match="eval must be callable, got None"):
            Objective("q", 2)

    @pytest.mark.parametrize("name", ["eval_rows", "lower_bounds"])
    def test_objective_optional_callables_are_callable(self, name):
        with pytest.raises(InvalidParameterError, match=f"{name} must be callable or None, got 5"):
            Objective("q", 2, lambda x: (0.0, x), **{name: 5})

    def test_objective_bound_needs_eval_rows(self):
        # without eval_rows every round holds one trial, which run never
        # reads a bound for
        def bounds(x, f, g, steps):
            return [-math.inf] * len(steps)

        with pytest.raises(InvalidParameterError, match="lower_bounds needs eval_rows"):
            Objective("q", 2, lambda x: (0.0, x), lower_bounds=bounds)
        obj = as_objective(generate_instance(20, SpectrumSetting(1, 1e3), seed=0))
        with pytest.raises(InvalidParameterError, match="lower_bounds needs eval_rows"):
            dataclasses.replace(obj, eval_rows=None)

    @pytest.mark.parametrize("name", ["rosenbrock2", "quadratic"])
    def test_eval_is_row_zero_of_eval_rows(self, name):
        # an objective written once, as eval_rows, takes eval from it
        if name == "rosenbrock2":
            eval_rows = rosenbrock2().eval_rows
        else:
            e1, e2 = [1.0, 0.0], [0.0, 1.0]
            inst = stlsbb.QuadraticInstance(2, e1, e2, e1, [1.0, 3.0], [1.0, -2.0])
            eval_rows = as_objective(inst).eval_rows
        seen = []

        def recorded(xs):
            seen.append(xs)
            return eval_rows(xs)

        obj = Objective("r", 2, eval_rows=recorded)
        base = np.array([0.3, 7.0, -1.7, 5.0])
        for x in (base[:2].copy(), base[::2]):  # contiguous, and strided
            f, g = obj.eval(x)
            want_f, want_g = eval_rows(x[None])
            assert type(f) is float and f == float(want_f[0])
            assert np.array_equal(g, want_g[0])
            # the block is one contiguous row, so a view gives its copy's bits
            assert seen[-1].shape == (1, 2) and seen[-1].flags.c_contiguous

    def test_derived_eval_holds_no_reference_to_its_objective(self):
        obj = rosenbrock2()
        ref = weakref.ref(obj)
        f = obj.eval
        del obj
        assert ref() is None  # no cycle keeps it alive until a collection
        assert f(np.array([1.0, 1.0]))[0] == 0.0

    def test_replace_keeps_the_derived_eval(self):
        obj = rosenbrock2()

        def rows(xs):
            return obj.eval_rows(xs)

        assert dataclasses.replace(obj, eval_rows=rows).eval is obj.eval

    def test_a_non_callable_eval_rows_is_named_before_eval_is_derived(self):
        with pytest.raises(InvalidParameterError, match="eval_rows must be callable or None, got 5"):
            Objective("q", 2, eval_rows=5)

    def test_trace_termination_must_be_known(self):
        with pytest.raises(InvalidParameterError, match="termination must be one of"):
            RunTrace([1.0], [1.0], [math.nan], [0], [0], "finished", [0.0])

    def test_trace_needs_a_row(self):
        with pytest.raises(InvalidParameterError, match="at least one row"):
            RunTrace([], [], [], [], [], ITERATION_CAP, [0.0])

    @pytest.mark.parametrize("final_x", [np.zeros((2, 2)), 0.5, [[1.0]]])
    def test_trace_final_x_must_be_one_dimensional(self, final_x):
        # to_json writes final_x as a list of floats, which no other shape gives
        with pytest.raises(InvalidParameterError, match="^final_x must be 1-D, got an array"):
            RunTrace([1.0], [1.0], [math.nan], [0], [0], ITERATION_CAP, final_x)

    @pytest.mark.parametrize("meta", [[], True, "x", 3, 2.5])
    def test_trace_meta_must_be_a_dict(self, meta):
        # audit_trace reads meta as a mapping; None reads as {}
        assert RunTrace([1.0], [1.0], [math.nan], [0], [0], ITERATION_CAP, [0.0]).meta == {}
        with pytest.raises(InvalidParameterError, match="^meta must be a dict, got "):
            RunTrace([1.0], [1.0], [math.nan], [0], [0], ITERATION_CAP, [0.0], meta)

    @pytest.mark.parametrize("column", ["f", "grad_norm", "alpha"])
    def test_a_missing_real_is_named_not_read_as_nan(self, column):
        # a None in a float column is refused with the column's name, where
        # a float array would have made it a nan no one could tell apart
        cols = {"f": [1.0, 0.5], "grad_norm": [2.0, 1.0], "alpha": [0.1, math.nan]}
        RunTrace(**cols, backtracks=[0, 0], fevals=[1, 0], termination=ITERATION_CAP,
                 final_x=[0.0])
        cols[column] = [cols[column][0], None]
        with pytest.raises(InvalidParameterError,
                           match=f"^{column} must be a real number, got None$"):
            RunTrace(**cols, backtracks=[0, 0], fevals=[1, 0], termination=ITERATION_CAP,
                     final_x=[0.0])


class TestInitialSteplength:
    # run's opening probe, read back from the trace meta
    @staticmethod
    def probe(x0):
        obj = Objective("square", 1, lambda x: (float(x[0]) ** 2, 2.0 * x))
        return run(obj, x0, SolverConfig(max_iter=1), SteplengthPolicy("bb1")).meta["alpha0"]

    def test_probe_accepted(self):
        # f = x^2 at x0 = 2: a = 1/4 and the probe point improves
        assert self.probe([2.0]) == 0.25

    def test_probe_rejected_quarters(self):
        # f = x^2 at x0 = 0.1: a = 5 overshoots, so a/4 comes back
        assert self.probe([0.1]) == 1.25


class TestRosenbrock:
    def test_rows_equal_eval_bitwise(self, rng):
        # the row eval must square 1 - x1 as the float ** 2 of eval does,
        # which on some of these points is not u * u
        obj = rosenbrock2()
        xs = rng.uniform(-3.0, 3.0, (20_000, 2))
        assert any(u**2 != u * u for u in (1.0 - xs[:, 0]).tolist())
        f_rows, g_rows = obj.eval_rows(xs)
        want = [obj.eval(x) for x in xs]
        assert np.array_equal(f_rows, [f for f, _ in want])
        assert np.array_equal(g_rows, [g for _, g in want])

    def test_start_value(self):
        obj = rosenbrock2()
        f, _ = obj.eval(np.array([-1.2, 1.0]))
        assert f == pytest.approx(24.2, rel=1e-15)
        f_min, g_min = obj.eval(np.array([1.0, 1.0]))
        assert f_min == 0.0
        assert np.array_equal(g_min, [0.0, 0.0])

    def test_gradient_finite_difference(self, rng):
        obj = rosenbrock2()
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, 2)
            _, g = obj.eval(x)
            for i in range(2):
                h = 1e-6 * (1.0 + abs(x[i]))
                xp = x.copy()
                xp[i] += h
                xm = x.copy()
                xm[i] -= h
                fd = (obj.eval(xp)[0] - obj.eval(xm)[0]) / (2.0 * h)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-4)

    def test_overflowing_square_gives_inf(self):
        # at a far point (1 - x1)^2 overflows, which pow raises on; f is
        # +inf there, the block's finite rows keep their bits, and a run
        # whose every trial lands that far ends nonfinite at iterate 0,
        # all without a RuntimeWarning
        obj = rosenbrock2()
        near = np.array([0.5, 0.3])
        f, g = obj.eval_rows(np.array([[1e200, 0.0], near]))
        assert f[0] == math.inf
        assert f[1] == obj.eval(near)[0]
        assert np.array_equal(g[1], obj.eval(near)[1])
        tr = run(obj, obj.x0, SolverConfig(alpha0=1e160, eta=1e-300),
                 SteplengthPolicy("bb1"))
        assert tr.termination == NONFINITE and tr.iterations == 0

    def test_an_overflowing_square_takes_the_guarded_rows(self):
        # where pow overflows on (1 - x1)^2, from |1 - x1| about 1.34e154
        # on, the block is taken again row by row, each such square read as
        # inf; with inf and nan coordinates that gives the f of a per-row
        # loop that guards every square, pinned here on a fixed block
        inf, nan = math.inf, math.nan
        xs = np.array([[0.5, 0.3], [1.4e154, 0.0], [-1.4e154, 1.0], [1.0 - 1.4e154, 2.0],
                       [1.4e154, inf], [-1.4e154, -inf], [1e300, -1e300], [inf, 0.0],
                       [-inf, inf], [nan, 1.0], [1.0, nan], [2.0, 1.0], [-1.3e154, 0.0]])

        def guarded(xs):
            f = []
            for x1, x2 in xs.tolist():
                t = x2 - x1 * x1
                try:
                    square = (1.0 - x1) ** 2
                except OverflowError:
                    square = inf
                f.append(100.0 * t * t + square)
            return f

        want = [0.4999999999999999, inf, inf, inf, nan, inf, inf, inf, nan, nan, nan, 901.0,
                inf]
        obj = rosenbrock2()
        for block in (xs, xs[::-1], xs[:2], xs[1:2]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                f, _ = obj.eval_rows(block)
            assert type(f) is list
            assert [v.hex() for v in f] == [v.hex() for v in guarded(block)]
        assert [v.hex() for v in obj.eval_rows(xs)[0]] == [v.hex() for v in want]

    def test_far_trials_end_nonfinite_without_any_warning(self):
        obj = rosenbrock2()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run(obj, obj.x0, SolverConfig(alpha0=1e160, eta=1e-300),
                     SteplengthPolicy("bb1"))
        assert tr.termination == NONFINITE and tr.iterations == 0

    @staticmethod
    def numpy_rows(xs):
        # the block evaluated by numpy with its warnings off, squaring
        # 1 - x1 through libm pow as eval_rows does
        def pow_or_inf(r):
            try:
                return math.pow(r, 2.0)
            except OverflowError:
                return math.inf

        with np.errstate(all="ignore"):
            x1 = xs[:, 0]
            t = xs[:, 1] - x1 * x1
            u = 1.0 - x1
            f = 100.0 * t * t + np.array([pow_or_inf(r) for r in u.tolist()])
            g = np.stack([-400.0 * x1 * t - 2.0 * u, 200.0 * t], axis=1)
        return f, g

    def test_rows_equal_numpy_bytes_at_far_and_nonfinite_points(self, rng):
        # blocks of 1 to 5 rows drawn from near points, magnitudes up to
        # 1e300 whose squares overflow, and infinities and nans
        special = np.array([math.inf, -math.inf, math.nan, 0.0, -0.0, 1e154, -1e160])
        obj = rosenbrock2()
        for _ in range(2000):
            rows = int(rng.integers(1, 6))
            xs = rng.uniform(-3.0, 3.0, (rows, 2))
            far = rng.random((rows, 2)) < 0.4
            xs[far] = rng.choice([-1.0, 1.0], far.sum()) * 10.0 ** rng.uniform(0, 300, far.sum())
            odd = rng.random((rows, 2)) < 0.15
            xs[odd] = rng.choice(special, odd.sum())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                f, g = obj.eval_rows(xs)
                g = np.asarray(g)
            # f comes as a list of floats, which run reads as it is
            assert type(f) is list
            f = np.asarray(f)
            want_f, want_g = self.numpy_rows(xs)
            assert f.dtype == g.dtype == np.float64
            assert (f.shape, g.shape) == (want_f.shape, want_g.shape)
            assert f.tobytes() == want_f.tobytes()
            assert g.tobytes() == want_g.tobytes()

    def test_empty_block(self):
        # numpy reads an empty sequence of rows as shape (0,)
        f, g = rosenbrock2().eval_rows(np.empty((0, 2)))
        g = np.asarray(g)
        assert len(f) == 0
        assert (np.asarray(f).shape, g.shape, g.dtype) == ((0,), (0,), np.float64)

    def test_gradient_rows_are_the_eager_rows_when_read(self, rng):
        # G is computed row by row as it is read, as a pair of Python
        # floats; every row, counted from either end, and the whole block
        # through np.asarray, must be the eager numpy rows byte for byte, on
        # near, far (to 1e300) and nonfinite points, and an index past
        # either end is refused
        special = np.array([math.inf, -math.inf, math.nan, 0.0, -0.0, 1e154, -1e160])
        obj = rosenbrock2()
        for _ in range(1000):
            rows = int(rng.integers(1, 8))
            xs = rng.uniform(-3.0, 3.0, (rows, 2))
            far = rng.random((rows, 2)) < 0.4
            xs[far] = rng.choice([-1.0, 1.0], far.sum()) * 10.0 ** rng.uniform(0, 300, far.sum())
            odd = rng.random((rows, 2)) < 0.15
            xs[odd] = rng.choice(special, odd.sum())
            _, want = self.numpy_rows(xs)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, g = obj.eval_rows(xs)
                assert len(g) == rows
                for i in range(-rows, rows):
                    row = g[i]
                    assert [type(v) for v in row] == [float, float]
                    assert np.array(row).tobytes() == want[i].tobytes(), (xs, i)
                block = np.asarray(g)
            assert (block.dtype, block.shape) == (np.float64, (rows, 2))
            assert block.tobytes() == want.tobytes()
            for i in (rows, -rows - 1):
                with pytest.raises(IndexError):
                    g[i]
        _, g = obj.eval_rows(np.empty((0, 2)))
        assert len(g) == 0 and np.asarray(g).shape == (0,)
        with pytest.raises(IndexError):
            g[0]


class TestRunLoop:
    def test_sphere_converges_fast(self):
        # the first BB1 pair on a sphere has steplength exactly 1, which
        # jumps straight to the minimizer
        obj = sphere()
        tr = run(obj, obj.x0, SolverConfig(epsilon=1e-10), SteplengthPolicy("bb1"))
        assert tr.solved
        assert tr.iterations <= 3
        assert tr.final_x == pytest.approx(np.zeros(3), abs=1e-10)

    def test_zero_gradient_start(self):
        obj = sphere()
        tr = run(obj, np.zeros(3), SolverConfig(), SteplengthPolicy("bb1"))
        assert tr.solved and tr.iterations == 0
        assert len(tr.rows) == 1
        # no probe runs at a stationary start; meta records delta
        assert tr.meta["alpha0"] == SolverConfig().delta

    def test_overflowing_secant_dots_end_nonfinite_without_warning(self):
        # the one step reaches f = -inf, and its pair's s's overflows
        # before the run ends nonfinite
        obj = Objective("steep-line", 1, lambda x: (1e154 * float(x[0]), np.array([1e154])),
                        x0=[0.0])
        cfg = SolverConfig(alpha0=100.0, eta=1e-10, delta=1.0, max_iter=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run(obj, obj.x0, cfg, SteplengthPolicy("bb1"))
        assert tr.termination == NONFINITE

    def test_dimension_mismatch(self):
        obj = sphere()
        with pytest.raises(DimensionMismatchError):
            run(obj, np.zeros(4), SolverConfig(), SteplengthPolicy("bb1"))
        # a point_dist target must not broadcast against the iterate
        obj = rosenbrock2()
        for target in ([1.0], [1.0, 1.0, 1.0]):
            cfg = SolverConfig(stop_rule=STOP_POINT_DIST, target=target)
            with pytest.raises(DimensionMismatchError):
                run(obj, obj.x0, cfg, SteplengthPolicy("bb1"))

    def test_gradient_of_the_wrong_length(self):
        # a user objective whose gradient is shorter than its dim is
        # named at the start point, before any secant pair is formed
        for g in ([1.0], [1.0, 2.0, 3.0, 4.0]):
            obj = Objective("short-gradient", 3,
                            lambda x, g=np.array(g): (float(x @ x), g), x0=np.ones(3))
            with pytest.raises(DimensionMismatchError, match="gradient has length"):
                run(obj, obj.x0, SolverConfig(), SteplengthPolicy("bb1"))

    def test_a_gradient_that_changes_length_is_named(self):
        # an eval-only objective whose gradient is whole at the start and
        # short after it: the accepted trial's gradient is checked as g0 is
        start = np.ones(3)

        def eval_(x):
            return float(x @ x), 2.0 * (x if np.array_equal(x, start) else x[:2])

        obj = Objective("shrinking-gradient", 3, eval_, x0=start)
        with pytest.raises(DimensionMismatchError, match="gradient has length 2, expected 3"):
            run(obj, obj.x0, SolverConfig(), SteplengthPolicy("bb1"))

    def test_eval_gives_a_float64_gradient_and_asarray_the_block(self):
        # the derived eval gives an array, though G's rows are float pairs,
        # and np.asarray(G) reads them into the (rows, 2) float64 block
        obj = rosenbrock2()
        f, g = obj.eval(np.array([-1.2, 1.0]))
        assert type(f) is float
        assert type(g) is np.ndarray and (g.dtype, g.shape) == (np.float64, (2,))
        assert g.tolist() == [-215.6, -87.99999999999999]
        xs = np.array([[-1.2, 1.0], [0.5, 0.3], [1.0, 1.0]])
        _, G = obj.eval_rows(xs)
        block = np.asarray(G)
        assert (block.dtype, block.shape) == (np.float64, (3, 2))
        assert block.tobytes() == np.array([obj.eval(x)[1] for x in xs]).tobytes()

    def test_a_kept_gradient_row_of_another_shape_is_flattened(self):
        # run copies the kept gradient row and flattens it when it is not
        # 1-D, so gradients given as (2, 1) columns make the plain run
        ros = rosenbrock2()

        def column_rows(xs):
            f, g = ros.eval_rows(xs)
            return f, [np.reshape(row, (2, 1)) for row in g]

        obj = dataclasses.replace(ros, eval=None, eval_rows=column_rows)
        assert obj.eval(obj.x0)[1].shape == (2, 1)
        for policy in ("bb1", "gamma:1"):
            config, policy = SolverConfig(epsilon=1e-6), parse_policy(policy)
            want = run(ros, ros.x0, config, policy)
            assert run(obj, obj.x0, config, policy).to_json() == want.to_json()

    def test_eval_rows_must_give_a_value_per_row(self):
        # an eval_rows that gives one f for a round of two rows is named,
        # not counted as if both trials ran
        ros = rosenbrock2()

        def first_row_only(xs):
            f, g = ros.eval_rows(xs)
            return f[:1], np.asarray(g)[:1]

        obj = dataclasses.replace(ros, eval_rows=first_row_only)
        with pytest.raises(DimensionMismatchError,
                           match="eval_rows gave 1 f values and 1 gradients for 2 rows"):
            run(obj, obj.x0, SolverConfig(alpha0=1.0), SteplengthPolicy("bb1"))

    def test_fixed_alpha0_recorded(self):
        obj = sphere()
        cfg = SolverConfig(alpha0=0.25)
        tr = run(obj, obj.x0, cfg, SteplengthPolicy("bb1"))
        assert tr.rows[0].alpha == 0.25
        assert tr.meta["alpha0_rule"] == "fixed"
        tr2 = run(obj, obj.x0, SolverConfig(), SteplengthPolicy("bb1"))
        assert tr2.meta["alpha0_rule"] == "probe"

    def test_iteration_cap(self):
        obj = rosenbrock2()
        tr = run(obj, obj.x0, SolverConfig(epsilon=1e-12, max_iter=5),
                 SteplengthPolicy("bb2"))
        assert tr.termination == ITERATION_CAP
        assert tr.iterations == 5

    def test_rosenbrock_solves_from_standard_start(self):
        obj = rosenbrock2()
        cfg = SolverConfig(
            epsilon=1e-6,
            max_iter=5000,
            alpha0=1.0,
            stop_rule=STOP_POINT_DIST,
            target=[1.0, 1.0],
        )
        tr = run(obj, obj.x0, cfg, SteplengthPolicy("gamma", gamma=1.0))
        assert tr.solved
        assert np.linalg.norm(tr.final_x - 1.0) <= 1e-6

    def test_grad_rel_stop(self):
        obj = sphere(5)
        cfg = SolverConfig(epsilon=1e-3, stop_rule=STOP_GRAD_REL)
        tr = run(obj, np.full(5, 3.0), cfg, SteplengthPolicy("bb1"))
        gn0 = tr.rows[0].grad_norm
        assert tr.solved
        assert tr.rows[-1].grad_norm <= 1e-3 * gn0

    def test_nonconvex_curvature_failures_are_survivable(self):
        # f = x^4 - x^2 is concave around the start, so some secant pairs
        # have nonpositive curvature; the safeguard turns those proposals
        # into delta and the run still reaches a minimizer at +-1/sqrt(2)
        def eval_(x):
            t = float(x[0])
            return t**4 - t**2, np.array([4.0 * t**3 - 2.0 * t])

        obj = Objective("quartic-well", 1, eval_)
        tr = run(obj, [0.1], SolverConfig(epsilon=1e-10), SteplengthPolicy("bb1"))
        assert tr.solved
        assert abs(abs(tr.final_x[0]) - 1.0 / math.sqrt(2.0)) < 1e-6

    def test_underflowed_secant_takes_a_reset(self):
        # a quadratic and its start scaled by 2^-300: some secant's y'y
        # underflows to 0 while s'y > 0, and gammaPrime:0.05 divides by it.
        # The rule gives float64's inf, the next safeguard resets it to
        # delta, and the run ends by its stop test
        inst = generate_instance(100, SpectrumSetting(1, 1e4), seed=0)
        scale = 2.0 ** -300
        inst = dataclasses.replace(inst, linear=inst.linear * scale)
        config = SolverConfig(epsilon=1e-6, stop_rule=STOP_GRAD_REL, eta=1e-10, alpha0=1e-3,
                              max_iter=20000)
        tr = run(as_objective(inst), np.full(100, scale), config, parse_policy("gammaPrime:0.05"))
        assert tr.termination == GRADIENT_TOLERANCE
        assert audit_trace(tr) == []

    @staticmethod
    def quartic_iterates(x0, config, policy):
        # run f = sum(x^4 - x^2) and return the trace, the accepted iterates
        # and the gradient; evals are the start and its probe, then
        # 1 + backtracks trials per row, the last of which is the next
        # iterate
        evals = []

        def grad(x):
            return 4.0 * x**3 - 2.0 * x

        def eval_(x):
            x = np.array(x, dtype=float)
            evals.append(x)
            return float(np.sum(x**4 - x**2)), grad(x)

        tr = run(Objective("quartic-well", len(x0), eval_), x0, config, policy)
        ends = 1 + np.cumsum([r.fevals for r in tr.rows[:-1]])
        return tr, [evals[0]] + [evals[e] for e in ends], grad

    def test_atc_carries_delta_through_curvature_failures(self):
        # the first two secant pairs from 0.1 have s'y <= 0, so rows 1 and 2
        # take delta, and ATC reads delta as its previous steplength at index 2
        cfg = SolverConfig(epsilon=1e-10)
        tr, xs, grad = self.quartic_iterates([0.1], cfg, parse_policy("atc:3"))
        assert [r.alpha for r in tr.rows[1:3]] == [cfg.delta, cfg.delta]
        s, y = xs[3] - xs[2], grad(xs[3]) - grad(xs[2])
        want = kernels.atc_step(float(s @ s), float(y @ y), float(s @ y), cfg.delta, 2, 3)
        assert tr.rows[3].alpha == want
        assert want == pytest.approx(4.4969, rel=1e-4)

    def test_atc_passes_delta_through_after_a_curvature_failure(self):
        # in 1-D bb2 == bb1 and the clamp hides prev; in 2-D pair 4 fails,
        # pair 5 brackets delta strictly, and index 5 is off a cycle restart,
        # so row 6 is delta passed through, not a reset
        cfg = SolverConfig(epsilon=1e-10)
        tr, xs, grad = self.quartic_iterates([0.1, 1.2], cfg, parse_policy("atc:4"))
        pairs = [(xs[k + 1] - xs[k], grad(xs[k + 1]) - grad(xs[k])) for k in (4, 5)]
        (s4, y4), (s5, y5) = pairs
        assert s4 @ y4 <= 0.0 < s5 @ y5
        assert (s5 @ y5) / (y5 @ y5) < cfg.delta < (s5 @ s5) / (s5 @ y5)
        assert tr.rows[5].alpha == tr.rows[6].alpha == cfg.delta

    def test_line_search_stall_raises(self):
        # a cliff objective that never improves: every trial fails the
        # acceptance test until the backtrack cap trips
        def eval_(x):
            f = 0.0 if float(x[0]) == 0.0 else 1.0
            return f, np.array([1.0])

        obj = Objective("cliff", 1, eval_)
        with pytest.raises(LineSearchStallError):
            run(obj, [0.0], SolverConfig(backtrack_cap=5), SteplengthPolicy("bb1"))

    def test_nan_gradient_ends_nonfinite(self):
        # the gradient is nan everywhere but at the start, so the first
        # step is accepted on f and the second iterate has no gradient;
        # backtracking on it could only stall
        x0 = np.array([2.0, -1.0])

        def eval_(x):
            g = x.copy() if np.array_equal(x, x0) else np.full(2, np.nan)
            return 0.5 * float(x @ x), g

        obj = Objective("nan-gradient", 2, eval_)
        tr = run(obj, x0, SolverConfig(alpha0=0.5), SteplengthPolicy("bb1"))
        assert tr.termination == NONFINITE
        assert not tr.solved
        assert tr.iterations == 1
        assert math.isnan(tr.rows[-1].grad_norm)
        # a nan gradient at the start stops before the opening probe
        # evaluates the objective anywhere else
        seen = []

        def nan_everywhere(x):
            seen.append(x)
            return 0.5 * float(x @ x), np.full(2, np.nan)

        obj = Objective("nan-start", 2, nan_everywhere)
        tr = run(obj, x0, SolverConfig(), SteplengthPolicy("bb1"))
        assert tr.termination == NONFINITE and tr.iterations == 0
        assert len(seen) == 1

    def test_nan_at_every_trial_ends_nonfinite(self):
        # f is nan everywhere but at the start: no trial point can pass the
        # acceptance test, and the backtrack cap ends the run as nonfinite
        # at iterate 0 instead of reporting a stall
        x0 = np.array([2.0, -1.0])
        seen = []

        def eval_(x):
            seen.append(x)
            f = 0.5 * float(x @ x) if np.array_equal(x, x0) else math.nan
            return f, x.copy()

        obj = Objective("nan-trials", 2, eval_)
        tr = run(obj, x0, SolverConfig(alpha0=0.5, backtrack_cap=7), SteplengthPolicy("bb1"))
        assert tr.termination == NONFINITE and not tr.solved
        assert tr.iterations == 0
        assert len(seen) == 1 + 8  # x0, then the first trial and 7 backtracks
        assert np.array_equal(tr.final_x, x0)
        assert tr.rows[-1].f == 2.5

    def test_finite_rejected_trial_still_stalls(self):
        # one finite but rejected trial among nan ones keeps the stall error
        x0 = np.array([1.0])
        calls = []

        def eval_(x):
            calls.append(x)
            if np.array_equal(x, x0):
                return 0.0, np.array([1.0])
            return (1.0 if len(calls) == 3 else math.nan), np.array([1.0])

        obj = Objective("mostly-nan", 1, eval_)
        with pytest.raises(LineSearchStallError):
            run(obj, x0, SolverConfig(alpha0=0.5, backtrack_cap=5), SteplengthPolicy("bb1"))

    def test_backtracks_and_fevals_recorded(self):
        obj = rosenbrock2()
        tr = run(obj, obj.x0, SolverConfig(epsilon=1e-6, alpha0=1.0, max_iter=2000),
                 SteplengthPolicy("bb1"))
        assert any(r.backtracks > 0 for r in tr.rows[:-1])
        for r in tr.rows[:-1]:
            assert r.fevals == 1 + r.backtracks
        assert tr.rows[-1].fevals == 0

    def test_zero_memory_accepts_only_decreasing_f(self):
        # the window holds memory + 1 values of f, so at memory 0 the test
        # compares against the current f alone and the run is monotone
        obj = rosenbrock2()
        f = {m: run(obj, obj.x0, SolverConfig(memory=m, max_iter=2000),
                    SteplengthPolicy("bb1")).f_values()
             for m in (0, 10)}
        assert np.all(np.diff(f[0]) < 0.0)
        assert np.any(np.diff(f[10]) > 0.0)

    def test_trace_json_roundtrip(self):
        obj = rosenbrock2()
        tr = run(obj, obj.x0, SolverConfig(epsilon=1e-4, max_iter=800),
                 SteplengthPolicy("gamma", gamma=1.5))
        back = RunTrace.from_json(tr.to_json())
        assert back.termination == tr.termination
        assert back.meta == tr.meta
        assert len(back.rows) == len(tr.rows)
        for a, b in zip(tr.rows, back.rows):
            if math.isnan(a.alpha):
                assert math.isnan(b.alpha)
                assert (a.k, a.f, a.grad_norm) == (b.k, b.f, b.grad_norm)
            else:
                assert a == b
        assert np.array_equal(back.final_x, tr.final_x)

    def test_trace_row_dict_keys_and_casts(self):
        tr = RunTrace([1.5], [0.25], [0.1], [2], [3], ITERATION_CAP, [0.0])
        d = tr.to_dict()
        assert d["rows"] == [{"k": 0, "f": 1.5, "grad_norm": 0.25, "alpha": 0.1,
                              "backtracks": 2, "fevals": 3}]
        assert list(d["rows"][0]) == ["k", "f", "grad_norm", "alpha", "backtracks", "fevals"]
        assert RunTrace.from_dict(d).rows == tr.rows == (TraceRow(0, 1.5, 0.25, 0.1, 2, 3),)
        # JSON numbers come back as each field's type
        d["rows"] = [{"k": 0.0, "f": 1, "grad_norm": 0, "alpha": "0.5",
                      "backtracks": 2.0, "fevals": 3}]
        row = RunTrace.from_dict(d).to_dict()["rows"][0]
        assert [type(v) for v in row.values()] == [int, float, float, float, int, int]


class TestTraceReader:
    @staticmethod
    def make_trace():
        obj = rosenbrock2()
        config = SolverConfig(max_iter=5, stop_rule=STOP_POINT_DIST, target=[1.0, 1.0])
        return run(obj, obj.x0, config, SteplengthPolicy("bb1"))

    def test_dicts_do_not_share_meta_with_the_trace(self):
        tr = self.make_trace()
        d = tr.to_dict()
        d["meta"]["sigma"] = 0.5
        d["meta"]["target"][0] = 9.0
        assert tr.meta["sigma"] == 0.8 and tr.meta["target"] == [1.0, 1.0]
        back = RunTrace.from_dict(d)
        d["meta"]["target"][1] = 7.0
        assert back.meta["target"] == [9.0, 1.0]

    @pytest.mark.parametrize("fmt", [None, "stlsbb-trace-v0", "stlsbb-instance-v1"])
    def test_only_a_trace_document_is_read(self, fmt):
        d = self.make_trace().to_dict()
        d["format"] = fmt
        with pytest.raises(InvalidParameterError, match="not a serialized trace"):
            RunTrace.from_dict(d)
        with pytest.raises(InvalidParameterError, match="not a serialized trace"):
            RunTrace.from_dict([d])

    def test_a_fractional_row_count_is_refused(self):
        d = self.make_trace().to_dict()
        d["rows"][0]["k"] = 3.7
        with pytest.raises(InvalidParameterError, match="k must be >= 0 and whole, got 3.7"):
            RunTrace.from_dict(d)

    def test_a_k_that_jumps_is_refused(self):
        d = json.loads(self.make_trace().to_json())
        for row in d["rows"][4:]:
            row["k"] += 5  # 0, 1, 2, 3, 9, 10
        with pytest.raises(InvalidParameterError, match="row 4 has k = 9"):
            RunTrace.from_json(json.dumps(d))

    @pytest.mark.parametrize("ks", [(1, 2), (0, 0), (0, 2, 1), (0, 1, 3)])
    def test_rows_are_numbered_in_order(self, ks):
        d = self.make_trace().to_dict()
        d["rows"] = [{**d["rows"][0], "k": k} for k in ks]
        with pytest.raises(InvalidParameterError, match="rows are numbered 0, 1, 2"):
            RunTrace.from_dict(d)

    def test_a_count_beyond_int64_is_refused(self):
        d = self.make_trace().to_dict()
        d["rows"][0]["backtracks"] = 10**30
        with pytest.raises(InvalidParameterError, match="backtracks must hold ints in range"):
            RunTrace.from_dict(d)

    @pytest.mark.parametrize("name", ["backtracks", "fevals"])
    def test_a_fractional_count_in_a_row_is_refused(self, name):
        d = self.make_trace().to_dict()
        d["rows"][0][name] = 2.5
        with pytest.raises(InvalidParameterError, match=f"{name} must be >= 0 and whole, got 2.5"):
            RunTrace.from_dict(d)
        # the constructor too, where an int64 column would truncate 2.5
        # and keep -1
        for bad in (2.5, -1):
            counts = {"backtracks": [0], "fevals": [0], name: [bad]}
            with pytest.raises(InvalidParameterError,
                               match=f"{name} must be >= 0 and whole, got {bad}"):
                RunTrace([1.0], [1.0], [math.nan], counts["backtracks"], counts["fevals"],
                         ITERATION_CAP, [0.0])

    @pytest.mark.parametrize("final_x, want", [(2.5, [2.5]), ([[1.0], [2.0]], [1.0, 2.0])])
    def test_a_scalar_or_nested_final_x_reads_as_a_vector(self, final_x, want):
        # read through errors.vector, so the trace's to_json writes it back
        # as a flat list
        d = self.make_trace().to_dict()
        d["final_x"] = final_x
        assert RunTrace.from_dict(d).to_dict()["final_x"] == want

    def test_columns_of_unequal_length_are_refused(self):
        with pytest.raises(InvalidParameterError, match="one length"):
            RunTrace([1.0, 0.5], [1.0, 0.5], [0.1], [0, 0], [1, 0], ITERATION_CAP, [0.0])

    def test_a_meta_without_a_config_field_is_named(self):
        tr = self.make_trace()
        del tr.meta["sigma"], tr.meta["memory"]
        with pytest.raises(InvalidParameterError, match="trace meta lacks memory, sigma"):
            audit_trace(tr)


class TestColumns:
    @staticmethod
    def traces():
        obj = rosenbrock2()
        gbb = run(obj, obj.x0, SolverConfig(max_iter=60), SteplengthPolicy("bb1"))
        inst = generate_instance(20, SpectrumSetting(1, 1e2), seed=0)
        return gbb, solve_bb(inst, SteplengthPolicy("bb1"), 1e-6, 500)

    def test_traces_hold_no_row_objects(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(TraceRow(*args))
            return built[-1]

        monkeypatch.setattr(trace, "TraceRow", counted)
        traces = self.traces()
        for tr in traces:
            tr.iterations, tr.solved, tr.f_values(), tr.grad_norms()
        assert built == []
        for tr in traces:
            first, second = tr.rows, tr.rows
            assert first == second and first is not second
            assert not any(a is b for a, b in zip(first, second))
        assert len(built) == 2 * sum(len(tr.f) for tr in traces)

    def test_rows_read_the_columns(self):
        for tr in self.traces():
            rows = tr.rows
            assert [r.k for r in rows] == list(range(tr.iterations + 1))
            for name in ("f", "grad_norm", "alpha", "backtracks", "fevals"):
                column = getattr(tr, name)
                assert column.dtype == (np.int64 if name in ("backtracks", "fevals") else float)
                assert not column.flags.writeable
                got = np.array([getattr(r, name) for r in rows], dtype=column.dtype)
                assert got.tobytes() == column.tobytes()
            # the engines' terminal nan itself, and Python numbers throughout
            assert rows[-1].alpha is math.nan
            assert {type(v) for r in rows for v in r} == {int, float}
            assert np.array_equal(tr.f_values(), tr.f) and tr.f_values() is not tr.f

    def test_rows_build_the_same_trace(self):
        for tr in self.traces():
            _, *columns = zip(*tr.rows)
            back = RunTrace(*columns, tr.termination, tr.final_x, tr.meta)
            assert back.rows == tr.rows and back.to_json() == tr.to_json()

    def test_final_x_is_a_read_only_view(self):
        # as the columns are read-only; a view, so nothing is copied and
        # the array handed in keeps its own flags
        for tr in (*self.traces(), RunTrace.from_json(self.traces()[0].to_json())):
            assert tr.final_x.dtype == np.float64 and not tr.final_x.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                tr.final_x[0] = 0.0
        given = np.array([1.0, 2.0])
        tr = RunTrace([0.0], [1.0], [math.nan], [0], [0], ITERATION_CAP, given)
        assert np.shares_memory(tr.final_x, given) and given.flags.writeable
        given[0] = 3.0
        assert tr.final_x[0] == 3.0


def test_every_termination_is_exported():
    for name in trace.TERMINATIONS:
        assert name.upper() in stlsbb.__all__ and getattr(stlsbb, name.upper()) == name


class TestAudit:
    def make_trace(self):
        obj = rosenbrock2()
        return run(obj, obj.x0, SolverConfig(epsilon=1e-5, max_iter=2000),
                   SteplengthPolicy("gamma", gamma=1.0))

    def test_clean_run_passes(self):
        tr = self.make_trace()
        assert audit_trace(tr) == []

    def test_corrupted_objective_detected(self):
        tr = self.make_trace()
        bad = self.relabelled(tr, edits={3: {"f": tr.f[3] + 100.0}})
        assert any("nonmonotone" in v for v in audit_trace(bad))

    def test_corrupted_alpha_detected(self):
        tr = self.make_trace()
        bad = self.relabelled(tr, edits={2: {"alpha": 2000.0}})
        assert any("safeguard band" in v for v in audit_trace(bad))

    def test_final_x_must_match_the_point_dist_target(self):
        tr = self.make_trace()
        cfg = SolverConfig(stop_rule=STOP_POINT_DIST, target=[1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatchError, match="final_x has length 2, the target 3"):
            audit_trace(tr, config=cfg)

    def test_raw_trace_needs_a_config(self):
        inst = generate_instance(20, SpectrumSetting(1, 1e2), seed=0)
        tr = solve_bb(inst, SteplengthPolicy("bb1"), 1e-6, 500)
        with pytest.raises(InvalidParameterError, match="raw_bb"):
            audit_trace(tr)

    def test_window_holds_the_last_memory_plus_one_values(self):
        # the last step's f = 8 passes only against f = 9, which is four
        # values back: a window of memory + 1 = 3 no longer holds it
        tr = RunTrace([9.0, 1.0, 2.0, 3.0, 8.0], [1.0] * 5, [0.1] * 4 + [math.nan], [0] * 5,
                      [1] * 4 + [0], ITERATION_CAP, [0.0])
        assert audit_trace(tr, config=SolverConfig(memory=2, max_iter=4)) == [
            "row 3: accepted step fails the nonmonotone test on replay"
        ]
        assert audit_trace(tr, config=SolverConfig(memory=3, max_iter=4)) == []

    def test_window_takes_the_max_over_recent_values(self):
        # the last step's f = 4.9 is above the latest value 4 and passes
        # only against f = 5, the largest of the memory + 1 = 3 values
        tr = RunTrace([5.0, 3.0, 4.0, 4.9], [1.0] * 4, [0.1] * 3 + [math.nan], [0] * 4,
                      [1] * 3 + [0], ITERATION_CAP, [0.0])
        assert audit_trace(tr, config=SolverConfig(memory=2, max_iter=3)) == []
        assert audit_trace(tr, config=SolverConfig(memory=1, max_iter=3)) == [
            "row 2: accepted step fails the nonmonotone test on replay"
        ]

    @pytest.mark.parametrize("memory", [0, 1, 10, 60, 10**6])
    def test_window_maxima_are_builtin_max(self, rng, memory):
        # the sliding-window maximum audit_trace replays with returns the
        # very float max(f[max(0, k - memory):k + 1]) does: nan when the
        # window's first item is nan, else the earliest of the largest
        # items that are not nan, so that 0.0 and -0.0 keep their order
        special = [math.nan, math.inf, -math.inf, 0.0, -0.0]
        for _ in range(200):
            n = int(rng.integers(1, 60))
            f = rng.integers(-3, 4, n).astype(float).tolist()
            for i in np.flatnonzero(rng.random(n) < 0.3).tolist():
                f[i] = special[int(rng.integers(len(special)))]
            want = [max(f[max(0, k - memory):k + 1]) for k in range(n)]
            got = solver._window_maxima(f, memory)
            assert [v.hex() for v in got] == [v.hex() for v in want], (f, memory)

    def test_window_maxima_read_rows_appended_after_they_start(self):
        # run reads its window from its f column as it grows, one row
        # after each append
        f, memory = [], 2
        window = solver._window_maxima(f, memory)
        got = []
        for v in [3.0, 1.0, 2.0, 0.0, -1.0, 5.0]:
            f.append(v)
            got.append(next(window))
        assert got == [max(f[max(0, k - memory):k + 1]) for k in range(len(f))]

    def test_a_long_window_runs_in_linear_time(self):
        # memory = 10**6 over 20 000 steps of a 1-D exp, whose steps the
        # safeguard holds at delta: a window that is the whole trace, which
        # a max over each window's slice takes seconds to read
        def eval_rows(xs):
            f = np.exp(xs[:, 0])
            return f, f[:, None]

        obj = Objective("exp", 1, x0=np.zeros(1), eval_rows=eval_rows)
        config = SolverConfig(memory=10**6, max_iter=20_000, stop_rule=STOP_GRAD_REL,
                              epsilon=1e-300)
        start = time.process_time()
        tr = run(obj, obj.x0, config, parse_policy("bb1"))
        assert time.process_time() - start < 1.0
        assert (tr.termination, tr.iterations) == (ITERATION_CAP, 20_000)
        assert audit_trace(tr) == []

    def test_a_long_window_audits_in_linear_time(self):
        # memory = 10**6 over 20 000 steps: a window that is the whole
        # trace, which a max over each window's slice takes seconds to replay
        steps = 20_000
        f = [1.0] + [0.5] * steps
        tr = RunTrace(f, [1.0] * (steps + 1), [0.1] * steps + [math.nan], [0] * (steps + 1),
                      [1] * steps + [0], ITERATION_CAP, [0.0])
        config = SolverConfig(memory=10**6, max_iter=steps)
        start = time.process_time()
        assert audit_trace(tr, config=config) == []
        assert time.process_time() - start < 1.0

    @staticmethod
    def relabelled(tr, termination=None, edits=()):
        # the trace under another termination, with rows edited: edits maps
        # a row's k to the fields it changes
        columns = {name: getattr(tr, name).tolist() for name in COLUMNS}
        for k, fields_ in dict(edits).items():
            for name, value in fields_.items():
                columns[name][k] = value
        return RunTrace(**columns, termination=termination or tr.termination,
                        final_x=tr.final_x, meta=tr.meta)

    def test_a_capped_trace_relabelled_solved_is_named(self):
        obj = rosenbrock2()
        tr = run(obj, obj.x0, SolverConfig(max_iter=20), SteplengthPolicy("bb1"))
        assert tr.termination == ITERATION_CAP and audit_trace(tr) == []
        assert audit_trace(self.relabelled(tr, GRADIENT_TOLERANCE)) == [
            "row 20: the trace ends gradient_tolerance but does not meet "
            "its grad_abs rule at epsilon 1e-08"
        ]

    @pytest.mark.parametrize("rule", [STOP_GRAD_ABS, STOP_GRAD_REL, STOP_POINT_DIST])
    def test_the_stop_rule_is_read_on_the_last_row(self, rule):
        obj = rosenbrock2()
        target = [1.0, 1.0] if rule == STOP_POINT_DIST else None
        cfg = SolverConfig(epsilon=1e-3, stop_rule=rule, target=target)
        tr = run(obj, obj.x0, cfg, SteplengthPolicy("gamma", gamma=1.0))
        assert tr.solved and audit_trace(tr) == []
        # the same run cut two steps short, which has not met its rule yet
        short = RunTrace(*(getattr(tr, name)[:-2] for name in COLUMNS), GRADIENT_TOLERANCE,
                         tr.final_x if rule != STOP_POINT_DIST else [-1.2, 1.0], tr.meta)
        assert any("does not meet its" in v for v in audit_trace(short))

    def test_a_solved_trace_relabelled_capped_is_named(self):
        tr = self.make_trace()
        assert audit_trace(self.relabelled(tr, ITERATION_CAP)) == [
            f"row {tr.iterations}: the trace ends iteration_cap but meets its grad_abs rule "
            "at epsilon 1e-05",
            f"row {tr.iterations}: the trace ends iteration_cap at k = {tr.iterations}, "
            "not at max_iter = 2000"
        ]

    def test_fevals_other_than_one_plus_backtracks_are_named(self):
        tr = self.make_trace()
        assert tr.rows[3].fevals == 1 + tr.rows[3].backtracks
        bad = self.relabelled(tr, edits={3: {"fevals": tr.rows[3].fevals + 1}})
        assert audit_trace(bad) == [
            f"row 3: {tr.rows[3].fevals + 1} fevals after {tr.rows[3].backtracks} "
            "backtracks, not 1 + backtracks"
        ]

    @pytest.mark.parametrize("fields_", [{"alpha": 0.1}, {"backtracks": 1}, {"fevals": 1}])
    def test_a_terminal_row_that_steps_is_named(self, fields_):
        tr = self.make_trace()
        bad = self.relabelled(tr, edits={tr.iterations: fields_})
        assert [v.split(":")[0] for v in audit_trace(bad)] == [f"row {tr.iterations}"]
        assert "the terminal row has" in audit_trace(bad)[0]

    def test_explicit_config_overrides_meta(self):
        tr = self.make_trace()
        strict = dataclasses.replace(SolverConfig.from_meta(tr.meta), beta=0.999)
        # a near-1 sufficient decrease coefficient rejects real steps
        assert audit_trace(tr, config=strict) != []

    @staticmethod
    def bb2_trace(**config):
        # the bb2 Rosenbrock run at epsilon 1e-3: 70 steps under grad_abs
        obj = rosenbrock2()
        tr = run(obj, obj.x0, SolverConfig(epsilon=1e-3, **config), parse_policy("bb2"))
        assert tr.solved and audit_trace(tr) == []
        return tr

    @staticmethod
    def edited(tr, meta=(), **fields_):
        # tr through to_dict and from_dict, with rows' or the meta's
        # fields changed: fields_ maps a row field to {k: value}
        d = tr.to_dict()
        for name, values in fields_.items():
            for k, value in values.items():
                d["rows"][k][name] = value
        d["meta"].update(meta)
        return RunTrace.from_dict(d)

    def test_backtracks_past_the_cap_are_named_and_not_replayed(self):
        # a replay multiplies once per backtrack, so a huge count would
        # stall it; the row is named without replaying it
        tr = self.bb2_trace()
        bad = self.edited(tr, backtracks={0: 10**7}, fevals={0: 10**7 + 1})
        assert audit_trace(bad) == ["row 0: 10000000 backtracks, more than backtrack_cap = 100"]

    def test_no_trace_runs_past_max_iter(self):
        tr = self.bb2_trace()
        bad = self.edited(tr, meta={"max_iter": 10})
        assert audit_trace(bad) == ["row 70: the trace runs past max_iter = 10"]

    @pytest.mark.parametrize("gn", [0.0, 5e-4])
    def test_a_row_that_would_have_stopped_is_named(self, gn):
        # a zero gradient, or one below epsilon, stops the run at row 5
        tr = self.bb2_trace()
        bad = self.edited(tr, grad_norm={5: gn})
        assert audit_trace(bad) == [
            f"row 5: ||g|| {gn!r} would have stopped the run before its last row"
        ]

    def test_a_solved_trace_relabelled_capped_meets_its_rule(self):
        tr = self.bb2_trace(stop_rule=STOP_POINT_DIST, target=[1.0, 1.0])
        bad = self.relabelled(self.edited(tr, meta={"max_iter": tr.iterations}), ITERATION_CAP)
        assert audit_trace(bad) == [
            f"row {tr.iterations}: the trace ends iteration_cap but meets its point_dist rule "
            "at epsilon 0.001"
        ]


def without_rows(obj):
    return Objective(obj.name, obj.dim, obj.eval, obj.x0)


def product_quartic():
    # f = sum(x^4 - x^2) from (0.1, 1.2), where secant pairs can fail
    # curvature; written with products so that eval and eval_rows round alike
    def eval_(x):
        x2 = x * x
        return float(np.sum(x2 * x2 - x2)), 4.0 * x2 * x - 2.0 * x

    def eval_rows(xs):
        x2 = xs * xs
        return np.sum(x2 * x2 - x2, axis=1), 4.0 * x2 * xs - 2.0 * xs

    return Objective("quartic-well", 2, eval_, x0=[0.1, 1.2], eval_rows=eval_rows)


class TestRounds:
    """The line search evaluates a round of trials through eval_rows and
    must decide exactly as one trial per eval call does."""

    DESCRIPTORS = ("bb1", "bb2", "gamma:1", "gamma:20", "gammaPrime:0.5", "tau:0.3", "atc:4")
    INSTANCE = generate_instance(200, SpectrumSetting(1, 1e4), seed=0)
    PROBLEMS = {
        "rosenbrock": (rosenbrock2, SolverConfig(epsilon=1e-6, max_iter=500)),
        "quadratic-eta1e-3": (
            lambda: as_objective(TestRounds.INSTANCE),
            SolverConfig(epsilon=1e-6, stop_rule=STOP_GRAD_REL, max_iter=150),
        ),
        "quadratic-eta1e-10": (
            lambda: as_objective(TestRounds.INSTANCE),
            SolverConfig(epsilon=1e-6, stop_rule=STOP_GRAD_REL, max_iter=300, eta=1e-10),
        ),
        "quartic": (product_quartic, SolverConfig(epsilon=1e-10)),
    }

    @pytest.mark.parametrize("problem", sorted(PROBLEMS))
    @pytest.mark.parametrize("descriptor", DESCRIPTORS)
    def test_rounds_equal_one_trial_per_eval(self, monkeypatch, problem, descriptor):
        make, cfg = self.PROBLEMS[problem]
        obj = make()
        policy = parse_policy(descriptor)
        sizes = []
        eval_rows = obj.eval_rows

        def recorded(xs):
            sizes.append(len(xs))
            return eval_rows(xs)

        obj = dataclasses.replace(obj, eval_rows=recorded)
        got = run(obj, obj.x0, cfg, policy)
        want = run(without_rows(obj), obj.x0, cfg, policy)
        assert got.to_json() == want.to_json()
        # a run that ever backtracks evaluates some round of several trials
        assert max(sizes) > 1 or not any(r.backtracks for r in got.rows)
        if problem == "quartic":
            # the runs pass through a curvature failure
            failures = []
            original = solver.next_steplength

            def counted(policy, pair, index=0, prev_alpha=None):
                failures.append(pair.sy <= 0.0)
                return original(policy, pair, index, prev_alpha)

            monkeypatch.setattr(solver, "next_steplength", counted)
            run(obj, obj.x0, cfg, policy)
            assert any(failures)

    @pytest.mark.parametrize("problem", ["rosenbrock-table", "quadratic-eta1e-3"])
    def test_rounds_waste_few_rows(self, problem):
        # an iteration that needs a trial or two more than the last one
        # evaluates about that many more rows, not a doubled round
        if problem == "rosenbrock-table":
            obj = rosenbrock2()
            cfg = SolverConfig(epsilon=0.1, alpha0=1.0, stop_rule=STOP_POINT_DIST,
                               target=np.array([1.0, 1.0]))
        else:
            make, cfg = self.PROBLEMS[problem]
            obj = make()
        rows = []
        eval_rows = obj.eval_rows

        def counted(xs):
            rows.append(len(xs))
            return eval_rows(xs)

        tr = run(dataclasses.replace(obj, eval_rows=counted), obj.x0, cfg,
                 SteplengthPolicy("bb1"))
        fevals = sum(r.fevals for r in tr.rows)
        assert any(r.backtracks > 1 for r in tr.rows)
        assert sum(rows) <= 1.05 * fevals
        # a first round sized for the larger of the last two needs makes
        # most iterations one eval_rows call
        assert len(rows) <= 1.15 * tr.iterations

    @staticmethod
    def table_call_pattern(monkeypatch):
        # (eval_rows calls, rows) of the published table
        sizes = []
        original = solver.rosenbrock2

        def counted():
            obj = original()
            eval_rows = obj.eval_rows

            def recorded(xs):
                sizes.append(len(xs))
                return eval_rows(xs)

            return dataclasses.replace(obj, eval_rows=recorded)

        monkeypatch.setattr(solver, "rosenbrock2", counted)
        run_rosenbrock_table()
        return len(sizes), sum(sizes)

    def test_rosenbrock_table_call_pattern(self, monkeypatch):
        # the published table's rounds, call by call, its 16 cells run
        # independently: a change to the round sizing that stays within
        # test_rounds_waste_few_rows' bounds changes these counts
        original = solver.run
        monkeypatch.setattr(solver, "run", lambda *args, resume=None: original(*args))
        assert self.table_call_pattern(monkeypatch) == (26_453, 439_859)

    def test_resumed_rosenbrock_table_call_pattern(self, monkeypatch):
        # the table itself, whose tighter cells resume the looser ones: the
        # sum of each policy's tightest run's own pattern (bb1 5 441 /
        # 96 639, bb2 693 / 1 733, gamma:1 682 / 1 825, gamma:1.5 5 057 /
        # 93 736)
        assert self.table_call_pattern(monkeypatch) == (11_873, 193_933)

    @staticmethod
    def notch(miss, sizes):
        # 1-D, g = 1 everywhere; f is 0 at the start x = 1, -1 at exactly
        # x = 0.75 and miss elsewhere.  From alpha0 = 1 with sigma = 0.5 the
        # third trial lands on 0.75; its pair has s'y = 0, so the next
        # search starts at delta and no trial of it hits 0.75 again
        def f_at(t):
            return 0.0 if t == 1.0 else -1.0 if t == 0.75 else miss

        def eval_(x):
            return f_at(float(x[0])), np.array([1.0])

        def eval_rows(xs):
            sizes.append(len(xs))
            return np.array([f_at(t) for t in xs[:, 0].tolist()]), np.ones_like(xs)

        return Objective("notch", 1, eval_, x0=[1.0], eval_rows=eval_rows)

    # backtrack_cap = 4 allows 5 trials: the first iteration takes rounds
    # of 1, 1 and 2 and passes at its third trial; the second takes a round
    # of 3, then one of 1, then 2 cut to the 1 left; a block cap of 2
    # doubles cuts every round to 2 rows or fewer
    CAP = SolverConfig(alpha0=1.0, sigma=0.5, backtrack_cap=4)
    ROUNDS = pytest.mark.parametrize(
        "block_doubles, want_sizes",
        [(None, [1, 1, 2, 3, 1, 1]), (2, [1, 1, 2, 2, 1, 2])],
        ids=["default-block", "2-doubles"],
    )

    @ROUNDS
    def test_stall_inside_a_round(self, monkeypatch, block_doubles, want_sizes):
        if block_doubles is not None:
            monkeypatch.setattr(kernels, "_BLOCK_DOUBLES", block_doubles)
        sizes = []
        obj = self.notch(1.0, sizes)
        with pytest.raises(LineSearchStallError) as got:
            run(obj, obj.x0, self.CAP, SteplengthPolicy("bb1"))
        with pytest.raises(LineSearchStallError) as want:
            run(without_rows(obj), obj.x0, self.CAP, SteplengthPolicy("bb1"))
        assert str(got.value) == str(want.value)
        assert sizes == want_sizes

    @ROUNDS
    def test_nan_trials_inside_a_round(self, monkeypatch, block_doubles, want_sizes):
        if block_doubles is not None:
            monkeypatch.setattr(kernels, "_BLOCK_DOUBLES", block_doubles)
        sizes = []
        obj = self.notch(math.nan, sizes)
        got = run(obj, obj.x0, self.CAP, SteplengthPolicy("bb1"))
        want = run(without_rows(obj), obj.x0, self.CAP, SteplengthPolicy("bb1"))
        assert got.to_json() == want.to_json()
        assert got.termination == NONFINITE and got.iterations == 1
        assert (got.rows[0].backtracks, got.rows[1].f) == (2, -1.0)
        assert sizes == want_sizes

    @staticmethod
    def ladder(miss, rows, scribble=False):
        # 1-D, g = 1 everywhere, so every secant pair has s'y = 0 and every
        # search after the first starts at delta, on one trial ladder.  f is
        # 0 at the start, -k at exactly the point the search from iterate
        # k - 1 accepts after LADDER_NEEDS[k - 1] backtracks, and miss(t)
        # elsewhere.  rows records each round's points; scribble
        # overwrites, after they are evaluated, the rows whose f misses,
        # and, after it has answered, the steps each lower_bounds call is
        # handed
        hits, x, a = {0.0: 0.0}, 0.0, []
        for k, need in enumerate(TestRounds.LADDER_NEEDS):
            while len(a) <= need:
                a.append(a[-1] * 0.5 if a else 0.1)
            x -= a[need]
            hits[x] = -(k + 1.0)

        def f_at(t):
            return hits.get(t, miss(t))

        def eval_(x):
            return f_at(float(x[0])), np.array([1.0])

        def eval_rows(xs):
            rows.append(xs[:, 0].tolist())
            f = [f_at(t) for t in xs[:, 0].tolist()]
            if scribble:
                xs[[t not in hits for t in xs[:, 0].tolist()]] = 1e300
            return f, np.ones_like(xs)

        def lower_bounds(x, f, g, steps):
            # f itself where it is finite, else -inf, and nan, which
            # decides nothing, where the point's bit pattern is 1 mod 3
            lo = []
            for a in steps:
                t = float(kernels.trial_rows(x, g, np.array([a]))[0, 0])
                v = f_at(t) if math.isfinite(f_at(t)) else -math.inf
                lo.append(math.nan if int(np.float64(t).view(np.uint64)) % 3 == 1 else v)
            if scribble:
                steps[:] = [-1.0] * len(steps)
            return lo

        return Objective("ladder", 1, eval_, x0=[0.0], eval_rows=eval_rows,
                         lower_bounds=lower_bounds)

    # the backtracks of the searches that pass; each search after the
    # first starts at delta, needs more trials than the one before and
    # outgrows the ladder, and the next one runs out of its 21 trials
    LADDER_NEEDS = (2, 5, 12)
    LADDER = SolverConfig(alpha0=0.1, sigma=0.5, backtrack_cap=20)
    # the round sizes without the bound: 1, 1, 2; 3, 1, 2; 6, 1, 2, 4;
    # then 13, 1, 2, 4 and the 1 trial left
    LADDER_SIZES = [1, 1, 2, 3, 1, 2, 6, 1, 2, 4, 13, 1, 2, 4, 1]
    MISSES = {
        "stall": lambda t: 1.0,
        NONFINITE: lambda t: math.nan if int(np.float64(t).view(np.uint64)) % 2 else math.inf,
    }

    @staticmethod
    def ladder_run(obj):
        # the trace, or the message of the stall that ends the run
        try:
            return run(obj, obj.x0, TestRounds.LADDER, SteplengthPolicy("bb1")).to_json()
        except LineSearchStallError as stall:
            return f"stall: {stall}"

    @pytest.mark.parametrize("bounds", [False, True], ids=["rows", "rows-and-bounds"])
    @pytest.mark.parametrize("end", sorted(MISSES))
    def test_a_ladder_is_reused_then_outgrown(self, end, bounds):
        rows = []
        obj = self.ladder(self.MISSES[end], rows)
        if not bounds:
            obj = dataclasses.replace(obj, lower_bounds=None)
        got = self.ladder_run(obj)
        assert got == self.ladder_run(without_rows(obj))
        if end == "stall":
            assert got == "stall: no acceptable step after 20 backtracks at iterate 3"
        else:
            tr = RunTrace.from_json(got)
            assert tr.termination == NONFINITE
            assert tr.backtracks.tolist() == [*self.LADDER_NEEDS, 0]
        # every search's trials are x - a on the rungs of one delta ladder,
        # as many as its rounds hold (LADDER_SIZES summed per search), each
        # evaluated once unless the bound rejected it
        steps = [0.1]
        while len(steps) <= self.LADDER.backtrack_cap:
            steps.append(steps[-1] * 0.5)
        trials, x = [], 0.0
        for need, evaluated in zip((*self.LADDER_NEEDS, 0), (4, 6, 13, 21)):
            trials += [x - a for a in steps[:evaluated]]
            x -= steps[need]
        points = [p for r in rows for p in r]
        if bounds:
            remaining = iter(trials)
            assert all(p in remaining for p in points)
            # the bound rejects finite misses unevaluated, and no other trial
            assert (len(points) < len(trials)) == (end == "stall")
        else:
            assert points == trials
            assert [len(r) for r in rows] == self.LADDER_SIZES

    @pytest.mark.parametrize("end", sorted(MISSES))
    def test_the_objective_cannot_change_the_ladder(self, end):
        # a lower_bounds that overwrites the steps it is handed and an
        # eval_rows that overwrites the rows it rejects leave every later
        # round's points and the run as they are
        clean_rows, rows = [], []
        want = self.ladder_run(self.ladder(self.MISSES[end], clean_rows))
        got = self.ladder_run(self.ladder(self.MISSES[end], rows, scribble=True))
        assert got == want
        assert rows == clean_rows

    def test_eval_is_called_only_for_needed_trials(self):
        # without eval_rows, eval runs at the start, at its opening probe
        # and at every trial up to each accepted one, and nowhere else
        calls = []
        ros = rosenbrock2()

        def counted(x):
            calls.append(x)
            return ros.eval(x)

        obj = Objective(ros.name, ros.dim, counted, ros.x0)
        tr = run(obj, obj.x0, SolverConfig(epsilon=1e-6, max_iter=300), SteplengthPolicy("bb2"))
        assert any(r.backtracks for r in tr.rows)
        assert len(calls) == 2 + sum(r.fevals for r in tr.rows)

    @staticmethod
    def spiky(bad, rounds):
        # f = (x1^2 + 30 x2^2) / 2, but bad at every point whose first
        # coordinate's bit pattern is 1 mod 5, which scatters bad rows over
        # the rounds; rounds records which rows of each block were bad
        v = np.array([1.0, 30.0])

        def f_at(x):
            if int(np.float64(x[0]).view(np.uint64)) % 5 == 1:
                return bad
            return 0.5 * float(x @ (v * x))

        def eval_(x):
            return f_at(x), v * x

        def eval_rows(xs):
            f = [f_at(x) for x in xs]
            rounds.append([i for i, fi in enumerate(f) if not math.isfinite(fi)])
            return np.array(f), v * xs

        return Objective("spiky", 2, eval_, x0=[1.0, 1.0], eval_rows=eval_rows)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rows_inside_rounds(self, bad):
        # trial rows whose f is nan or +inf fail the test and the search
        # goes on past them; a -inf row passes and the run ends nonfinite at
        # it.  Rounds decide exactly as trials one by one do
        rounds = []
        obj = self.spiky(bad, rounds)
        cfg = SolverConfig(epsilon=1e-8, alpha0=50.0, max_iter=300)
        got = run(obj, obj.x0, cfg, SteplengthPolicy("bb1"))
        want = run(without_rows(obj), obj.x0, cfg, SteplengthPolicy("bb1"))
        assert got.to_json() == want.to_json()
        assert audit_trace(got) == []
        # some round holds a bad row after its first row
        assert any(i > 0 for bad_rows in rounds for i in bad_rows)
        if bad == -math.inf:
            assert got.termination == NONFINITE and got.rows[-1].f == -math.inf
        else:
            assert got.solved and any(r.backtracks > 1 for r in got.rows)

    def test_overflowing_threshold_decides_quietly(self):
        # g = 1e154 makes ||g||^2 = 1e308, so beta alpha ||g||^2 overflows
        # at the opening alpha = 100; the scalar test gives -inf there
        # without a word, and so must the round.  f = c x is nan past
        # x = -1.5 c, so the trials at 100 and 10 fail and 1 passes
        c = 1e154

        def f_at(x):  # Python floats, which overflow without a warning
            return c * x if x >= -1.5 * c else math.nan

        def eval_(x):
            return f_at(float(x[0])), np.array([c])

        def eval_rows(xs):
            return np.array([f_at(x) for x in xs[:, 0].tolist()]), np.full((len(xs), 1), c)

        obj = Objective("steep-line", 1, eval_, x0=[0.0], eval_rows=eval_rows)
        cfg = SolverConfig(alpha0=100.0, eta=1e-10, delta=1.0, sigma=0.1, max_iter=1)
        assert math.isinf(cfg.beta * cfg.alpha0 * c * c)
        got = run(obj, obj.x0, cfg, SteplengthPolicy("bb1"))
        want = run(without_rows(obj), obj.x0, cfg, SteplengthPolicy("bb1"))
        assert got.to_json() == want.to_json()
        assert got.rows[0].backtracks == 2 and got.final_x[0] == -c

    @pytest.mark.parametrize("reused", ["eval_rows", "eval"])
    def test_objective_may_reuse_its_outputs(self, reused):
        # run() copies every vector it keeps, so an objective that writes
        # each result into the same arrays gives the run of fresh ones
        ros = rosenbrock2()
        if reused == "eval_rows":
            blocks = {}  # one (f, G) pair of arrays per round size

            def eval_rows(xs):
                f, g = ros.eval_rows(xs)
                out_f, out_g = blocks.setdefault(len(xs), (np.empty(len(xs)), np.empty_like(xs)))
                out_f[:], out_g[:] = f, g
                return out_f, out_g

            obj = dataclasses.replace(ros, eval_rows=eval_rows)
        else:
            out = np.empty(2)

            def eval_(x):
                f, out[:] = ros.eval(x)
                return f, out

            obj = Objective(ros.name, ros.dim, eval_, ros.x0)
        cfg = SolverConfig(epsilon=1e-4, alpha0=1.0, stop_rule=STOP_POINT_DIST,
                           target=np.array([1.0, 1.0]))
        policy = parse_policy("gamma:1")
        got = run(obj, obj.x0, cfg, policy)
        want = run(ros, ros.x0, cfg, policy)
        assert got.rows == want.rows and got.solved
        assert np.array_equal(got.final_x, want.final_x)

    def test_wide_rounds_leave_numpy_settings_alone(self):
        # rounds on rows of kernels._WIDE_ROW doubles or more are built with
        # small ufunc buffers, scoped to the round; they decide as rounds of
        # one do, and the caller's buffer size and error handling hold
        inst = generate_instance(kernels._WIDE_ROW, SpectrumSetting(1, 1e4), seed=1)
        obj = as_objective(inst)
        cfg = SolverConfig(epsilon=1e-6, stop_rule=STOP_GRAD_REL, max_iter=60)
        with np.errstate(divide="raise"):
            np.setbufsize(4096)
            before = np.geterr()
            got = run(obj, obj.x0, cfg, SteplengthPolicy("bb1"))
            assert (np.getbufsize(), np.geterr()) == (4096, before)
        want = run(without_rows(obj), obj.x0, cfg, SteplengthPolicy("bb1"))
        assert got.to_json() == want.to_json()
        assert any(r.backtracks > 1 for r in got.rows)


class TestInlineDecisions:
    """run decides each trial, and each lower bound it skips by, with
    nonmonotone_accept's expression written out in its loops.  A replay of
    every round it evaluated, through nonmonotone_accept itself, must give
    the same skips, the same accepted trial and the same end of a search
    that runs out of trials."""

    @staticmethod
    def recorded(obj, events):
        # obj with its eval_rows and lower_bounds writing each call's
        # outputs to events, in call order
        eval_rows, lower_bounds = obj.eval_rows, obj.lower_bounds

        def rows(xs):
            f, g = eval_rows(xs)
            events.append(("rows", xs.copy(), np.asarray(f, dtype=float).tolist()))
            return f, g

        def bounds(x, f, g, steps):
            lo = lower_bounds(x, f, g, steps)
            events.append(("bounds", x.copy(), g.copy(), list(steps), list(lo)))
            return lo

        return dataclasses.replace(
            obj, eval_rows=rows, lower_bounds=None if lower_bounds is None else bounds)

    @staticmethod
    def replay(events, searches, config):
        # searches: (f_max, grad_sq, alpha, outcome) for each line search in
        # order, where outcome is the accepted trial's index, or "stall" or
        # NONFINITE for a search that runs out of trials
        events = list(events)
        beta, sigma, cap = config.beta, config.sigma, config.backtrack_cap
        for f_max, grad_sq, alpha, outcome in searches:
            a_eff, tried, finite_trial, x_g, hit = alpha, 0, False, None, None
            while tried <= cap:
                event = events.pop(0)
                skip = 0
                if event[0] == "bounds":
                    _, x, g, steps, lo = event
                    x_g = x, g
                    assert len(lo) == len(steps)
                    for lo_j, a in zip(lo, steps):
                        if nonmonotone_accept(lo_j, f_max, beta, a, grad_sq):
                            break
                        skip += 1
                    f_rows = []
                    if skip < len(steps):
                        event = events.pop(0)
                        assert event[0] == "rows"
                        f_rows = event[2]
                else:
                    f_rows = event[2]
                    steps = [None] * len(f_rows)
                # the round's steplengths, built as run builds them
                for j in range(len(steps)):
                    assert steps[j] in (None, a_eff)
                    steps[j] = a_eff
                    a_eff *= sigma
                rest = steps[skip:]
                assert len(f_rows) == len(rest)
                if f_rows and x_g is not None:
                    # the rows start at the first trial the bound left undecided
                    assert event[1].tobytes() == kernels.trial_rows(*x_g, np.array(rest)).tobytes()
                for j, (f_trial, a) in enumerate(zip(f_rows, rest)):
                    if nonmonotone_accept(f_trial, f_max, beta, a, grad_sq):
                        hit = tried + skip + j
                        break
                if hit is not None:
                    break
                finite_trial = finite_trial or skip > 0 or any(ft < math.inf for ft in f_rows)
                tried += len(steps)
            if hit is None:
                hit = "stall" if finite_trial else NONFINITE
            assert hit == outcome
        assert events == []

    @staticmethod
    def searches(tr):
        # (f_max, grad_sq, alpha, accepted trial) of every step of a trace
        window = deque(maxlen=tr.meta["memory"] + 1)
        out = []
        for k, row in enumerate(tr.rows[:-1]):
            window.append(row.f)
            out.append((max(window), row.grad_norm * row.grad_norm, row.alpha, row.backtracks))
        return out

    def test_rosenbrock_table(self, monkeypatch):
        # every published run, run independently, replayed round by round;
        # the table's own cells, which resume one another, give the same
        # traces
        runs, table = [], []
        original = solver.run

        def recorded_run(obj, x0, config, policy, resume=None):
            events = []
            tr = original(self.recorded(obj, events), x0, config, policy)
            runs.append((tr, events, config))
            return tr

        with monkeypatch.context() as mp:
            mp.setattr(solver, "run", recorded_run)
            run_rosenbrock_table()
        assert len(runs) == 16
        for tr, events, config in runs:
            self.replay(events, self.searches(tr), config)
        assert sum(r.iterations for r, _, _ in runs) == 24_675

        def kept(*args, **kwargs):
            table.append(original(*args, **kwargs))
            return table[-1]

        monkeypatch.setattr(solver, "run", kept)
        run_rosenbrock_table()
        assert [tr.to_json() for tr in table] == [tr.to_json() for tr, _, _ in runs]

    @pytest.mark.parametrize("memory", [0, 5000])
    @pytest.mark.parametrize("problem", ["rosenbrock", "quadratic"])
    def test_memory_edges(self, problem, memory):
        # a window of the latest f only, and one longer than the run (at
        # most 600 steps)
        if problem == "rosenbrock":
            obj, policy = rosenbrock2(), "bb2"
            config = SolverConfig(epsilon=1e-6, max_iter=500, memory=memory)
        else:
            obj = as_objective(generate_instance(200, SpectrumSetting(1, 1e3), 2))
            policy = "bb1"
            config = SolverConfig(epsilon=1e-6, stop_rule=STOP_GRAD_REL, max_iter=600,
                                  memory=memory)
        events = []
        tr = run(self.recorded(obj, events), obj.x0, config, parse_policy(policy))
        assert any(r.backtracks > 1 for r in tr.rows)
        self.replay(events, self.searches(tr), config)

    @pytest.mark.parametrize("eta, policy", [(1e-3, "gamma:20"), (1e-10, "bb1")])
    def test_quadratics(self, eta, policy):
        # the benchmark's n = 1000 quadratic, whose trials the bound mostly
        # decides, and the same instance in a wide band, where it seldom acts
        obj = as_objective(generate_instance(1000, SpectrumSetting(1, 1e4), seed=0))
        config = SolverConfig(epsilon=1e-6, stop_rule=STOP_GRAD_REL, max_iter=2000, eta=eta)
        events = []
        tr = run(self.recorded(obj, events), obj.x0, config, parse_policy(policy))
        self.replay(events, self.searches(tr), config)
        assert any(e[0] == "bounds" for e in events)
        skipped = sum(len(e[3]) for e in events if e[0] == "bounds") - sum(
            len(e[2]) for e in events if e[0] == "rows")
        assert skipped > (10_000 if eta == 1e-3 else 0)

    @pytest.mark.parametrize("make, alpha0, eta, outcome", [
        (rosenbrock2, 1e160, 1e-300, NONFINITE),
        (lambda: as_objective(generate_instance(50, SpectrumSetting(1, 1e4), 0)), 1e300, 1e-305,
         NONFINITE),
        (lambda: as_objective(generate_instance(50, SpectrumSetting(1, 1e4), 0)), 1e150, 1e-305,
         "stall"),
    ], ids=["rosenbrock-far", "quadratic-overflow", "quadratic-stall"])
    def test_a_search_that_runs_out(self, make, alpha0, eta, outcome):
        # the first search runs out of trials: a finite trial among them
        # makes it a stall, and none a nonfinite end
        obj = make()
        config = SolverConfig(alpha0=alpha0, eta=eta)
        events = []
        try:
            tr = run(self.recorded(obj, events), obj.x0, config, SteplengthPolicy("bb1"))
            got = tr.termination
            assert tr.iterations == 0
        except LineSearchStallError:
            got = "stall"
        assert got == outcome
        f0, g0 = obj.eval(obj.x0)
        gn0 = math.sqrt(float(g0.dot(g0)))
        self.replay(events, [(f0, gn0 * gn0, alpha0, outcome)], config)


class TestResume:
    """run(..., resume=trace) continues a run from the last row of its own
    trace at a looser or equal epsilon, and must give the trace an
    independent run gives, bit for bit."""

    ROSENBROCK = SolverConfig(alpha0=1.0, max_iter=1000, stop_rule=STOP_POINT_DIST,
                              target=[1.0, 1.0])

    @staticmethod
    def chain(obj, config, policy, epsilons):
        # the runs at each epsilon, loosest first, each resuming the last;
        # each must equal its independent run and pass the audit
        traces, tr = [], None
        for eps in sorted(epsilons, reverse=True):
            cfg = dataclasses.replace(config, epsilon=eps)
            tr = run(obj, obj.x0, cfg, policy, resume=tr)
            assert tr.to_json() == run(obj, obj.x0, cfg, policy).to_json()
            assert audit_trace(tr) == []
            traces.append(tr)
        return traces

    @pytest.mark.parametrize("rule, epsilons", [
        (STOP_GRAD_ABS, (1e-1, 1e-3, 1e-6, 1e-9)),
        (STOP_GRAD_REL, (1e-2, 1e-4, 1e-7, 1e-10)),
        (STOP_POINT_DIST, (1e-1, 1e-2, 1e-4, 1e-8)),
    ])
    @pytest.mark.parametrize("descriptor", ["bb2", "gamma:1.5", "atc:3"])
    def test_each_stop_rule(self, rule, epsilons, descriptor):
        # a chain of three resumes; ATC's previous steplength carries over
        config = (self.ROSENBROCK if rule == STOP_POINT_DIST
                  else SolverConfig(alpha0=1.0, max_iter=1000, stop_rule=rule))
        traces = self.chain(rosenbrock2(), config, parse_policy(descriptor), epsilons)
        its = [tr.iterations for tr in traces]
        assert its == sorted(its) and its[0] < its[-1]

    @pytest.mark.parametrize("descriptor", ["bb1", "atc:3"])
    def test_through_a_curvature_reset(self, descriptor):
        # the quartic's steps from iterates 1 to 4 fail curvature.  A
        # target 1e-3 from iterate 2 stops the looser run there, with a
        # reset pending: alpha +inf, and ATC's previous steplength delta
        obj, policy = product_quartic(), parse_policy(descriptor)
        x2 = run(obj, obj.x0, SolverConfig(max_iter=2), policy).final_x
        config = SolverConfig(max_iter=40, stop_rule=STOP_POINT_DIST, target=x2 + [1e-3, 0.0])
        loose, tight = self.chain(obj, config, policy, (1.5e-3, 1e-12))
        assert loose.iterations == 2 and loose._continuation.alpha == math.inf
        assert tight.termination == ITERATION_CAP

    def test_quadratic_with_lower_bounds(self):
        obj = as_objective(generate_instance(200, SpectrumSetting(1, 1e4), seed=0))
        assert obj.lower_bounds is not None
        config = SolverConfig(stop_rule=STOP_GRAD_REL, max_iter=600)
        for descriptor in ("bb1", "atc:3"):
            self.chain(obj, config, parse_policy(descriptor), (1e-2, 1e-4, 1e-6))

    def test_memory_longer_than_the_prefix(self):
        config = SolverConfig(memory=5000, max_iter=500)
        self.chain(rosenbrock2(), config, parse_policy("bb2"), (1e-1, 1e-3, 1e-6))

    @pytest.mark.parametrize("rule", [STOP_GRAD_REL, STOP_POINT_DIST])
    def test_memory_shorter_than_the_prefix(self, rule):
        # the resumed window must slide past the inherited rows, not start
        # over at the last one
        config = SolverConfig(alpha0=1.0, memory=3, max_iter=5000, stop_rule=rule,
                              target=[1.0, 1.0] if rule == STOP_POINT_DIST else None)
        loose, tight = self.chain(rosenbrock2(), config, parse_policy("bb1"), (1e-8, 1e-10))
        assert 200 <= loose.iterations < tight.iterations

    def test_an_equal_epsilon(self):
        obj, policy = rosenbrock2(), parse_policy("gamma:1")
        first = run(obj, obj.x0, self.ROSENBROCK, policy)
        again = run(obj, obj.x0, self.ROSENBROCK, policy, resume=first)
        assert again.to_json() == first.to_json() and again is not first

    def test_from_a_capped_trace(self):
        obj, policy = rosenbrock2(), parse_policy("bb1")
        traces = self.chain(obj, dataclasses.replace(self.ROSENBROCK, max_iter=50), policy,
                            (1e-1, 1e-2))
        assert [(tr.termination, tr.iterations) for tr in traces] == [(ITERATION_CAP, 50)] * 2

    def test_from_a_search_that_ran_out(self):
        # every trial of the first search overflows: nonfinite at row 0
        traces = self.chain(rosenbrock2(), SolverConfig(alpha0=1e160, eta=1e-300),
                            parse_policy("bb1"), (1e-2, 1e-6))
        assert [(tr.termination, tr.iterations) for tr in traces] == [(NONFINITE, 0)] * 2

    def test_from_a_nonfinite_row(self):
        # f = x, and -inf past x = -0.5: the first step lands there
        def eval_(x):
            return (float(x[0]) if x[0] > -0.5 else -math.inf), np.array([1.0])

        obj = Objective("cliff", 1, eval_, x0=[0.0])
        traces = self.chain(obj, SolverConfig(alpha0=1.0), parse_policy("bb1"), (1e-2, 1e-6))
        assert [(tr.termination, tr.iterations) for tr in traces] == [(NONFINITE, 1)] * 2

    def test_from_a_zero_gradient(self):
        # f = x^2 from 1 with alpha0 = 0.5 steps onto 0, where g = 0
        obj = Objective("square", 1, lambda x: (float(x[0] * x[0]), 2.0 * x), x0=[1.0])
        traces = self.chain(obj, SolverConfig(alpha0=0.5), parse_policy("bb1"), (1e-3, 1e-9))
        assert [(tr.termination, tr.grad_norm[-1]) for tr in traces] == [
            (GRADIENT_TOLERANCE, 0.0)] * 2

    @pytest.mark.parametrize("change, match", [
        ({"max_iter": 999}, "max_iter"),
        ({"memory": 9}, "memory"),
        ({"beta": 0.2}, "beta"),
        ({"delta": 0.2}, "delta"),
        ({"eta": 0.002}, "eta"),
        ({"sigma": 0.5}, "sigma"),
        ({"alpha0": None}, "alpha0"),
        ({"alpha0": 0.5}, "alpha0"),
        ({"target": [1.0, math.nextafter(1.0, 2.0)]}, "target"),
        ({"stop_rule": STOP_GRAD_ABS, "target": None}, "stop_rule, target"),
        ({"backtrack_cap": 99}, "backtrack_cap"),
        ({"epsilon": 1.0}, "tighter than 1.0"),
    ])
    def test_another_config_is_refused(self, change, match):
        obj, policy = rosenbrock2(), parse_policy("bb2")
        config = dataclasses.replace(self.ROSENBROCK, epsilon=1e-1)
        first = run(obj, obj.x0, config, policy)
        with pytest.raises(InvalidParameterError, match=match):
            run(obj, obj.x0, dataclasses.replace(config, **change), policy, resume=first)

    def test_another_run_is_refused(self):
        obj, policy = rosenbrock2(), parse_policy("bb2")
        first = run(obj, obj.x0, self.ROSENBROCK, policy)
        refusals = [
            (obj, obj.x0, parse_policy("bb1"), first, "its policy differ"),
            (obj, [-1.2, math.nextafter(1.0, 2.0)], policy, first, "its x0 differ"),
            (rosenbrock2(), obj.x0, policy, first, "its objective differ"),
            (dataclasses.replace(obj), obj.x0, policy, first, "its objective differ"),
            (rosenbrock2(), obj.x0, parse_policy("bb1"), first, "its objective, policy differ"),
        ]
        for o, x0, p, resume, match in refusals:
            with pytest.raises(InvalidParameterError, match=match):
                run(o, x0, self.ROSENBROCK, p, resume=resume)

    def test_a_trace_run_did_not_return_is_refused(self):
        obj, policy = rosenbrock2(), parse_policy("bb2")
        first = run(obj, obj.x0, self.ROSENBROCK, policy)
        inst = generate_instance(20, SpectrumSetting(1, 1e2), seed=0)
        for resume in (RunTrace.from_json(first.to_json()),
                       RunTrace(*(getattr(first, c) for c in COLUMNS), first.termination,
                                first.final_x, first.meta),
                       solve_bb(inst, policy, 1e-6, 500), first.to_dict()):
            with pytest.raises(InvalidParameterError, match="a trace that solver.run returned"):
                run(obj, obj.x0, self.ROSENBROCK, policy, resume=resume)
        assert "_continuation" not in first.to_json()

    def test_meta_and_final_x_are_not_read(self):
        # a caller may change a trace's meta and rebind its final_x, and
        # cannot write into final_x; none of it changes the resume
        obj, policy = rosenbrock2(), parse_policy("atc:3")
        loose = dataclasses.replace(self.ROSENBROCK, epsilon=1e-2)
        tight = dataclasses.replace(self.ROSENBROCK, epsilon=1e-6)
        want = run(obj, obj.x0, tight, policy).to_json()
        first = run(obj, obj.x0, loose, policy)
        with pytest.raises(ValueError, match="read-only"):
            first.final_x[:] = 0.0
        first.meta.update(epsilon=1e-300, policy="bb1", alpha0=7.0, memory=0)
        first.final_x = np.array([5.0, 5.0])
        assert run(obj, obj.x0, tight, policy, resume=first).to_json() == want
        first.meta.clear()
        del first.final_x
        assert run(obj, obj.x0, tight, policy, resume=first).to_json() == want
