"""Line-search solver: safeguards, nonmonotone acceptance, the full run
loop, and trace auditing."""

import dataclasses
import math

import numpy as np
import pytest

from stlsbb import (
    LineSearchStallError,
    Objective,
    RunTrace,
    SolverConfig,
    SteplengthPolicy,
    ZeroGradientError,
    audit_trace,
    initial_steplength,
    nonmonotone_accept,
    rosenbrock2,
    run,
    safeguard,
)
from stlsbb.errors import DimensionMismatchError, InvalidParameterError
from stlsbb.solver import (
    STOP_GRAD_REL,
    STOP_POINT_DIST,
    NonmonotoneWindow,
    backtrack,
)
from stlsbb.trace import GRADIENT_TOLERANCE, ITERATION_CAP, NONFINITE


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

    def test_backtrack_is_geometric(self):
        assert backtrack(1.0, 0.8) == 0.8
        assert backtrack(0.8, 0.8) == pytest.approx(0.64)


class TestNonmonotoneWindow:
    def test_max_over_recent_values(self):
        w = NonmonotoneWindow(2)
        for f in (5.0, 3.0, 4.0):
            w.push(f)
        assert w.max() == 5.0

    def test_eviction(self):
        w = NonmonotoneWindow(2)
        for f in (9.0, 1.0, 2.0, 3.0):
            w.push(f)
        # 9.0 fell out of the memory+1 = 3 slot window
        assert w.max() == 3.0
        assert len(w) == 3

    def test_zero_memory_is_monotone(self):
        w = NonmonotoneWindow(0)
        w.push(7.0)
        w.push(2.0)
        assert w.max() == 2.0

    def test_empty_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            NonmonotoneWindow(1).max()
        with pytest.raises(InvalidParameterError):
            NonmonotoneWindow(-1)

    def test_accept_rule_hand_case(self):
        w = NonmonotoneWindow(5)
        for f in (5.0, 3.0, 4.0):
            w.push(f)
        # threshold is 5 - 0.1 * 0.5 * 2 = 4.9
        assert nonmonotone_accept(4.9, w, 0.1, 0.5, 2.0)
        assert not nonmonotone_accept(4.900001, w, 0.1, 0.5, 2.0)


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

    def test_meta_roundtrip(self):
        c = SolverConfig(epsilon=1e-4, memory=7, sigma=0.5)
        back = SolverConfig.from_meta(c.to_meta())
        assert back == c


class TestInitialSteplength:
    def test_probe_accepted(self):
        # f = x^2 at x0 = 2: a = 1/4 and the probe point improves
        obj = Objective("square", 1, lambda x: (float(x[0]) ** 2, 2.0 * x))
        assert initial_steplength(obj, [2.0]) == 0.25

    def test_probe_rejected_quarters(self):
        # f = x^2 at x0 = 0.1: a = 5 overshoots, so a/4 comes back
        obj = Objective("square", 1, lambda x: (float(x[0]) ** 2, 2.0 * x))
        assert initial_steplength(obj, [0.1]) == 1.25

    def test_zero_gradient(self):
        obj = Objective("square", 1, lambda x: (float(x[0]) ** 2, 2.0 * x))
        with pytest.raises(ZeroGradientError):
            initial_steplength(obj, [0.0])


class TestRosenbrock:
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


class TestRunLoop:
    def test_sphere_converges_fast(self):
        # the first BB1 pair on a sphere has steplength exactly 1, which
        # jumps straight to the minimizer
        obj = sphere()
        tr = run(obj, obj.x0, SolverConfig(epsilon=1e-10), SteplengthPolicy.long())
        assert tr.solved
        assert tr.iterations <= 3
        assert tr.final_x == pytest.approx(np.zeros(3), abs=1e-10)

    def test_zero_gradient_start(self):
        obj = sphere()
        tr = run(obj, np.zeros(3), SolverConfig(), SteplengthPolicy.long())
        assert tr.solved and tr.iterations == 0
        assert len(tr.rows) == 1

    def test_dimension_mismatch(self):
        obj = sphere()
        with pytest.raises(DimensionMismatchError):
            run(obj, np.zeros(4), SolverConfig(), SteplengthPolicy.long())

    def test_fixed_alpha0_recorded(self):
        obj = sphere()
        cfg = SolverConfig(alpha0=0.25)
        tr = run(obj, obj.x0, cfg, SteplengthPolicy.long())
        assert tr.rows[0].alpha == 0.25
        assert tr.meta["alpha0_rule"] == "fixed"
        tr2 = run(obj, obj.x0, SolverConfig(), SteplengthPolicy.long())
        assert tr2.meta["alpha0_rule"] == "probe"

    def test_iteration_cap(self):
        obj = rosenbrock2()
        tr = run(obj, obj.x0, SolverConfig(epsilon=1e-12, max_iter=5),
                 SteplengthPolicy.short())
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
        tr = run(obj, obj.x0, cfg, SteplengthPolicy.family(1.0))
        assert tr.solved
        assert np.linalg.norm(tr.final_x - 1.0) <= 1e-6

    def test_grad_rel_stop(self):
        obj = sphere(5)
        cfg = SolverConfig(epsilon=1e-3, stop_rule=STOP_GRAD_REL)
        tr = run(obj, np.full(5, 3.0), cfg, SteplengthPolicy.long())
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
        tr = run(obj, [0.1], SolverConfig(epsilon=1e-10), SteplengthPolicy.long())
        assert tr.solved
        assert abs(abs(tr.final_x[0]) - 1.0 / math.sqrt(2.0)) < 1e-6

    def test_line_search_stall_raises(self):
        # a cliff objective that never improves: every trial fails the
        # acceptance test until the backtrack cap trips
        def eval_(x):
            f = 0.0 if float(x[0]) == 0.0 else 1.0
            return f, np.array([1.0])

        obj = Objective("cliff", 1, eval_)
        with pytest.raises(LineSearchStallError):
            run(obj, [0.0], SolverConfig(backtrack_cap=5), SteplengthPolicy.long())

    def test_nan_gradient_ends_nonfinite(self):
        # the gradient is nan everywhere but at the start, so the first
        # step is accepted on f and the second iterate has no gradient;
        # backtracking on it could only stall
        x0 = np.array([2.0, -1.0])

        def eval_(x):
            g = x.copy() if np.array_equal(x, x0) else np.full(2, np.nan)
            return 0.5 * float(x @ x), g

        obj = Objective("nan-gradient", 2, eval_)
        tr = run(obj, x0, SolverConfig(alpha0=0.5), SteplengthPolicy.long())
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
        tr = run(obj, x0, SolverConfig(), SteplengthPolicy.long())
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
        tr = run(obj, x0, SolverConfig(alpha0=0.5, backtrack_cap=7), SteplengthPolicy.long())
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
            run(obj, x0, SolverConfig(alpha0=0.5, backtrack_cap=5), SteplengthPolicy.long())

    def test_backtracks_and_fevals_recorded(self):
        obj = rosenbrock2()
        tr = run(obj, obj.x0, SolverConfig(epsilon=1e-6, alpha0=1.0, max_iter=2000),
                 SteplengthPolicy.long())
        assert any(r.backtracks > 0 for r in tr.rows[:-1])
        for r in tr.rows[:-1]:
            assert r.fevals == 1 + r.backtracks
        assert tr.rows[-1].fevals == 0

    def test_trace_json_roundtrip(self):
        obj = rosenbrock2()
        tr = run(obj, obj.x0, SolverConfig(epsilon=1e-4, max_iter=800),
                 SteplengthPolicy.family(1.5))
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


class TestAudit:
    def make_trace(self):
        obj = rosenbrock2()
        return run(obj, obj.x0, SolverConfig(epsilon=1e-5, max_iter=2000),
                   SteplengthPolicy.family(1.0))

    def test_clean_run_passes(self):
        tr = self.make_trace()
        assert audit_trace(tr) == []

    def test_corrupted_objective_detected(self):
        tr = self.make_trace()
        rows = list(tr.rows)
        rows[3] = dataclasses.replace(rows[3], f=rows[3].f + 100.0)
        bad = RunTrace(rows=rows, termination=tr.termination,
                       final_x=tr.final_x, meta=tr.meta)
        assert any("nonmonotone" in v for v in audit_trace(bad))

    def test_corrupted_alpha_detected(self):
        tr = self.make_trace()
        rows = list(tr.rows)
        rows[2] = dataclasses.replace(rows[2], alpha=2000.0)
        bad = RunTrace(rows=rows, termination=tr.termination,
                       final_x=tr.final_x, meta=tr.meta)
        assert any("safeguard band" in v for v in audit_trace(bad))

    def test_explicit_config_overrides_meta(self):
        tr = self.make_trace()
        strict = SolverConfig.from_meta(tr.meta, beta=0.999)
        # a near-1 sufficient decrease coefficient rejects real steps
        assert audit_trace(tr, config=strict) != []
