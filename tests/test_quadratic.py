"""Generated quadratic instances: spectra, factored Hessian products, and
the raw BB solver on them."""

import ast
import dataclasses
import inspect
import math
import textwrap
import warnings
from fractions import Fraction

import numpy as np
import pytest

from stlsbb import (
    QuadraticInstance,
    SpectrumSetting,
    StepPair,
    SteplengthPolicy,
    apply_hessian,
    dense_hessian,
    generate_instance,
    gradient,
    next_steplength,
    objective,
    parse_policy,
    solve_bb,
)
from stlsbb.errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    InvalidParameterError,
    InvalidSettingError,
)
from stlsbb import kernels, quadratic
from stlsbb.errors import LineSearchStallError
from stlsbb.quadratic import SETTING_IDS, as_objective
from stlsbb.solver import STOP_GRAD_REL, SolverConfig, run
from stlsbb.trace import GRADIENT_TOLERANCE, ITERATION_CAP, NONFINITE

from conftest import raw_results


class TestSpectrumSetting:
    def test_valid(self):
        s = SpectrumSetting(3, 1e4)
        assert s.setting_id == 3 and s.kappa == 1e4

    def test_bad_id(self):
        for sid in (0, 8, -1):
            with pytest.raises(InvalidSettingError):
                SpectrumSetting(sid, 1e4)

    def test_bad_kappa(self):
        for k in (1.0, 0.0, -5.0, float("inf"), float("nan")):
            with pytest.raises(InvalidParameterError):
                SpectrumSetting(1, k)


class TestInstanceValidation:
    def unit(self, n, i=0):
        e = np.zeros(n)
        e[i] = 1.0
        return e

    def test_non_unit_householder_rejected(self):
        n = 5
        with pytest.raises(InvalidParameterError):
            QuadraticInstance(
                dim=n,
                w1=np.full(n, 0.5),
                w2=self.unit(n),
                w3=self.unit(n),
                eigenvalues=np.ones(n),
                linear=np.zeros(n),
            )

    def test_zero_dimension_rejected(self):
        with pytest.raises(DimensionTooSmallError, match="dim must be >= 1"):
            QuadraticInstance(dim=0, w1=[], w2=[], w3=[], eigenvalues=[], linear=[])

    def test_nonpositive_eigenvalue_rejected(self):
        n = 5
        v = np.ones(n)
        v[2] = 0.0
        with pytest.raises(InvalidParameterError):
            QuadraticInstance(
                dim=n,
                w1=self.unit(n),
                w2=self.unit(n),
                w3=self.unit(n),
                eigenvalues=v,
                linear=np.zeros(n),
            )

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            QuadraticInstance(
                dim=5,
                w1=self.unit(5),
                w2=self.unit(5),
                w3=self.unit(5),
                eigenvalues=np.ones(4),
                linear=np.zeros(5),
            )

    def test_arrays_frozen_and_copied(self):
        n = 5
        v = np.ones(n)
        inst = QuadraticInstance(
            dim=n,
            w1=self.unit(n),
            w2=self.unit(n),
            w3=self.unit(n),
            eigenvalues=v,
            linear=np.zeros(n),
        )
        v[0] = 99.0
        assert inst.eigenvalues[0] == 1.0
        with pytest.raises((ValueError, RuntimeError)):
            inst.eigenvalues[0] = 2.0

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("w1", float("nan")),
            ("w2", float("nan")),
            ("w3", float("nan")),
            ("eigenvalues", float("inf")),
            ("linear", float("nan")),
        ],
    )
    def test_nonfinite_field_rejected_on_load(self, name, bad):
        # a NaN w passes the unit-norm check and an inf eigenvalue passes
        # the positivity check, so finiteness is checked on its own
        d = generate_instance(6, SpectrumSetting(1, 1e2), seed=0).to_dict()
        d[name][2] = bad
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
            QuadraticInstance.from_dict(d)


class TestGeneration:
    def test_deterministic(self):
        a = generate_instance(40, SpectrumSetting(2, 1e4), seed=7)
        b = generate_instance(40, SpectrumSetting(2, 1e4), seed=7)
        for name in ("w1", "w2", "w3", "eigenvalues", "linear"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_instance(self):
        a = generate_instance(40, SpectrumSetting(2, 1e4), seed=7)
        c = generate_instance(40, SpectrumSetting(2, 1e4), seed=8)
        assert not np.array_equal(a.linear, c.linear)
        assert not np.array_equal(a.w1, c.w1)

    def test_householder_vectors_are_unit(self):
        inst = generate_instance(30, SpectrumSetting(1, 100.0), seed=0)
        for name in ("w1", "w2", "w3"):
            assert np.linalg.norm(getattr(inst, name)) == pytest.approx(1.0, abs=1e-13)

    def test_spectrum_shape(self):
        for sid in range(1, 8):
            inst = generate_instance(50, SpectrumSetting(sid, 1e4), seed=3)
            v = inst.eigenvalues
            assert v[0] == 1.0
            assert v[-1] == 1e4
            assert np.all(np.diff(v) >= 0.0)
            assert np.all(v > 0.0)

    def test_interior_bands(self):
        # recipe 3 splits the interior at n//2 between [1, 100] and
        # [kappa/2, kappa]
        n, kappa = 50, 1e4
        inst = generate_instance(n, SpectrumSetting(3, kappa), seed=11)
        v = inst.eigenvalues
        assert np.all(v[1 : n // 2] <= 100.0)
        assert np.all(v[n // 2 : n - 1] >= kappa / 2.0)

    def test_dimension_floor(self):
        with pytest.raises(DimensionTooSmallError):
            generate_instance(2, SpectrumSetting(1, 100.0), seed=0)
        with pytest.raises(DimensionTooSmallError):
            generate_instance(9, SpectrumSetting(2, 1e4), seed=0)

    @pytest.mark.parametrize("sid", [6, 7])
    def test_recipes_with_ten_fixed_eigenvalues_need_eleven(self, sid):
        # their blocks (1, 10) and (n - 10, n - 1) are reversed at n = 10;
        # the floor names that instead of numpy's bare ValueError
        with pytest.raises(DimensionTooSmallError, match=f"recipe {sid} needs n >= 11, got 10"):
            generate_instance(10, SpectrumSetting(sid, 1e4), seed=0)
        v = generate_instance(11, SpectrumSetting(sid, 1e4), seed=0).eigenvalues
        assert v[0] == 1.0 and v[-1] == 1e4 and np.all(np.diff(v) >= 0.0)

    def test_kappa_floor_for_banded_recipes(self):
        with pytest.raises(InvalidSettingError):
            generate_instance(50, SpectrumSetting(2, 150.0), seed=0)
        # recipe 1 has no such floor
        generate_instance(50, SpectrumSetting(1, 150.0), seed=0)

    def test_setting_type_required(self):
        with pytest.raises(InvalidParameterError):
            generate_instance(50, (1, 1e4), seed=0)


class TestHessianProducts:
    @pytest.fixture()
    def inst(self):
        return generate_instance(25, SpectrumSetting(1, 500.0), seed=5)

    def test_dense_is_symmetric(self, inst):
        a = dense_hessian(inst)
        assert a == pytest.approx(a.T, rel=1e-12, abs=1e-12)

    def test_dense_spectrum_matches(self, inst):
        a = dense_hessian(inst)
        ev = np.linalg.eigvalsh(a)
        assert ev == pytest.approx(inst.eigenvalues, rel=1e-8, abs=1e-8)

    def test_apply_matches_dense(self, inst, rng):
        a = dense_hessian(inst)
        for _ in range(10):
            x = rng.standard_normal(inst.dim)
            assert apply_hessian(inst, x) == pytest.approx(a @ x, rel=1e-10, abs=1e-10)

    def test_axis_aligned_hand_case(self):
        # w1 = w2 = w3 = e1 makes Q a single reflection, so A is exactly
        # diag(v)
        n = 6
        e1 = np.zeros(n)
        e1[0] = 1.0
        v = np.linspace(1.0, 10.0, n)
        inst = QuadraticInstance(
            dim=n, w1=e1, w2=e1, w3=e1, eigenvalues=v, linear=np.zeros(n)
        )
        assert np.array_equal(dense_hessian(inst), np.diag(v))
        x = np.arange(1.0, n + 1.0)
        assert np.array_equal(apply_hessian(inst, x), v * x)

    def test_objective_gradient_consistency(self, inst, rng):
        # f(x) = x'(g(x) - b)/2 is an exact identity for quadratics
        for _ in range(5):
            x = rng.standard_normal(inst.dim)
            g = gradient(inst, x)
            assert objective(inst, x) == pytest.approx(
                0.5 * float(x @ (g - inst.linear)), rel=1e-12, abs=1e-12
            )

    def test_gradient_finite_difference(self, inst, rng):
        x = rng.standard_normal(inst.dim)
        g = gradient(inst, x)
        h = 1e-6
        for i in range(0, inst.dim, 5):
            xp = x.copy()
            xp[i] += h
            xm = x.copy()
            xm[i] -= h
            fd = (objective(inst, xp) - objective(inst, xm)) / (2.0 * h)
            assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_strided_view_equals_its_copy(self, inst, rng):
        # BLAS rounds a strided dot unlike a contiguous one, so a view
        # must give its copy's bits
        x = rng.standard_normal((2, 2 * inst.dim))[0, ::2]
        xc = x.copy()
        assert apply_hessian(inst, x).tobytes() == apply_hessian(inst, xc).tobytes()
        assert gradient(inst, x).tobytes() == gradient(inst, xc).tobytes()
        assert objective(inst, x) == objective(inst, xc)
        (f, g), (fc, gc) = (as_objective(inst).eval(v) for v in (x, xc))
        assert f == fc and g.tobytes() == gc.tobytes()

    @pytest.mark.parametrize("n", [3, 100, 300, 2000])
    def test_objective_and_gradient_are_eval_bitwise(self, rng, n):
        # the solver's objective and the module's functions compute f and g
        # the same way, on a contiguous x and on a strided view alike
        inst = generate_instance(n, SpectrumSetting(1, 1e3), seed=n)
        obj = as_objective(inst)
        for x in (rng.standard_normal(n), rng.standard_normal((2, 2 * n))[1, ::2]):
            f, g = obj.eval(x)
            assert objective(inst, x) == f
            assert gradient(inst, x).tobytes() == g.tobytes()

    def test_dimension_check(self, inst):
        with pytest.raises(DimensionMismatchError):
            apply_hessian(inst, np.ones(inst.dim + 1))


class TestSerialization:
    def test_json_roundtrip_bit_exact(self):
        inst = generate_instance(20, SpectrumSetting(4, 1e4), seed=9)
        back = QuadraticInstance.from_json(inst.to_json())
        for name in ("w1", "w2", "w3", "eigenvalues", "linear"):
            assert np.array_equal(getattr(inst, name), getattr(back, name))
        assert back.setting_id == 4 and back.kappa == 1e4 and back.seed == 9
        assert list(inst.to_dict()) == ["format", "dim", "setting_id", "kappa", "seed",
                                        "w1", "w2", "w3", "eigenvalues", "linear"]

    def test_hand_built_document_loads_without_provenance(self):
        # setting_id, kappa and seed have defaults, so a document may omit them
        d = generate_instance(6, SpectrumSetting(1, 1e2), seed=0).to_dict()
        for name in ("setting_id", "kappa", "seed"):
            del d[name]
        back = QuadraticInstance.from_dict(d)
        assert (back.setting_id, back.kappa, back.seed) == (None, None, None)
        assert np.array_equal(back.linear, d["linear"])

    def test_wrong_format_rejected(self):
        with pytest.raises(InvalidParameterError):
            QuadraticInstance.from_dict({"format": "something-else"})


class TestSolveBB:
    @pytest.fixture()
    def inst(self):
        return generate_instance(30, SpectrumSetting(1, 1e3), seed=2)

    def test_converges_and_final_x_is_consistent(self, inst):
        tr = solve_bb(inst, SteplengthPolicy("bb1"), epsilon=1e-8, max_iter=5000)
        assert tr.solved and tr.termination == GRADIENT_TOLERANCE
        g = gradient(inst, tr.final_x)
        g0 = gradient(inst, np.ones(inst.dim))
        assert np.linalg.norm(g) <= 1e-8 * np.linalg.norm(g0)
        assert tr.rows[-1].grad_norm == pytest.approx(
            np.linalg.norm(g), rel=1e-6, abs=1e-18
        )

    def test_gamma_is_a_curvature(self):
        # scaling A and b by 4 scales g by 4 and the default opening by 1/4,
        # exactly: the BB quotients then give the same steps in x, but a
        # fixed gamma, measured in units of ||y||/||s||, sits at another
        # place in [bb2, bb1]
        inst = generate_instance(100, SpectrumSetting(1, 1e4), seed=0)
        scaled = QuadraticInstance(inst.dim, inst.w1, inst.w2, inst.w3,
                                   4.0 * inst.eigenvalues, 4.0 * inst.linear)
        runs = {text: [solve_bb(q, parse_policy(text), 1e-6, 20000) for q in (inst, scaled)]
                for text in ("bb1", "bb2", "tau:0.3", "atc:3",
                             "gamma:1", "gamma:20", "gammaPrime:2")}
        for text in ("bb1", "bb2", "tau:0.3", "atc:3"):
            plain, scaled_run = runs[text]
            assert plain.iterations == scaled_run.iterations
            assert np.array_equal(plain.final_x, scaled_run.final_x)
        assert {text: [tr.iterations for tr in runs[text]]
                for text in ("gamma:1", "gamma:20", "gammaPrime:2")} == {
            "gamma:1": [166, 211], "gamma:20": [210, 240], "gammaPrime:2": [367, 346]}

    def test_deterministic(self, inst):
        pol = SteplengthPolicy("gamma", gamma=5.0)
        t1 = solve_bb(inst, pol, epsilon=1e-6, max_iter=5000)
        t2 = solve_bb(inst, pol, epsilon=1e-6, max_iter=5000)
        assert t1.iterations == t2.iterations
        assert np.array_equal(t1.final_x, t2.final_x)
        assert np.array_equal(t1.grad_norms(), t2.grad_norms())

    def test_identity_spectrum_two_steps(self):
        n = 10
        e1 = np.zeros(n)
        e1[0] = 1.0
        inst = QuadraticInstance(
            dim=n,
            w1=e1,
            w2=e1,
            w3=e1,
            eigenvalues=np.ones(n),
            linear=np.linspace(-3.0, 4.0, n),
        )
        tr = solve_bb(inst, SteplengthPolicy("bb1"), epsilon=1e-10, max_iter=50)
        assert tr.solved and tr.iterations <= 2
        assert tr.final_x == pytest.approx(inst.linear, abs=1e-14)

    def test_iteration_cap_reported(self, inst):
        tr = solve_bb(inst, SteplengthPolicy("bb1"), epsilon=1e-10, max_iter=3)
        assert not tr.solved and tr.termination == ITERATION_CAP
        assert tr.iterations == 3

    def test_overflowing_start_ends_nonfinite(self, inst):
        # ||g0|| is inf, and inf <= eps * inf must not read as converged
        with np.errstate(all="ignore"):
            tr = solve_bb(inst, SteplengthPolicy("bb1"), epsilon=1e-6, max_iter=100,
                          x0=np.full(inst.dim, 1e300))
        assert tr.termination == NONFINITE and not tr.solved
        assert tr.iterations == 0
        assert tr.rows[-1].grad_norm == np.inf

    def test_far_start_ends_nonfinite_without_warning(self):
        # A x0 overflows, and the loop's own g0 is inf and nan; its opening
        # steplength is taken inside the loop's errstate
        inst = generate_instance(20, SpectrumSetting(1, 1e3), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = solve_bb(inst, SteplengthPolicy("bb1"), 1e-6, 10, x0=np.full(20, 1e307))
        assert (tr.termination, tr.iterations) == (NONFINITE, 0)

    def test_stationary_start_records_its_opening_steplength(self):
        # g0 = 0: the inf-norm rule falls back to 1, and a given alpha0 is
        # recorded as given, though no step takes either
        e1 = np.eye(4)[0]
        inst = QuadraticInstance(4, e1, e1, e1, np.ones(4), np.ones(4))
        for alpha0, want in ((None, 1.0), (0.5, 0.5)):
            tr = solve_bb(inst, SteplengthPolicy("bb1"), 1e-6, 10, alpha0=alpha0)
            assert (tr.termination, tr.iterations) == (GRADIENT_TOLERANCE, 0)
            assert tr.meta["alpha0"] == want
            assert np.isnan(tr.rows[0].alpha)

    def test_overflowing_gradient_norm_records_its_opening_steplength(self):
        # g0 = (1, 2, 3) 1e200 is finite but g0'g0 overflows
        e1 = np.eye(3)[0]
        inst = QuadraticInstance(3, e1, e1, e1, [1.0, 2.0, 3.0], np.zeros(3))
        tr = solve_bb(inst, SteplengthPolicy("bb1"), 1e-6, 10, x0=np.full(3, 1e200))
        assert (tr.termination, tr.iterations) == (NONFINITE, 0)
        assert tr.meta["alpha0"] == 3.3333333333333335e-201

    @pytest.mark.parametrize(
        "desc", ["bb1", "bb2", "gamma:1", "gamma:20", "gammaPrime:0.5", "tau:0.3", "atc:4"]
    )
    def test_raw_loop_agrees_with_public_dispatch(self, inst, desc):
        # replay the gradient recurrence through the checked public API;
        # both paths evaluate the same kernel on the same scalars
        policy = parse_policy(desc)
        tr = solve_bb(inst, policy, epsilon=1e-6, max_iter=5000)
        assert tr.solved and tr.iterations > 10
        g = gradient(inst, np.ones(inst.dim))
        for k, (row, nxt) in enumerate(zip(tr.rows[:-2], tr.rows[1:-1])):
            ag = apply_hessian(inst, g)
            # the raw loop's ATC state: index k and the alpha just taken
            assert next_steplength(policy, StepPair(g, ag), k, row.alpha) == nxt.alpha
            g -= row.alpha * ag

    def test_trace_row_semantics(self, inst):
        tr = solve_bb(inst, SteplengthPolicy("bb2"), epsilon=1e-4, max_iter=5000)
        ks = [r.k for r in tr.rows]
        assert ks == list(range(len(tr.rows)))
        assert all(r.backtracks == 0 and r.fevals == 0 for r in tr.rows)
        assert np.isnan(tr.rows[-1].alpha)
        assert all(np.isfinite(r.alpha) and r.alpha > 0.0 for r in tr.rows[:-1])
        assert tr.meta["policy"] == "bb2"
        assert tr.meta["alpha0_rule"] == "inf_norm"

    def test_first_alpha_is_inf_norm_rule(self, inst):
        tr = solve_bb(inst, SteplengthPolicy("bb1"), epsilon=1e-4, max_iter=5000)
        g0 = gradient(inst, np.ones(inst.dim))
        assert tr.rows[0].alpha == pytest.approx(
            1.0 / np.max(np.abs(g0)), rel=1e-14
        )
        # the loop's own g0 has the bits of gradient(inst, x0)
        assert tr.meta["alpha0"] == tr.rows[0].alpha == 1.0 / float(np.max(np.abs(g0)))

    def test_secant_curvature_replay(self, inst):
        # replay the recorded steplengths from x0 and confirm every secant
        # pair the policy saw had positive curvature, as the structure
        # guarantees
        tr = solve_bb(inst, SteplengthPolicy("gamma", gamma=2.0), epsilon=1e-6, max_iter=5000)
        x = np.ones(inst.dim)
        g = gradient(inst, x)
        for row in tr.rows[:-1]:
            x_next = x - row.alpha * g
            g_next = gradient(inst, x_next)
            s = x_next - x
            y = g_next - g
            assert float(s @ y) > 0.0
            x, g = x_next, g_next

    def test_parameter_validation(self, inst):
        with pytest.raises(InvalidParameterError):
            solve_bb(inst, "bb1", epsilon=1e-6, max_iter=100)
        with pytest.raises(InvalidParameterError):
            solve_bb(inst, SteplengthPolicy("bb1"), epsilon=2.0, max_iter=100)
        with pytest.raises(InvalidParameterError):
            solve_bb(inst, SteplengthPolicy("bb1"), epsilon=1e-6, max_iter=0)
        with pytest.raises(InvalidParameterError):
            solve_bb(
                inst, SteplengthPolicy("bb1"), epsilon=1e-6, max_iter=100, alpha0=-1.0
            )

    def test_underflowing_curvature_ends_nonfinite_without_warning(self, capsys):
        # A = 1e-310 I: g'Ag is subnormal and ||Ag||^2 underflows to 0, so
        # the first steplength divides by zero or overflows
        e1 = np.array([1.0, 0.0, 0.0])
        inst = QuadraticInstance(3, e1, e1, e1, [1e-310] * 3, [1.0, 2.0, 3.0])
        policies = [parse_policy(d) for d in
                    ("bb1", "bb2", "gamma:1", "gammaPrime:1", "tau:0.5", "atc:3")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            alone = [solve_bb(inst, policy, 1e-6, 100) for policy in policies]
            block = raw_results(
                [(j, inst, policy, np.ones(3), None, 1e-6) for j, policy in enumerate(policies)],
                len(policies), 100)
        assert caught == []
        assert capsys.readouterr().err == ""
        for tr, (termination, f_hist, g_hist, a_hist, x) in zip(alone, block):
            assert (tr.termination, tr.iterations) == (NONFINITE, 2)
            assert termination == NONFINITE and len(g_hist) == 3
            assert np.array(g_hist).tobytes() == tr.grad_norms().tobytes()
            assert x.tobytes() == tr.final_x.tobytes()

    def test_block_checks_each_epsilon(self, inst):
        x0 = np.ones(inst.dim)
        rows = [(j, inst, SteplengthPolicy("bb1"), x0, None, eps)
                for j, eps in enumerate((1e-6, 1e-2, 1e-4))]
        runs = raw_results(rows, 3, 500, history=False)
        counts = [solve_bb(inst, SteplengthPolicy("bb1"), eps, 500).iterations
                  for eps in (1e-6, 1e-2, 1e-4)]
        assert [its for _, its in runs] == counts

    def test_as_objective_wraps_instance(self, inst, rng):
        obj = as_objective(inst)
        assert obj.dim == inst.dim
        x = rng.standard_normal(inst.dim)
        f, g = obj.eval(x)
        assert f == pytest.approx(objective(inst, x), rel=1e-12)
        assert g == pytest.approx(gradient(inst, x), rel=1e-12, abs=1e-12)
        assert np.array_equal(obj.x0, np.ones(inst.dim))

    @pytest.mark.parametrize("rows", [1, 2, 16])
    def test_eval_rows_equal_eval_bitwise(self, inst, rng, rows):
        obj = as_objective(inst)
        xs = rng.standard_normal((rows, inst.dim))
        f_rows, g_rows = obj.eval_rows(xs)
        for x, f, g in zip(xs, f_rows, g_rows):
            want_f, want_g = obj.eval(x)
            assert f == want_f
            assert np.array_equal(g, want_g)
        with pytest.raises(DimensionMismatchError):
            obj.eval_rows(xs[:, 1:])


def _with_and_without_bound(obj, x0, config, policy):
    # run's trace JSON, or its stall message, with the objective's bound
    # and without it
    out = []
    for o in (obj, dataclasses.replace(obj, lower_bounds=None)):
        try:
            out.append(run(o, x0, config, policy).to_json())
        except LineSearchStallError as exc:
            out.append(f"stall: {exc}")
    return out


def _eigenvector(inst, i):
    # P e_i, the eigenvector of v[i]
    q = np.eye(inst.dim)[i]
    for w in (inst.w1, inst.w2, inst.w3):
        q -= 2.0 * w.dot(q) * w
    return q


def _soundness_points():
    # (inst, x, steps, kappa) for TestTrialLowerBounds: points near the
    # minimizer x*, where f^ moves by rounding alone; points near 2x*, where
    # F is 0 and f^ is all rounding; random points; and, with b = 0, points
    # on the eigenvector of v[0] = 1, whose trials the product's rounding
    # moves by about kappa times their F; at four scales of x and b; steps
    # delta sigma^j and log-uniform draws.  Then, with kappa None, since
    # every step lies inside the window, eigen-aligned points at n = 1000
    # and kappa up to 1e14: x on the top eigenvector, b chosen so that g
    # lies on the bottom one up to a little noise, and steps in [0.1, 30];
    # their trials need the bound's a-terms, and with e1 = e2 = 0 some of
    # them break it from kappa = 1e12 on
    rng = np.random.default_rng(30)
    steps = [0.1 * 0.8**j for j in range(30)]
    for sid in SETTING_IDS:
        for kappa in (1e3, 1e4, 1e6):
            for n in (11, 100, 1000):
                inst = generate_instance(n, SpectrumSetting(sid, kappa), seed=sid)
                x_min = kernels.hessian_apply(inst.w1, inst.w2, inst.w3,
                                              1.0 / inst.eigenvalues, inst.linear)
                q = _eigenvector(inst, 0)  # v[0] = 1
                flat = dataclasses.replace(inst, linear=np.zeros(n))
                for scale in (1e3, 1e-3, 2.0**480, 2.0**-480):
                    scaled = dataclasses.replace(inst, linear=inst.linear * scale)
                    points = [(scaled, scale * x_min), (scaled, 2.0 * scale * x_min),
                              (scaled, scale * rng.standard_normal(n)), (flat, scale * q)]
                    for point_inst, x in points:
                        a = steps + (10.0 ** rng.uniform(-12.0, 3.0, 10)).tolist()
                        yield point_inst, x, a, kappa
    n = 1000
    for kappa in (1e6, 1e9, 1e12, 1e14):
        inst = generate_instance(n, SpectrumSetting(1, kappa), seed=0)
        bottom, top = _eigenvector(inst, 0), _eigenvector(inst, n - 1)
        for _ in range(200):
            x = 10.0 ** rng.uniform(-8.0, -2.0) * top
            g = 10.0 ** rng.uniform(-2.0, 3.0) * (bottom + 3e-8 * rng.standard_normal(n))
            b = kernels.hessian_apply(inst.w1, inst.w2, inst.w3, inst.eigenvalues, x) - g
            yield dataclasses.replace(inst, linear=b), x, rng.uniform(0.1, 30.0, 8).tolist(), None


def _bound_checks(make_bounds=None):
    # [(where, lo, f, label)] for each step of each soundness point: lo
    # from make_bounds(inst), as_objective's own bound by default, f the
    # value eval_rows computes at the trial, and where "inside" the window,
    # "outside" it, or "edge" within a factor 2 of its edge, where neither
    # is checked.  A list, so the errstate is left before any caller reads
    # it: a generator suspended inside it, or two of them interleaved, would
    # leave numpy's error state changed for the tests that run after
    checks = []
    with np.errstate(over="ignore", invalid="ignore"):
        for inst, x, a, kappa in _soundness_points():
            obj = as_objective(inst)
            bounds = obj.lower_bounds if make_bounds is None else make_bounds(inst)
            f, g = obj.eval(x)
            lo = bounds(x, f, g, a)
            got, _ = obj.eval_rows(kernels.trial_rows(x, g, np.array(a)))
            if kappa is None:
                checks.extend(("inside", li, fi, ai) for ai, li, fi in zip(a, lo, got.tolist()))
                continue
            b_norm = float(np.linalg.norm(inst.linear))
            xn, gn = float(np.linalg.norm(x)), float(np.linalg.norm(g))
            for ai, li, fi in zip(a, lo, got.tolist()):
                z = (math.log2(kappa + 1.0)
                     + 2.0 * math.log2(1.0 + xn + gn + b_norm + ai * (gn + 1.0)))
                where = ("outside" if z > 1001.0 or not math.isfinite(f)
                         else "inside" if z < 999.0 else "edge")
                checks.append((where, li, fi, (inst.setting_id, kappa, inst.dim, ai)))
    return checks


def _rebuilt_trial_lower_bounds(*zeroed, returning=None):
    # quadratic._trial_lower_bounds compiled again from its source, with
    # each assignment to a name in zeroed made an assignment of 0.0; with
    # returning, the function body (its own or the closure's) that binds
    # that name returns it there, so kc is read from the rebuilt function
    # and c from the closure it returns
    tree = ast.parse(textwrap.dedent(inspect.getsource(quadratic._trial_lower_bounds)))
    found = set()

    class Zero(ast.NodeTransformer):
        def visit_Assign(self, node):
            names = {t.id for t in node.targets if isinstance(t, ast.Name)} & set(zeroed)
            if names:
                found.update(names)
                node.value = ast.Constant(0.0)
            return node

        def visit_FunctionDef(self, node):
            self.generic_visit(node)
            for i, stmt in enumerate(node.body):
                bound = {n.id for t in getattr(stmt, "targets", ()) for n in ast.walk(t)
                         if isinstance(n, ast.Name)}
                if returning in bound:
                    found.add(returning)
                    node.body[i + 1:] = [ast.Return(ast.Name(returning, ast.Load()))]
                    break
            return node

    tree = ast.fix_missing_locations(Zero().visit(tree))
    assert found == set(zeroed) | ({returning} - {None})
    namespace = dict(vars(quadratic))
    exec(compile(tree, quadratic.__file__, "exec"), namespace)
    return namespace["_trial_lower_bounds"]


class TestTrialLowerBounds:
    """as_objective's proven lower bound on a trial's computed f."""

    def test_the_constants_cover_their_terms(self):
        # the inequalities of _trial_lower_bounds' derivation, in exact
        # rationals; each left side is convex in n and each constant linear,
        # so n = 1 and n = 2^20 cover every n of the window
        u = Fraction(1, 2**53)
        for n in (1, 2**20):
            gam = n * u / (1 - n * u)
            assert gam <= n * u * (1 + Fraction(1, 2**32))
            w_sq = (1 + Fraction(1, 2**32)) / (1 - gam) + n * Fraction(1, 2**1075) / (1 - gam)
            assert w_sq <= 1 + Fraction(1, 2**31)
            assert 2 * w_sq - 1 <= 1 + Fraction(1, 2**30)
            w_sq = 1 + Fraction(1, 2**31)
            e_h = 2 * gam * w_sq + u + 2 * u * w_sq * (1 + gam) * (2 + u)
            assert e_h <= (2 * n + 6) * u
            h, ka, kp = 1 + Fraction(1, 2**30), (12 * n + 38) * u, (6 * n + 18) * u
            assert (h + e_h) ** 3 - h**3 <= kp
            assert (h + (2 * n + 6) * u) ** 6 * (1 + u) - h**6 <= ka
            v1 = 1 + Fraction(1, 2**26)
            assert h**6 + ka <= v1
            k1 = gam * v1 / 2 + ka / 2 + u * (1 + gam) * v1 / 2
            assert k1 * (1 + Fraction(1, 2**50)) ** 2 <= (7 * n + 22) * u
            k2 = gam + u * (1 + gam)
            assert k2 * (1 + Fraction(1, 2**50)) <= (n + 3) * u
            assert gam <= (n + 1) * u
            # c from the three reflections, then the scaled dot
            assert (kp * (2 * h**3 + kp) + (u + gam * (1 + u)) * (h**3 + kp) ** 2
                    <= (13 * n + 39) * u)
            assert 1 / (1 - u) <= Fraction(101, 100)

    def test_no_bound_past_the_windows_dimension(self):
        # past n = 2^20 gamma_n <= nu(1 + 2^-32) no longer holds, so the
        # proof does not apply and run evaluates every trial; the instance
        # is hand-built from unit basis vectors (about 40 MB of arrays).
        # The window's other half, fl(w . w) > 1 + 2^-32, no validated
        # instance reaches: its unit check keeps fl(w . w) below 1 + 3e-12
        for n, bounded in ((2**20, True), (2**20 + 1, False)):
            basis = [np.zeros(n) for _ in range(3)]
            for i, w in enumerate(basis):
                w[i] = 1.0
            inst = QuadraticInstance(n, *basis, np.ones(n), np.ones(n))
            del basis
            assert (as_objective(inst).lower_bounds is not None) == bounded
            del inst

    def test_every_finite_bound_lies_below_the_computed_f(self):
        # a step inside the window gets a finite lo no larger than the f
        # that eval_rows computes there, and one outside it -inf
        inside = outside = 0
        for where, lo, f, label in _bound_checks():
            if where == "outside":
                assert lo == -math.inf, label
                outside += 1
            elif where == "inside":
                assert -math.inf < lo <= f < math.inf, label
                inside += 1
        assert inside > 41000 and outside > 1500

    @pytest.mark.parametrize("zeroed", [(), ("e0",), ("e1", "e2")],
                             ids=["rebuilt", "e0", "e1-e2"])
    def test_the_points_need_the_error_terms(self, zeroed):
        # _trial_lower_bounds rebuilt from its source with the named error
        # terms set to 0 must break the bound at some of the soundness
        # test's points, and rebuilt unchanged must give the real bound's
        # bits, which break it nowhere.  Setting e1 alone or e2 alone to 0
        # breaks it at none of these points, so neither is pinned on its own
        mutant = _rebuilt_trial_lower_bounds(*zeroed)
        if zeroed:
            assert any(where == "inside" and lo > f for where, lo, f, _ in _bound_checks(mutant))
        else:
            for (_, lo, _, label), (_, real_lo, _, _) in zip(_bound_checks(mutant),
                                                             _bound_checks(), strict=True):
                assert lo == real_lo, label

    def test_an_overflowing_b_closes_the_window_quietly(self):
        inst = generate_instance(20, SpectrumSetting(1, 1e4), seed=0)
        obj = as_objective(dataclasses.replace(inst, linear=np.full(20, 1e200)))
        x = np.zeros(20)
        f, g = obj.eval(x)
        assert obj.lower_bounds(x, f, g, [0.1, 1e-300]) == [-math.inf] * 2

    def test_the_bound_is_a_pure_function(self, monkeypatch):
        # calls that repeat g, then interleave -g, g/2 and g, give the bits
        # of fresh calls, each on a fresh objective; inside the window each
        # call takes exactly one half product (the three reflections that
        # give g'Ag as a scaled square) and no Hessian product, and outside
        # it neither.  The bound reads g through ||g|| and g'Ag, so -g gives
        # g's bits and g/2 others
        inst = generate_instance(50, SpectrumSetting(1, 1e4), seed=0)
        obj = as_objective(inst)
        f, g = obj.eval(obj.x0)
        steps = [0.1, 0.08, 0.064]
        gs = (g, g, -g, 0.5 * g, g.copy())
        calls = []
        for name in ("hessian_apply", "_reflect"):
            kernel = getattr(kernels, name)
            monkeypatch.setattr(kernels, name, lambda *args, name=name, kernel=kernel:
                                calls.append(name) or kernel(*args))
        got = [obj.lower_bounds(obj.x0, f, h, steps) for h in gs]
        assert calls == ["_reflect"] * len(gs)
        fresh = [as_objective(inst).lower_bounds(obj.x0, f, h, steps) for h in gs]
        assert np.array(got).tobytes() == np.array(fresh).tobytes()
        assert got[0] == got[1] == got[2] == got[4] != got[3]
        assert all(-math.inf < lo < math.inf for lo in got[0] + got[3])
        calls.clear()
        assert obj.lower_bounds(obj.x0, math.nan, g, steps) == [-math.inf] * 3
        assert obj.lower_bounds(np.full(50, 1e300), f, g, steps) == [-math.inf] * 3
        assert calls == []

    @pytest.mark.parametrize("kappa", [1e4, 1e8, 1e14])
    def test_the_curvature_lies_within_kc_of_exact(self, kappa):
        # the bound's c against g'Ag in exact rationals, from the stored w_i
        # and v, at random g and at g on the bottom and top eigenvectors up
        # to a little noise (TestTrialLowerBounds' eigen-aligned points);
        # kc and c are read from _trial_lower_bounds rebuilt from its source
        rng = np.random.default_rng(40)
        for n in (3, 11, 64):
            inst = generate_instance(n, SpectrumSetting(1, kappa), seed=n)
            kc = _rebuilt_trial_lower_bounds(returning="kc")(inst)
            curvature = _rebuilt_trial_lower_bounds(returning="c")(inst)
            ends = [_eigenvector(inst, 0), _eigenvector(inst, n - 1)]
            gs = [10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal(n) for _ in range(8)]
            gs += [10.0 ** rng.uniform(-2.0, 3.0) * (q + 3e-8 * rng.standard_normal(n))
                   for q in ends for _ in range(8)]
            v = [Fraction(t) for t in inst.eigenvalues.tolist()]
            for g in gs:
                c = curvature(np.zeros(n), 0.0, g, [])
                p = [Fraction(t) for t in g.tolist()]
                for w in (inst.w3, inst.w2, inst.w1):  # P'g, with P = H3 H2 H1
                    w = [Fraction(t) for t in w.tolist()]
                    t = 2 * sum(wi * pi for wi, pi in zip(w, p))
                    p = [pi - t * wi for wi, pi in zip(w, p)]
                exact = sum(vi * pi * pi for vi, pi in zip(v, p))
                gg = sum(Fraction(t) ** 2 for t in g.tolist())
                assert abs(Fraction(c) - exact) <= Fraction(kc) * max(v) * gg, (n, kappa)

    def test_the_bound_decides_most_trials_of_the_benchmark_run(self):
        # perfbench's gbb-linesearch quadratic: every step is reset to
        # delta and backtracks; without the bound each of its 57 673
        # trials is a row of a block product
        obj = as_objective(generate_instance(1000, SpectrumSetting(1, 1e4), seed=0))
        rows = []

        def eval_rows(xs):
            rows.append(len(xs))
            return obj.eval_rows(xs)

        config = SolverConfig(epsilon=1e-6, stop_rule=STOP_GRAD_REL, max_iter=2000)
        tr = run(dataclasses.replace(obj, eval_rows=eval_rows), obj.x0, config,
                 parse_policy("gamma:20"))
        trials = int(tr.fevals.sum())
        assert (tr.iterations, trials) == (2000, 57673)
        assert sum(rows) < 0.1 * trials

    # iterations of gamma:20 on the benchmark's quadratic at the documented
    # band, and of three policies in a wide band, where they act.  The wide
    # band's trace bytes are pinned in test_golden.py, and the band's in
    # perfbench/golden.json
    BENCHMARK_RUNS = {
        (1e-3, "gamma:20"): 2000,
        (1e-10, "bb1"): 638,
        (1e-10, "bb2"): 486,
        (1e-10, "gamma:20"): 293,
    }

    @pytest.mark.parametrize("eta, policy", sorted(BENCHMARK_RUNS))
    def test_the_benchmark_run_evaluates_about_one_row_per_search(self, monkeypatch, eta,
                                                                   policy):
        # every evaluation (eval's included) goes through quadratic._eval_rows
        # and every bound call through one half product, never a Hessian
        # product.  At the documented band a bounded round's first undecided
        # trial is nearly always the one accepted, so the run evaluates about
        # one row per search, in one call each: x0, the opening probe, then
        # 2 002 one-row calls for the 2 000 searches
        calls, bounds, reflections, inside = [], [], [], [False]
        evaluate, reflect, product = quadratic._eval_rows, kernels._reflect, kernels.hessian_apply

        def counted_rows(inst, xs):
            calls.append(len(xs) if xs.ndim == 2 else 1)
            return evaluate(inst, xs)

        def counted_product(*args):
            assert not inside[0], "a Hessian product inside the bound"
            return product(*args)

        monkeypatch.setattr(quadratic, "_eval_rows", counted_rows)
        monkeypatch.setattr(kernels, "_reflect",
                            lambda *args: reflections.append(inside[0]) or reflect(*args))
        monkeypatch.setattr(kernels, "hessian_apply", counted_product)
        obj = as_objective(generate_instance(1000, SpectrumSetting(1, 1e4), seed=0))
        lower_bounds = obj.lower_bounds

        def counted_bounds(*args):
            bounds.append(1)
            inside[0] = True
            try:
                return lower_bounds(*args)
            finally:
                inside[0] = False

        config = SolverConfig(epsilon=1e-6, stop_rule=STOP_GRAD_REL, max_iter=2000, eta=eta)
        tr = run(dataclasses.replace(obj, lower_bounds=counted_bounds), obj.x0, config,
                 parse_policy(policy))
        assert tr.iterations == self.BENCHMARK_RUNS[eta, policy]
        # one half product in each bound call, and the evaluations' own
        assert reflections.count(True) == len(bounds) > 0
        if eta == 1e-3:
            assert (len(calls), sum(calls), len(bounds)) == (2004, 2004, 2003)


class TestBoundEquivalence:
    """Every run with the bound is the run without it, byte for byte."""

    @pytest.mark.parametrize("eta", [1e-3, 1e-10])
    @pytest.mark.parametrize("pol", ["bb1", "bb2", "gamma:1", "atc:3"])
    def test_golden_gbb_quadratic_runs(self, eta, pol):
        obj = as_objective(generate_instance(200, SpectrumSetting(1, 1e3), 2))
        config = SolverConfig(epsilon=1e-6, stop_rule=STOP_GRAD_REL, max_iter=600, eta=eta)
        with_bound, without = _with_and_without_bound(obj, obj.x0, config, parse_policy(pol))
        assert with_bound == without

    @pytest.mark.parametrize("k", [-480, -300, -250, 250, 300, 480])
    @pytest.mark.parametrize(
        "kind", ["bb1", "bb2", "gamma:1", "gamma:20", "gammaPrime:0.05", "tau:0.3", "atc:3"])
    def test_scaled_runs(self, k, kind):
        # TestScaleFree's gbb runs: b and x0 scaled by 2^k
        inst = generate_instance(100, SpectrumSetting(1, 1e4), 0)
        obj = as_objective(dataclasses.replace(inst, linear=np.ldexp(inst.linear, k)))
        config = SolverConfig(epsilon=1e-6, stop_rule=STOP_GRAD_REL, max_iter=2000, eta=1e-10,
                              alpha0=1e-3)
        with_bound, without = _with_and_without_bound(obj, np.ldexp(np.ones(100), k), config,
                                                      parse_policy(kind))
        assert with_bound == without

    @pytest.mark.parametrize("lo", [math.nan, -math.inf])
    def test_a_bound_that_cannot_say_decides_nothing(self, lo):
        # a nan or -inf lo leaves every trial to be evaluated, so the run is
        # the run without a bound; a nan read as a failed test would reject
        # every trial unevaluated and raise LineSearchStallError at iterate 0
        obj = as_objective(generate_instance(50, SpectrumSetting(1, 1e3), 0))
        config = SolverConfig(epsilon=1e-6, stop_rule=STOP_GRAD_REL, max_iter=300)
        silent = dataclasses.replace(obj, lower_bounds=lambda x, f, g, steps: [lo] * len(steps))
        with_bound, without = _with_and_without_bound(silent, obj.x0, config,
                                                      parse_policy("bb1"))
        assert with_bound == without
        assert run(obj, obj.x0, config, parse_policy("bb1")).iterations == 230

    @pytest.mark.parametrize("alpha0, ends", [(1e300, f'"{NONFINITE}"'), (1e150, "stall: ")])
    def test_overflowing_trials(self, alpha0, ends):
        # from 1e300 every trial overflows and the run ends nonfinite; from
        # 1e150 the first trials overflow and the later ones are finite but
        # rejected, inside the window, so the search stalls, with the bound
        # deciding those as without it
        obj = as_objective(generate_instance(50, SpectrumSetting(1, 1e4), 0))
        config = SolverConfig(alpha0=alpha0, eta=1e-305)
        with_bound, without = _with_and_without_bound(obj, obj.x0, config, parse_policy("bb1"))
        assert with_bound == without
        assert ends in with_bound
