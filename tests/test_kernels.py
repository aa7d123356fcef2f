"""Kernel-level checks: closed forms, the policy dispatch, the Householder
Hessian product, row dots, and the lock-step raw BB loop."""

import math
import warnings

import numpy as np
import pytest

from stlsbb import (
    GRADIENT_TOLERANCE,
    ITERATION_CAP,
    QuadraticInstance,
    StepPair,
    SteplengthPolicy,
    alpha_family_prime,
    kernels,
    parse_policy,
)
from stlsbb.trace import NONFINITE

from conftest import random_pair


def scalars(pair):
    return pair.ss, pair.yy, pair.sy


def policy_step(policy, ss, yy, sy, prev=0.5, index=0):
    return kernels.policy_step(policy, ss, yy, sy, prev, index)


class TestScalarKernels:
    def test_bb_steps_are_the_ratios(self, rng):
        for _ in range(50):
            ss, yy, sy = scalars(random_pair(rng))
            assert policy_step(SteplengthPolicy.long(), ss, yy, sy) == ss / sy
            assert policy_step(SteplengthPolicy.short(), ss, yy, sy) == sy / yy

    def test_convex_step(self, rng):
        ss, yy, sy = scalars(random_pair(rng))
        for tau in (0.0, 0.25, 1.0):
            want = tau * (ss / sy) + (1.0 - tau) * (sy / yy)
            assert policy_step(SteplengthPolicy.convex(tau), ss, yy, sy) == want

    def test_family_matches_naive_formula(self, rng):
        # the textbook expression cancels badly when d < 0, so evaluate it
        # in extended precision to make a fair reference; the kernel in
        # plain doubles must still agree to rounding
        for _ in range(50):
            ss, yy, sy = (np.longdouble(v) for v in scalars(random_pair(rng)))
            for g in (0.3, 1.0, 4.0):
                t = 1.0 / np.longdouble(g) ** 2
                d = ss - yy * t
                e = 4.0 * sy * sy * t
                naive = float((d + np.sqrt(d * d + e)) / (2.0 * sy))
                assert kernels.family_step(
                    float(ss), float(yy), float(sy), g
                ) == pytest.approx(naive, rel=1e-14)

    def test_prime_matches_naive_formula(self, rng):
        for _ in range(50):
            ss, yy, sy = (np.longdouble(v) for v in scalars(random_pair(rng)))
            for g in (0.3, 1.0, 4.0):
                t = 1.0 / np.longdouble(g) ** 2
                d = yy - ss * t
                e = 4.0 * sy * sy * t
                naive = float(2.0 * sy / (d + np.sqrt(d * d + e)))
                assert kernels.family_prime_step(
                    float(ss), float(yy), float(sy), g
                ) == pytest.approx(naive, rel=1e-14)

    def test_prime_is_reciprocal_of_swapped_family(self, rng):
        # swapping s and y in the family fit and inverting gives the prime
        # steplength, which pins both formulas against each other
        for _ in range(50):
            ss, yy, sy = scalars(random_pair(rng))
            for g in (1e-3, 0.5, 1.0, 7.0, 1e4):
                swapped = kernels.family_step(yy, ss, sy, g)
                assert kernels.family_prime_step(ss, yy, sy, g) == pytest.approx(
                    1.0 / swapped, rel=1e-14
                )

    def test_overflowing_intermediates_give_the_limits(self):
        # at tiny gamma e = 4 s'y^2 / gamma^2 and r - d overflow before r
        # does; these two gave nan and 0.0 before the guard looked at them
        ss, yy, sy = 135921.95316024128, 2.6447324283812172e16, 40859494580.49226
        a = kernels.family_step(ss, yy, sy, 1.3732567963014338e-146)
        assert a == pytest.approx(sy / yy, rel=1e-12)
        pair = StepPair([1.0, 1.0], [1e8, 2e8])
        assert alpha_family_prime(pair, 1e-150) == pytest.approx(2.0 / 3e8, rel=1e-12)

    def test_family_kernels_stay_in_the_interval_at_any_scale(self):
        # ss and yy across 1e+-150, s'y from nearly orthogonal to parallel,
        # gamma across 1e+-300: some intermediates overflow on about 2 % of
        # the draws, and every value must still lie in [bb2, bb1] up to
        # rounding
        rng = np.random.default_rng(20261018)
        n = 20_000
        ss = 10.0 ** rng.uniform(-150.0, 150.0, n)
        yy = 10.0 ** rng.uniform(-150.0, 150.0, n)
        sy = 10.0 ** rng.uniform(-6.0, 0.0, n) * np.sqrt(ss * yy)
        gammas = 10.0 ** rng.uniform(-300.0, 300.0, n)
        slack = 4.0 * np.finfo(float).eps
        outside = []
        for draw in zip(ss.tolist(), yy.tolist(), sy.tolist(), gammas.tolist()):
            d_ss, d_yy, d_sy, _ = draw
            lo, hi = d_sy / d_yy, d_ss / d_sy
            for step in (kernels.family_step, kernels.family_prime_step):
                a = step(*draw)
                if not lo * (1.0 - slack) <= a <= hi * (1.0 + slack):  # false for nan
                    outside.append((step.__name__, draw, a))
        assert outside == []

    def test_atc_step_branches(self):
        ss, yy, sy = 2.0, 5.0, 3.0  # bb1 = 2/3, bb2 = 3/5
        assert kernels.atc_step(ss, yy, sy, 0.123, 0, 4) == 2.0 / 3.0
        assert kernels.atc_step(ss, yy, sy, 0.123, 8, 4) == 2.0 / 3.0
        assert kernels.atc_step(ss, yy, sy, 0.1, 1, 4) == 3.0 / 5.0
        assert kernels.atc_step(ss, yy, sy, 5.0, 2, 4) == 2.0 / 3.0
        assert kernels.atc_step(ss, yy, sy, 0.62, 3, 4) == 0.62


class TestPolicyDispatch:
    def test_dispatch_equals_direct_kernels(self, rng):
        ss, yy, sy = scalars(random_pair(rng))

        def step(policy, prev=0.5, index=0):
            return policy_step(policy, ss, yy, sy, prev, index)

        assert step(SteplengthPolicy.long()) == ss / sy
        assert step(SteplengthPolicy.short()) == sy / yy
        assert step(SteplengthPolicy.family(2.0)) == kernels.family_step(ss, yy, sy, 2.0)
        assert step(SteplengthPolicy.family_prime(2.0)) == kernels.family_prime_step(
            ss, yy, sy, 2.0
        )
        assert step(SteplengthPolicy.convex(0.4)) == 0.4 * (ss / sy) + (1.0 - 0.4) * (sy / yy)
        assert step(SteplengthPolicy.adaptive_cyclic(3), index=2) == kernels.atc_step(
            ss, yy, sy, 0.5, 2, 3
        )


class TestHouseholder:
    def test_hessian_apply_matches_dense_product(self, rng):
        n = 14
        ws = [u / np.linalg.norm(u) for u in rng.standard_normal((3, n))]
        v = np.sort(rng.uniform(1.0, 50.0, n))
        eye = np.eye(n)
        q = eye - 2.0 * np.outer(ws[2], ws[2])
        q = q @ (eye - 2.0 * np.outer(ws[1], ws[1]))
        q = q @ (eye - 2.0 * np.outer(ws[0], ws[0]))
        dense = q @ np.diag(v) @ q.T
        for _ in range(10):
            x = rng.standard_normal(n)
            fast = kernels.hessian_apply(ws[0], ws[1], ws[2], v, x.copy())
            assert fast == pytest.approx(dense @ x, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("rows", [1, 2, 16])
    def test_shared_vectors_give_each_rows_product(self, rng, rows):
        # one set of 1-D vectors for every row, as the line search's trial
        # rounds pass them; a block of one must not index into them
        n = 50
        ws = [u / np.linalg.norm(u) for u in rng.standard_normal((3, n))]
        v = np.sort(rng.uniform(1.0, 1e4, n))
        xs = rng.standard_normal((rows, n))
        block = kernels.hessian_apply(ws[0], ws[1], ws[2], v, xs)
        assert block.shape == (rows, n)
        for got, x in zip(block, xs):
            assert np.array_equal(got, kernels.hessian_apply(ws[0], ws[1], ws[2], v, x))


def tiny_instance(rng, n=12, kappa=100.0, v=None):
    ws = [u / np.linalg.norm(u) for u in rng.standard_normal((3, n))]
    v = np.sort(rng.uniform(1.0, kappa, n)) if v is None else v
    b = rng.uniform(-10.0, 10.0, n)
    return QuadraticInstance(n, ws[0], ws[1], ws[2], v, b)


class TestRowDots:
    @pytest.mark.parametrize("n", [3, 100, 1000])
    def test_vecdot_rounds_like_the_1d_dot(self, rng, n):
        # the lock-step raw loop relies on this to reproduce every row's
        # run alone bit for bit; a numpy or BLAS change that breaks it
        # fails here rather than as a changed iteration count.  The second
        # block starts one element into its buffer, off the alignment of
        # a fresh array
        ys = rng.standard_normal((5, n))
        for xs in (rng.standard_normal((5, n)), rng.standard_normal(5 * n + 1)[1:]):
            xs = xs.reshape(5, n)
            want = np.array([x @ y for x, y in zip(xs, ys)])
            assert np.array_equal(np.vecdot(xs, ys), want)


class TestRawLoop:
    def run_tiny(self, rng, max_iter=500):
        inst = tiny_instance(rng)
        (out,) = kernels.raw_bb_loop([inst], [SteplengthPolicy.long()], [np.ones(12)],
                                     [0.01], 1e-10, max_iter)
        return inst, out

    def test_histories_align(self, rng):
        inst, out = self.run_tiny(rng)
        termination, f_hist, g_hist, a_hist, x = out
        assert termination == GRADIENT_TOLERANCE
        assert len(f_hist) == len(g_hist) == len(a_hist)
        ws, v, b = (inst.w1, inst.w2, inst.w3), inst.eigenvalues, inst.linear
        g0 = kernels.hessian_apply(ws[0], ws[1], ws[2], v, np.ones(12)) - b
        assert g_hist[0] == pytest.approx(np.linalg.norm(g0), rel=1e-14)
        assert f_hist[0] == pytest.approx(0.5 * float(np.ones(12) @ (g0 - b)), rel=1e-14)
        assert a_hist[0] == 0.01
        assert math.isnan(a_hist[-1])
        assert g_hist[-1] <= 1e-10 * g_hist[0]
        gx = kernels.hessian_apply(ws[0], ws[1], ws[2], v, x) - b
        assert np.linalg.norm(gx) == pytest.approx(g_hist[-1], rel=1e-6, abs=1e-18)

    def test_x0_is_not_modified(self, rng):
        insts = [tiny_instance(rng), tiny_instance(rng)]
        x0 = np.ones((2, 12))
        kernels.raw_bb_loop(insts, [SteplengthPolicy.long()] * 2, x0, [0.01, 0.02],
                            1e-10, 50)
        assert np.all(x0 == 1.0)

    def test_identity_spectrum_finishes_in_two_steps(self):
        # with A = I the first BB steplength is exactly 1 and the second
        # step lands on the minimizer, whatever alpha0 was
        n = 8
        e1 = np.zeros(n)
        e1[0] = 1.0
        b = np.linspace(-1.0, 2.5, n)
        inst = QuadraticInstance(n, e1, e1, e1, np.ones(n), b)
        ((termination, f_hist, g_hist, a_hist, x),) = kernels.raw_bb_loop(
            [inst], [SteplengthPolicy.long()], [np.zeros(n)], [0.3], 1e-12, 50
        )
        assert termination == GRADIENT_TOLERANCE
        assert len(g_hist) == 3
        assert g_hist[-1] == 0.0
        assert a_hist[1] == 1.0
        assert x == pytest.approx(b, abs=1e-15)

    def test_iteration_cap(self, rng):
        _, out = self.run_tiny(rng, max_iter=3)
        termination, f_hist, g_hist, a_hist, _ = out
        assert termination == ITERATION_CAP
        assert len(g_hist) == 4
        assert math.isnan(a_hist[-1])
        assert g_hist[-1] > 0.0


class TestLockStep:
    DESCRIPTORS = ("bb1", "bb2", "gamma:1", "gamma:20", "gammaPrime:0.5", "tau:0.3", "atc:4")

    def mixed_block(self, rng):
        # seven converging rows, one that runs into the cap and one whose
        # first Hessian product overflows
        n = 30
        insts = [tiny_instance(rng, n, kappa) for kappa in (10, 30, 50, 100, 200, 300, 500)]
        policies = [parse_policy(d) for d in self.DESCRIPTORS]
        insts.append(tiny_instance(rng, n, v=np.geomspace(1.0, 1e8, n)))
        policies.append(parse_policy("bb2"))
        insts.append(tiny_instance(rng, n, 1e300))
        policies.append(parse_policy("gamma:1"))
        x0 = rng.uniform(-1.0, 1.0, (len(insts), n))
        alpha0 = rng.uniform(1e-3, 1e-2, len(insts))
        x0[-1] = 1e10
        alpha0[-1] = 1.0
        return insts, policies, x0, alpha0

    def test_block_equals_its_rows_alone(self, rng):
        # rows leave the block at different steps and must not disturb the
        # rows that go on
        insts, policies, x0, alpha0 = self.mixed_block(rng)
        block = kernels.raw_bb_loop(insts, policies, x0, alpha0, 1e-8, 400)
        terminations = [row[0] for row in block]
        assert terminations[:7] == [GRADIENT_TOLERANCE] * 7
        assert terminations[7:] == [ITERATION_CAP, NONFINITE]
        assert len({len(row[1]) for row in block}) > 5  # rows leave at many steps
        for i, row in enumerate(block):
            (alone,) = kernels.raw_bb_loop([insts[i]], [policies[i]], x0[i:i + 1],
                                           alpha0[i:i + 1], 1e-8, 400)
            assert row[0] == alone[0]
            for got, want in zip(row[1:], alone[1:]):
                assert np.array_equal(got, want, equal_nan=True)

    # per-row tolerances; the capped row (7) keeps 1e-8
    EPSILONS = (1e-8, 1e-4, 1e-12, 1e-6, 1e-4, 1e-12, 1e-6, 1e-8, 1e-4)

    def test_per_row_eps_equals_scalar_eps_alone(self, rng):
        insts, policies, x0, alpha0 = self.mixed_block(rng)
        block = kernels.raw_bb_loop(insts, policies, x0, alpha0, self.EPSILONS, 400)
        assert {row[0] for row in block} == {GRADIENT_TOLERANCE, ITERATION_CAP, NONFINITE}
        for i, (row, eps) in enumerate(zip(block, self.EPSILONS)):
            (alone,) = kernels.raw_bb_loop([insts[i]], [policies[i]], x0[i:i + 1],
                                           alpha0[i:i + 1], eps, 400)
            assert row[0] == alone[0]
            for got, want in zip(row[1:], alone[1:]):
                assert np.array_equal(got, want, equal_nan=True)

    def test_history_free_rows_equal_recorded_rows(self, rng):
        insts, policies, x0, alpha0 = self.mixed_block(rng)
        recorded = kernels.raw_bb_loop(insts, policies, x0, alpha0, self.EPSILONS, 400)
        bare = kernels.raw_bb_loop(insts, policies, x0, alpha0, self.EPSILONS, 400,
                                   history=False)
        assert [row[0] for row in bare][7:] == [ITERATION_CAP, NONFINITE]
        assert len({row[1] for row in bare}) > 5  # rows leave at many steps
        for (termination, f_hist, _, _, x), got in zip(recorded, bare):
            assert got[0] == termination
            assert got[1] == len(f_hist) - 1
            assert got[2].tobytes() == x.tobytes()

    def test_overflow_raises_no_warning(self, rng):
        inst = tiny_instance(rng, 30, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ((termination, *_),) = kernels.raw_bb_loop(
                [inst], [SteplengthPolicy.long()], [np.full(30, 1e10)], [1.0], 1e-8, 50
            )
        assert termination == NONFINITE
