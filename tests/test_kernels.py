"""Kernel-level checks: closed forms, the policy dispatch, the Householder
Hessian product, row dots, and the lock-step raw BB loop."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from stlsbb import (
    GRADIENT_TOLERANCE,
    ITERATION_CAP,
    QuadraticInstance,
    SolverConfig,
    StepPair,
    SteplengthPolicy,
    alpha_family_prime,
    kernels,
    parse_policy,
    quadratic,
)
from stlsbb import run as solver_run
from stlsbb.solver import STOP_GRAD_REL
from stlsbb.trace import NONFINITE

from conftest import random_pair, raw_results


def scalars(pair):
    return pair.ss, pair.yy, pair.sy


def policy_step(policy, ss, yy, sy, prev=0.5, index=0):
    return kernels.policy_step(policy, ss, yy, sy, prev, index)


class TestScalarKernels:
    def test_bb_steps_are_the_ratios(self, rng):
        for _ in range(50):
            ss, yy, sy = scalars(random_pair(rng))
            assert policy_step(SteplengthPolicy("bb1"), ss, yy, sy) == ss / sy
            assert policy_step(SteplengthPolicy("bb2"), ss, yy, sy) == sy / yy

    def test_convex_step(self, rng):
        ss, yy, sy = scalars(random_pair(rng))
        for tau in (0.0, 0.25, 1.0):
            want = tau * (ss / sy) + (1.0 - tau) * (sy / yy)
            assert policy_step(SteplengthPolicy("tau", tau=tau), ss, yy, sy) == want

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


def written_out_family_step(ss, yy, sy, gamma):
    # family_step with the scaled-TLS fit written out: the reference whose
    # bits the shared fit must give
    ti = 1.0 / gamma
    t = ti * ti
    d = ss - yy * t
    e = 4.0 * sy * sy * t
    r = math.hypot(d, 2.0 * sy * math.sqrt(t))
    if d > 0.0:
        num = d + r
    else:
        rd = r - d
        if e == math.inf or rd == math.inf:
            return sy / yy
        num = e / rd
    return num / (2.0 * sy)


def written_out_family_prime_step(ss, yy, sy, gamma):
    # family_prime_step with the scaled-TLS fit written out: the reference
    # whose bits the shared fit must give
    ti = 1.0 / gamma
    t = ti * ti
    d = yy - ss * t
    e = 4.0 * sy * sy * t
    r = math.hypot(d, 2.0 * sy * math.sqrt(t))
    if d > 0.0:
        den = d + r
    else:
        rd = r - d
        if e == math.inf or rd == math.inf:
            return ss / sy
        den = e / rd
    return 2.0 * sy / den


class TestSharedFamilyFit:
    def test_family_kernels_keep_their_bits(self):
        # the two family kernels share one scaled-TLS fit; over ss and yy
        # across 1e+-150, s'y = c sqrt(ss yy) with c in [1e-6, 1] and gamma
        # across 1e+-300 (both overflow branches included) they give the
        # written-out formulas' bits
        rng = np.random.default_rng(20261020)
        draws = 100_000
        ss = 10.0 ** rng.uniform(-150, 150, draws)
        yy = 10.0 ** rng.uniform(-150, 150, draws)
        sy = rng.uniform(1e-6, 1.0, draws) * np.sqrt(ss * yy)
        gamma = 10.0 ** rng.uniform(-300, 300, draws)
        gamma[:4] = (5e-324, 1e-160, 1e160, 1.7976931348623157e308)
        rows = list(zip(ss.tolist(), yy.tolist(), sy.tolist(), gamma.tolist()))
        for kernel, written in ((kernels.family_step, written_out_family_step),
                                (kernels.family_prime_step, written_out_family_prime_step)):
            got = np.array([kernel(*row) for row in rows])
            want = np.array([written(*row) for row in rows])
            assert got.tobytes() == want.tobytes(), kernel.__name__


class TestPolicyDispatch:
    def test_dispatch_equals_direct_kernels(self, rng):
        ss, yy, sy = scalars(random_pair(rng))

        def step(policy, prev=0.5, index=0):
            return policy_step(policy, ss, yy, sy, prev, index)

        assert step(SteplengthPolicy("bb1")) == ss / sy
        assert step(SteplengthPolicy("bb2")) == sy / yy
        assert step(SteplengthPolicy("gamma", gamma=2.0)) == kernels.family_step(ss, yy, sy, 2.0)
        assert step(SteplengthPolicy("gamma_prime", gamma=2.0)) == kernels.family_prime_step(
            ss, yy, sy, 2.0
        )
        assert step(SteplengthPolicy("tau", tau=0.4)) == 0.4 * (ss / sy) + (1.0 - 0.4) * (sy / yy)
        assert step(SteplengthPolicy("atc", cycle=3), index=2) == kernels.atc_step(
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


def reference_product(w1, w2, w3, v, x):
    # Q diag(v) Q' x written out: one vector at a time, a fresh array for
    # every temporary.  The first dot reads x in its own layout, as the
    # kernel does: a strided dot may round unlike one on a contiguous copy
    u = x
    for w in (w3, w2, w1):
        u = u - (2.0 * np.dot(w, u)) * w
    u = u * v
    for w in (w1, w2, w3):
        u = u - (2.0 * np.dot(w, u)) * w
    return u


def unit_rows(rng, shape):
    u = rng.standard_normal(shape)
    return u / np.linalg.norm(u, axis=-1, keepdims=True)


class TestHessianApplyReference:
    """hessian_apply against reference_product, bit for bit; it reads its
    inputs only and returns a fresh array."""

    @pytest.mark.parametrize("n", [1, 7, 1000])
    def test_vector(self, rng, n):
        w1, w2, w3 = unit_rows(rng, (3, n))
        v = rng.uniform(1.0, 1e4, n)
        for x in (rng.standard_normal(n), 1e3 * rng.standard_normal(n)):
            keep = x.copy()
            got = kernels.hessian_apply(w1, w2, w3, v, x)
            assert np.array_equal(got, reference_product(w1, w2, w3, v, x))
            assert np.array_equal(x, keep)

    @pytest.mark.parametrize("n", [40, 300])
    @pytest.mark.parametrize("rows", [1, 3, 29])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-w", "per-row-w"])
    def test_block(self, rng, rows, shared, n):
        # rows of 300 doubles run with kernels._WIDE_ROW ufunc buffers
        if shared:
            ws = unit_rows(rng, (3, n))
            v = rng.uniform(1.0, 1e4, n)
            row_args = [(*ws, v)] * rows
        else:
            ws = unit_rows(rng, (3, rows, n))
            v = rng.uniform(1.0, 1e4, (rows, n))
            row_args = list(zip(*ws, v))
        xs = rng.standard_normal((rows, n))
        keep = xs.copy()
        got = kernels.hessian_apply(*ws, v, xs)
        want = [reference_product(*args, x) for args, x in zip(row_args, xs)]
        assert got.shape == (rows, n)
        assert np.array_equal(got, want)
        assert np.array_equal(xs, keep)

    @pytest.mark.parametrize("n", [30, 100, 200])
    @pytest.mark.parametrize("rows", [2, 29, 96])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-w", "per-row-w"])
    def test_narrow_block_bytes_equal_its_rows_alone(self, rng, rows, shared, n):
        # rows shorter than kernels._WIDE_ROW: with per-row w each pass
        # scales a (rows, n) buffer holding its column of 2 w'u by w in
        # place, and with shared w it broadcasts the column.  Either way
        # the bytes are each row's 1-D product's, nan payloads and signed
        # zeros included, with no warning under the raw loop's errstate
        ws = unit_rows(rng, (3, n) if shared else (3, rows, n))
        v = rng.uniform(1.0, 1e4, n if shared else (rows, n))
        row_args = [(*ws, v)] * rows if shared else list(zip(*ws, v))
        nan = np.array([0x7FF8_0000_0000_0123], dtype=np.uint64).view(float)[0]
        specials = {"nan": [nan], "inf": [np.inf, -np.inf], "negative-zero": [-0.0] * n,
                    "zero": [0.0] * n, "huge": [1e300, -1e300]}
        for name, entries in specials.items():
            xs = rng.standard_normal((rows, n))
            xs[rows // 2, :len(entries)] = entries
            with warnings.catch_warnings(), np.errstate(**kernels._QUIET):
                warnings.simplefilter("error")
                got = kernels.hessian_apply(*ws, v, xs)
                want = np.stack([kernels.hessian_apply(*args, x) for args, x in zip(row_args, xs)])
            assert got.tobytes() == want.tobytes(), name

    def test_read_only_and_strided_inputs(self, rng):
        n = 25
        ws = unit_rows(rng, (3, n))
        v = rng.uniform(1.0, 1e4, n)
        big = rng.standard_normal((6, 2 * n))
        big.setflags(write=False)
        for x in (big[0, :n], big[0, ::2], big[:, ::2], big[::2, 1::2],
                  np.asfortranarray(big[:, :n])):
            got = kernels.hessian_apply(*ws, v, x)
            want = (reference_product(*ws, v, x) if x.ndim == 1 else
                    [reference_product(*ws, v, row) for row in x])
            assert np.array_equal(got, want)
            assert got.flags.writeable and got.flags.c_contiguous

    def test_results_are_fresh_arrays(self, rng):
        n = 30
        ws = unit_rows(rng, (3, n))
        v = rng.uniform(1.0, 1e4, n)
        for x in (rng.standard_normal(n), rng.standard_normal((1, n)),
                  rng.standard_normal((4, n))):
            first = kernels.hessian_apply(*ws, v, x)
            keep = first.copy()
            second = kernels.hessian_apply(*ws, v, 2.0 * x)
            assert np.array_equal(first, keep)
            assert not np.shares_memory(first, second)
            assert not np.shares_memory(first, x)

    @pytest.mark.parametrize("rows, n", [(128, 256), (129, 256), (40, 1000)])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-w", "per-row-w"])
    def test_wide_blocks_on_both_sides_of_the_work_array(self, rng, rows, n, shared):
        # (128, 256) fills kernels._BLOCK_DOUBLES exactly and takes the
        # work array; the larger blocks run without it, to the same bits
        ws = unit_rows(rng, (3, n) if shared else (3, rows, n))
        v = rng.uniform(1.0, 1e4, n if shared else (rows, n))
        xs = rng.standard_normal((rows, n))
        got = kernels.hessian_apply(*ws, v, xs)
        if shared:
            want = [reference_product(*ws, v, x) for x in xs]
        else:
            want = [reference_product(*args, x) for *args, x in zip(*ws, v, xs)]
        assert np.array_equal(got, want)

    def test_wide_results_never_share_the_work_array(self, rng):
        n = 2 * kernels._WIDE_ROW
        ws = unit_rows(rng, (3, n))
        v = rng.uniform(1.0, 1e4, n)
        big = rng.standard_normal((8, 2 * n))
        first = kernels.hessian_apply(*ws, v, big[:4, :n])
        keep = first.copy()
        second = kernels.hessian_apply(*ws, v, big[:, ::2])
        assert np.array_equal(first, keep)
        for got in (first, second):
            assert got.flags.c_contiguous and got.flags.owndata
            assert not np.shares_memory(got, kernels._work.buf)
        assert not np.shares_memory(first, second)

    @pytest.mark.parametrize("n", [300, 2 * kernels._BLOCK_DOUBLES + 3])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared-w", "per-row-w"])
    def test_empty_wide_block(self, rng, n, shared):
        # a block of no rows, as eval_rows may be given, comes back empty
        ws = unit_rows(rng, (3, n) if shared else (3, 0, n))
        v = rng.uniform(1.0, 1e4, n if shared else (0, n))
        got = kernels.hessian_apply(*ws, v, np.empty((0, n)))
        assert got.shape == (0, n)

    def test_warm_wide_block_allocates_only_its_result(self, rng):
        # the line search's (29, 1000) rounds with shared w: each c w term
        # goes to the work array, so the product's peak is its result
        n = 1000
        ws = unit_rows(rng, (3, n))
        v = rng.uniform(1.0, 1e4, n)
        xs = rng.standard_normal((29, n))
        kernels.hessian_apply(*ws, v, xs)  # the thread's work array exists
        tracemalloc.start()
        try:
            got = kernels.hessian_apply(*ws, v, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * got.nbytes

    def test_threads_running_wide_products(self, rng):
        # each thread has its own work array: six threads interleaving
        # products of different blocks, two of them rows longer than the
        # work array that run through it in slices, get the serial results
        # bit for bit
        n = 600
        jobs = [(unit_rows(rng, (3, n)), rng.uniform(1.0, 1e4, n),
                 rng.standard_normal((rows, n))) for rows in (29, 7, 16, 3)]
        long = 2 * kernels._BLOCK_DOUBLES + 3
        jobs += [(unit_rows(rng, (3, long)), rng.uniform(1.0, 1e4, long),
                  rng.standard_normal(long)),
                 (unit_rows(rng, (3, 1, long)), rng.uniform(1.0, 1e4, (1, long)),
                  rng.standard_normal((1, long)))]
        want = [kernels.hessian_apply(*ws, v, xs) for ws, v, xs in jobs]
        results = [[] for _ in jobs]

        def repeat(i):
            ws, v, xs = jobs[i]
            for _ in range(100):
                results[i].append(kernels.hessian_apply(*ws, v, xs))

        threads = [threading.Thread(target=repeat, args=(i,)) for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, w in zip(results, want):
            assert len(got) == 100
            assert all(np.array_equal(r, w) for r in got)

    @pytest.mark.parametrize("x_lead, w_lead", [((), ()), ((1,), ()), ((1,), (1,))],
                             ids=["vector", "block-of-one-shared-w", "block-of-one-per-row-w"])
    @pytest.mark.parametrize("n", [63, 64, 65, 128, 131])
    def test_long_rows_equal_the_unsliced_product(self, rng, monkeypatch, x_lead, w_lead, n):
        # with a 64-double work array, rows of 63 and 64 run whole and rows
        # of 65, 128 and 131 run in slices of 64 (the last one short); every
        # dot still reads the whole row, so the bits are the unsliced ones
        monkeypatch.setattr(kernels, "_BLOCK_DOUBLES", 64)
        ws = unit_rows(rng, (3, *w_lead, n))
        v = rng.uniform(1.0, 1e4, (*w_lead, n))
        x = rng.standard_normal((*x_lead, n))
        keep = x.copy()
        got = kernels.hessian_apply(*ws, v, x)
        work = getattr(kernels._work, "buf", None)
        assert n <= 64 or work.size == 64
        assert work is None or not np.shares_memory(got, work)
        args = [a.reshape(-1) for a in (*ws, v)]
        want = reference_product(*args, x.reshape(-1)).reshape(x.shape)
        assert got.tobytes() == want.tobytes() and got.shape == x.shape
        monkeypatch.undo()
        assert got.tobytes() == kernels.hessian_apply(*ws, v, x).tobytes()
        assert np.array_equal(x, keep)
        assert got.flags.c_contiguous and got.flags.writeable

    @pytest.mark.parametrize("lead", [(), (1,)], ids=["vector", "block-of-one"])
    def test_warm_long_product_allocates_only_its_result(self, rng, lead):
        # a row longer than the work array runs in slices through it: the
        # product's peak is its result and a few array headers
        n = 2 * kernels._BLOCK_DOUBLES + 3
        ws = unit_rows(rng, (3, n))
        v = rng.uniform(1.0, 1e4, n)
        x = rng.standard_normal((*lead, n))
        kernels.hessian_apply(*ws, v, x)  # the thread's work array exists
        tracemalloc.start()
        try:
            got = kernels.hessian_apply(*ws, v, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= got.nbytes + 4096

    def test_wide_blocks_leave_numpy_settings_alone(self, rng):
        # the buffer size of a wide block's product is scoped to the call;
        # the caller's buffer size and error handling hold before and after
        n = 2 * kernels._WIDE_ROW
        ws = unit_rows(rng, (3, n))
        v = rng.uniform(1.0, 1e4, n)
        xs = rng.standard_normal((4, n))
        with np.errstate(over="ignore", divide="raise"):
            np.setbufsize(4096)
            before = np.geterr()
            got = kernels.hessian_apply(*ws, v, xs)
            assert (np.getbufsize(), np.geterr()) == (4096, before)
        assert np.array_equal(got, [reference_product(*ws, v, x) for x in xs])

    def test_eval_rows_gradients_are_fresh_arrays(self, rng):
        inst = tiny_instance(rng, n=30)
        eval_rows = quadratic.as_objective(inst).eval_rows
        xs = rng.standard_normal((4, 30))
        keep = xs.copy()
        f1, g1 = eval_rows(xs)
        g1_keep = g1.copy()
        f2, g2 = eval_rows(xs)
        assert np.array_equal(xs, keep)
        assert np.array_equal(g1, g1_keep) and np.array_equal(g2, g1_keep)
        assert np.array_equal(f1, f2)
        for a, b in ((g1, xs), (g2, xs), (g1, g2), (g1, inst.linear)):
            assert not np.shares_memory(a, b)
        for x, f, g in zip(xs, f1, g1):
            ax = reference_product(inst.w1, inst.w2, inst.w3, inst.eigenvalues, x)
            assert np.array_equal(g, ax - inst.linear)
            assert f == 0.5 * np.dot(x, ax) - np.dot(x, inst.linear)


class TestTrialRows:
    @pytest.mark.parametrize("n", [2, 100, 2 * kernels._WIDE_ROW])
    @pytest.mark.parametrize("rows", [1, 2, 29])
    def test_rows_round_as_each_step_alone(self, rng, rows, n):
        x, g = rng.standard_normal((2, n))
        steps = rng.uniform(1e-3, 1e3, rows)
        keep = x.copy(), g.copy()
        got = kernels.trial_rows(x, g, steps)
        assert got.shape == (rows, n)
        assert np.array_equal(got, [x - a * g for a in steps])
        assert np.array_equal(x, keep[0]) and np.array_equal(g, keep[1])

    def test_wide_rows_leave_numpy_settings_alone(self, rng):
        n = 2 * kernels._WIDE_ROW
        x, g = rng.standard_normal((2, n))
        with np.errstate(over="ignore", divide="raise"):
            np.setbufsize(4096)
            before = np.geterr()
            kernels.trial_rows(x, g, np.array([1.0, 0.5, 0.25]))
            assert (np.getbufsize(), np.geterr()) == (4096, before)


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


def raw_rows(insts, policies, x0, alpha0, eps, max_iter):
    # one raw_bb_loop row per instance; a scalar eps or max_iter is every row's
    eps = eps if np.ndim(eps) else [eps] * len(insts)
    caps = max_iter if np.ndim(max_iter) else [max_iter] * len(insts)
    return list(zip(insts, policies, x0, alpha0, eps, caps))


class TestRawLoop:
    def run_tiny(self, rng, max_iter=500):
        inst = tiny_instance(rng)
        (out,) = raw_results(
            [(inst, SteplengthPolicy("bb1"), np.ones(12), 0.01, 1e-10, max_iter)], 1)
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
        # the last entry is the proposal no step takes: bb1 at the last pair
        assert 0.0 < a_hist[-1] < math.inf
        assert g_hist[-1] <= 1e-10 * g_hist[0]
        gx = kernels.hessian_apply(ws[0], ws[1], ws[2], v, x) - b
        assert np.linalg.norm(gx) == pytest.approx(g_hist[-1], rel=1e-6, abs=1e-18)

    def test_x0_is_not_modified(self, rng):
        insts = [tiny_instance(rng), tiny_instance(rng)]
        x0 = np.ones((2, 12))
        raw_results(
            raw_rows(insts, [SteplengthPolicy("bb1")] * 2, x0, [0.01, 0.02], 1e-10, 50), 2)
        assert np.all(x0 == 1.0)

    def test_identity_spectrum_finishes_in_two_steps(self):
        # with A = I the first BB steplength is exactly 1 and the second
        # step lands on the minimizer, whatever alpha0 was
        n = 8
        e1 = np.zeros(n)
        e1[0] = 1.0
        b = np.linspace(-1.0, 2.5, n)
        inst = QuadraticInstance(n, e1, e1, e1, np.ones(n), b)
        ((termination, f_hist, g_hist, a_hist, x),) = raw_results(
            [(inst, SteplengthPolicy("bb1"), np.zeros(n), 0.3, 1e-12, 50)], 1
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
        assert 0.0 < a_hist[-1] < math.inf  # the proposal the cap left untaken
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
        block = raw_results(raw_rows(insts, policies, x0, alpha0, 1e-8, 400), len(insts))
        terminations = [row[0] for row in block]
        assert terminations[:7] == [GRADIENT_TOLERANCE] * 7
        assert terminations[7:] == [ITERATION_CAP, NONFINITE]
        assert len({len(row[1]) for row in block}) > 5  # rows leave at many steps
        for i, row in enumerate(block):
            (alone,) = raw_results(
                [(insts[i], policies[i], x0[i], alpha0[i], 1e-8, 400)], 1)
            assert row[0] == alone[0]
            for got, want in zip(row[1:], alone[1:]):
                assert np.array_equal(got, want, equal_nan=True)

    # per-row tolerances; the capped row (7) keeps 1e-8
    EPSILONS = (1e-8, 1e-4, 1e-12, 1e-6, 1e-4, 1e-12, 1e-6, 1e-8, 1e-4)

    def test_per_row_eps_equals_scalar_eps_alone(self, rng):
        insts, policies, x0, alpha0 = self.mixed_block(rng)
        block = raw_results(
            raw_rows(insts, policies, x0, alpha0, self.EPSILONS, 400), len(insts))
        assert {row[0] for row in block} == {GRADIENT_TOLERANCE, ITERATION_CAP, NONFINITE}
        for i, (row, eps) in enumerate(zip(block, self.EPSILONS)):
            (alone,) = raw_results(
                [(insts[i], policies[i], x0[i], alpha0[i], eps, 400)], 1)
            assert row[0] == alone[0]
            for got, want in zip(row[1:], alone[1:]):
                assert np.array_equal(got, want, equal_nan=True)

    def test_history_free_rows_equal_recorded_rows(self, rng):
        insts, policies, x0, alpha0 = self.mixed_block(rng)
        rows = raw_rows(insts, policies, x0, alpha0, self.EPSILONS, 400)
        recorded = raw_results(rows, len(rows))
        bare = raw_results(rows, len(rows), history=False)
        assert [row[0] for row in bare][7:] == [ITERATION_CAP, NONFINITE]
        assert len({row[1] for row in bare}) > 5  # rows leave at many steps
        for (termination, f_hist, *_), got in zip(recorded, bare):
            assert got == (termination, len(f_hist) - 1)

    def test_warm_count_only_block_holds_no_x_or_b(self, rng):
        # a count-only block carries no x and no b, so a warm call's peak
        # is at least two (rows, n) arrays below the recording call's
        n, width = 200, 8
        insts = [tiny_instance(rng, n, kappa) for kappa in np.geomspace(10.0, 1e3, width)]
        rows = raw_rows(insts, [parse_policy("bb1")] * width, rng.uniform(-1.0, 1.0, (width, n)),
                        [None] * width, 1e-12, 3)

        def peak(history):
            raw_results(rows, width, history)
            tracemalloc.start()
            try:
                results = raw_results(rows, width, history)
                return tracemalloc.get_traced_memory()[1], results
            finally:
                tracemalloc.stop()

        bare, counts = peak(False)
        recorded, results = peak(True)
        assert counts == [(ITERATION_CAP, 3)] * width
        assert [r[0] for r in results] == [ITERATION_CAP] * width
        assert bare <= recorded - 2 * width * n * 8

    def test_overflow_raises_no_warning(self, rng):
        inst = tiny_instance(rng, 30, 1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ((termination, *_),) = raw_results(
                [(inst, SteplengthPolicy("bb1"), np.full(30, 1e10), 1.0, 1e-8, 50)], 1
            )
        assert termination == NONFINITE


class TestRefill:
    """Rows taken from the iterable as slots free up: each must run as it
    runs alone, whichever slot it lands in and whoever held it before."""

    def rows(self, rng):
        n = 30
        # (instance, policy, eps, max_iter); row 0 overflows on its first
        # step, row 1 caps at 5, row 9 overflows before its first step
        spec = [
            (tiny_instance(rng, n, 1e300), "gamma:1", 1e-8, 400),
            (tiny_instance(rng, n, v=np.geomspace(1.0, 1e8, n)), "bb2", 1e-8, 5),
            (tiny_instance(rng, n, 100), "bb1", 1e-12, 400),
            (tiny_instance(rng, n, 300), "gamma:20", 1e-12, 400),
            (tiny_instance(rng, n, 50), "tau:0.3", 1e-10, 400),
            (tiny_instance(rng, n, 200), "atc:3", 1e-12, 400),
            (tiny_instance(rng, n, 500), "gammaPrime:0.5", 1e-12, 7),
            (tiny_instance(rng, n, 30), "atc:4", 1e-6, 400),
            (tiny_instance(rng, n, 10), "bb2", 1e-4, 400),
            (tiny_instance(rng, n, 1e300), "bb1", 1e-8, 400),
            (tiny_instance(rng, n, 100), "gamma:1", 1e-8, 400),
        ]
        x0 = rng.uniform(-1.0, 1.0, (len(spec), n))
        alpha0 = rng.uniform(1e-3, 1e-2, len(spec))
        x0[0], alpha0[0] = 1e-160, 1.0
        x0[9], alpha0[9] = 1e10, 1.0
        return [(inst, parse_policy(pol), x, a, eps, cap)
                for (inst, pol, eps, cap), x, a in zip(spec, x0, alpha0)]

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_every_row_runs_as_it_runs_alone(self, rng, width):
        rows = self.rows(rng)
        outside = np.geterr()
        ended = []  # rows that have left, in order
        taken = []  # (rows ended, errstate) as each row is taken
        got = {}

        def lazy():
            for row in rows:
                taken.append((set(ended), np.geterr()))
                yield row

        def on_end(j, result):
            assert np.geterr() == outside
            ended.append(j)
            got[j] = result

        assert kernels.raw_bb_loop(lazy(), width, on_end) is None
        assert sorted(ended) == list(range(len(rows)))
        assert all(errstate == outside for _, errstate in taken)
        # the slots left by the nonfinite row, then by the capped row, are
        # the first to be taken again
        assert [before for before, _ in taken[:width]] == [set()] * width
        assert taken[width][0] == {0} and taken[width + 1][0] == {0, 1}
        if width > 1:
            # row 5 (atc:3) joins rows already some steps in
            before = taken[5][0]
            assert before and not set(range(5)) <= before
        for j, (inst, policy, x0, alpha0, eps, cap) in enumerate(rows):
            termination, f_hist, g_hist, a_hist, x = got[j]
            alone = quadratic.solve_bb(inst, policy, eps, cap, x0=x0, alpha0=alpha0)
            assert termination == alone.termination
            # the trace writes nan over the proposal no step takes
            a_hist = a_hist[:-1] + [math.nan]
            for hist, column in zip((f_hist, g_hist, a_hist), ("f", "grad_norm", "alpha")):
                want = [getattr(r, column) for r in alone.rows]
                assert np.array(hist).tobytes() == np.array(want).tobytes()
            assert x.tobytes() == alone.final_x.tobytes()
        terminations = [got[j][0] for j in range(len(rows))]
        assert terminations[:2] == [NONFINITE, ITERATION_CAP]
        assert terminations[6] == ITERATION_CAP and len(got[6][1]) == 8  # its own cap
        assert terminations[9] == NONFINITE and len(got[9][1]) == 1
        assert terminations.count(GRADIENT_TOLERANCE) == 7

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_history_free_rows_count_what_recorded_rows_count(self, rng, width):
        rows = self.rows(rng)
        recorded = raw_results(rows, width)
        bare = raw_results(iter(rows), width, history=False)
        assert len(bare) == len(rows)
        for (termination, f_hist, *_), got in zip(recorded, bare):
            # a count-only row carries no x, so its result has none
            assert got == (termination, len(f_hist) - 1)

    def test_empty_rows(self):
        ended = []
        assert kernels.raw_bb_loop([], 3, lambda j, result: ended.append(j)) is None
        assert ended == []


class TestLongRowRuns:
    """Whole runs with kernels._BLOCK_DOUBLES patched to 64, so rows of 131
    doubles take every Hessian product and raw step in slices of the work
    array: each run gives the bits it gives with the default work array,
    which holds the row whole, and none prints a RuntimeWarning."""

    N = 131
    POLICIES = ("bb1", "bb2", "gamma:1", "gammaPrime:0.5", "tau:0.3", "atc:3")

    def rows(self, rng):
        # (instance, policy, x0, alpha0, eps, max_iter) rows for the raw
        # loop: row 0 overflows on its first step and ends nonfinite,
        # row 1 runs into its cap
        n = self.N
        insts = [tiny_instance(rng, n, 1e300), tiny_instance(rng, n, v=np.geomspace(1.0, 1e8, n))]
        insts += [tiny_instance(rng, n, kappa) for kappa in (100, 1e4, 50, 300)]
        x0 = rng.uniform(-1.0, 1.0, (len(insts), n))
        alpha0 = rng.uniform(1e-3, 1e-2, len(insts))
        x0[0], alpha0[0] = 1e-160, 1.0
        caps = [400, 5, 400, 400, 400, 400]
        return [(inst, parse_policy(pol), x, a, 1e-10, cap)
                for inst, pol, x, a, cap in zip(insts, self.POLICIES, x0, alpha0, caps)]

    def both(self, monkeypatch, run):
        # run() with the default work array, then with one of 64 doubles
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            whole = run()
            monkeypatch.setattr(kernels, "_BLOCK_DOUBLES", 64)
            sliced = run()
        monkeypatch.undo()
        return whole, sliced

    def test_solve_bb(self, rng, monkeypatch):
        rows = self.rows(rng)

        def run():
            return [quadratic.solve_bb(inst, policy, eps, cap, x0=x0, alpha0=alpha0)
                    for inst, policy, x0, alpha0, eps, cap in rows]

        whole, sliced = self.both(monkeypatch, run)
        assert [tr.termination for tr in whole[:2]] == [NONFINITE, ITERATION_CAP]
        assert whole[0].iterations >= 1  # it overflows in a step, sliced when patched
        assert {tr.termination for tr in whole[2:]} == {GRADIENT_TOLERANCE}
        for want, got in zip(whole, sliced):
            assert got.to_json() == want.to_json()
            assert got.final_x.tobytes() == want.final_x.tobytes()

    @pytest.mark.parametrize("width", [1, 2])
    def test_raw_loop_without_history(self, rng, monkeypatch, width):
        # at width 2 each block holds two long rows, and the raw step runs
        # in slices of 32 doubles
        rows = self.rows(rng)
        whole, sliced = self.both(
            monkeypatch, lambda: raw_results(rows, width, history=False))
        assert [r[0] for r in whole[:2]] == [NONFINITE, ITERATION_CAP]
        assert sliced == whole
        recorded = raw_results(rows, width)
        assert whole == [(termination, len(f_hist) - 1)
                         for termination, f_hist, *_ in recorded]

    def test_line_search_solver(self, rng, monkeypatch):
        # the patched work array also cuts the solver's rounds to one trial
        # each; every decision and every bit stays the same
        inst = tiny_instance(rng, self.N, 1e4)
        obj = quadratic.as_objective(inst)
        cfg = SolverConfig(epsilon=1e-6, stop_rule=STOP_GRAD_REL, max_iter=300, eta=1e-10)

        def run():
            return [solver_run(obj, obj.x0, cfg, parse_policy(p)) for p in self.POLICIES]

        whole, sliced = self.both(monkeypatch, run)
        assert {tr.termination for tr in whole} == {GRADIENT_TOLERANCE}
        assert any(r.backtracks > 0 for tr in whole for r in tr.rows)
        for want, got in zip(whole, sliced):
            assert got.to_json() == want.to_json()
            assert got.final_x.tobytes() == want.final_x.tobytes()
