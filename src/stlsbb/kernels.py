"""Hot numeric kernels.

Steplength formulas on secant scalars, Householder Hessian products, and
the raw (no line search) BB iteration for factored quadratics, in plain
numpy.  policy_step is the one dispatch from a policy to its steplength
formula and the only place that holds each rule's arithmetic; the family
rules call family_step / family_prime_step, one scaled-TLS fit read with
the roles of s and y exchanged, and ATC calls atc_step.  A rule gives
float64's value, so a zero divisor gives inf or nan, never an exception.
raw_bb_loop advances a block of runs in lock step, taking the next run
into each slot a finished one frees: one Hessian product per step for the
whole block, row dots through np.vecdot (which rounds like the 1-D dot),
and a scalar policy_step call per row, so every row reproduces its run
alone bit for bit.  A count-only row (history=False), as the quadratic
sweep runs, steps only its gradient, since its stop test and count never
read the iterate.  The kernels never modify their inputs, and the arrays
they return are fresh ones.  A block product with its own w per row, on
rows shorter than _WIDE_ROW doubles, copies each pass's column of row
dots across one block buffer and scales it by w in place, rather than
broadcast the column against the rows.  A row longer than _BLOCK_DOUBLES
doubles (the package runs such rows only as blocks of one) runs every
elementwise pass of its product and of raw_bb_loop's step in slices of
_BLOCK_DOUBLES doubles through a work array that each thread holds once
and never hands out, so its product allocates only its result; its dots
still read the whole row, so no bit changes.

Nothing in this module validates its inputs: steps.SteplengthPolicy and
steps.next_steplength check what reaches policy_step; quadratic.solve_bb,
and harness.ExperimentGrid for the sweep, check what reaches raw_bb_loop.
"""

import math
import threading
from itertools import islice

import numpy as np

from .trace import GRADIENT_TOLERANCE, ITERATION_CAP, NONFINITE


def _scaled_tls_fit(a, b, sy, gamma):
    # d + sqrt(d^2 + e) with d = a - b/gamma^2 and e = 4 (s'y)^2/gamma^2:
    # the family's numerator for (a, b) = (ss, yy), and its denominator
    # for (yy, ss).  For d <= 0 it is e / (sqrt(d^2 + e) - d), identical
    # but free of cancellation.  hypot keeps the discriminant from
    # overflowing, and None means that e or r - d overflowed (gamma below
    # ~1e-150 for unit-scale pairs).
    ti = 1.0 / gamma
    t = ti * ti
    d = a - b * t
    e = 4.0 * sy * sy * t
    r = math.hypot(d, 2.0 * sy * math.sqrt(t))
    if d > 0.0:
        return d + r
    rd = r - d
    if e == math.inf or rd == math.inf:
        return None
    return e / rd


def family_step(ss, yy, sy, gamma):
    """Scaled-TLS family steplength from the secant scalars.

    ss = ||s||^2, yy = ||y||^2, sy = s'y > 0, gamma > 0.  The closed form
    is (d + sqrt(d^2 + e)) / (2 s'y) with d = ss - yy/gamma^2 and
    e = 4 (s'y)^2 / gamma^2, evaluated free of cancellation; once the
    fit overflows, the value is the short-step limit sy/yy.  gamma is
    measured in units of ||y||/||s||, a curvature.  Callers reach it
    through policy_step, which keeps the fit's s'y^2 in range.
    """
    num = _scaled_tls_fit(ss, yy, sy, gamma)
    return sy / yy if num is None else num / (2.0 * sy)


def family_prime_step(ss, yy, sy, gamma):
    """Inverse-fit variant of the scaled-TLS family (decreasing in gamma).

    2 s'y over the same fit with the roles of s and y exchanged, so
    gammaPrime:g equals gamma:1/g up to rounding; once the fit overflows,
    the value is the long-step limit ss/sy.  Callers reach it through
    policy_step, as for family_step.
    """
    den = _scaled_tls_fit(yy, ss, sy, gamma)
    return ss / sy if den is None else 2.0 * sy / den


def atc_step(ss, yy, sy, prev_alpha, index, cycle):
    """Adaptive truncated cyclic steplength.

    Restart at BB1 whenever index is a multiple of cycle, otherwise clamp
    the previously used steplength into [BB2, BB1].
    """
    b1 = ss / sy
    if index % cycle == 0:
        return b1
    b2 = sy / yy
    if prev_alpha <= b2:
        return b2
    if prev_alpha >= b1:
        return b1
    return prev_alpha


def policy_step(policy, ss, yy, sy, prev_alpha, index):
    """Steplength a SteplengthPolicy's rule gives on the secant scalars.

    Only the rule and its parameter (gamma, tau or cycle) are read from
    policy; prev_alpha and index are the ATC state, ignored by the other
    rules; a zero divisor gives float64's inf or nan, and no warning.
    Every rule is homogeneous of degree 0 in (ss, yy, sy), but the family
    fit squares s'y: where 0 < s'y < inf lies outside [1e-140, 1e140], the
    three are first scaled by the exact power of two that brings s'y into
    [0.5, 1), so 2^j (ss, yy, sy) gives the same bits for every j that
    keeps the three normal.
    """
    if not 1e-140 <= sy <= 1e140 and 0.0 < sy < math.inf:
        # an ss or yy scaled out of range is inf or 0, as its quotients are
        with np.errstate(over="ignore", under="ignore"):
            ss, yy, sy = np.ldexp((ss, yy, sy), -math.frexp(sy)[1]).tolist()
    kind = policy.kind
    try:
        if kind == "bb1":
            return ss / sy
        elif kind == "bb2":
            return sy / yy
        elif kind == "gamma":
            return family_step(ss, yy, sy, policy.gamma)
        elif kind == "gamma_prime":
            return family_prime_step(ss, yy, sy, policy.gamma)
        elif kind == "tau":
            tau = policy.tau
            return tau * (ss / sy) + (1.0 - tau) * (sy / yy)
        else:
            return atc_step(ss, yy, sy, prev_alpha, index, policy.cycle)
    except ZeroDivisionError:
        # Python floats run the rules in about half the time of numpy
        # scalars but raise where float64 gives inf or nan; on float64,
        # which rounds alike, no divisor can raise
        f = np.float64
        with np.errstate(**_QUIET):
            return float(policy_step(policy, f(ss), f(yy), f(sy), prev_alpha, index))


def _row_dots(w, u):
    # one dot per row, as a column that broadcasts against the rows
    return np.vecdot(w, u)[:, None]


def _householder_product(dot, w1, w2, w3, v, x):
    # each pass subtracts c w for its c = 2 w'u, a scalar on a vector and
    # a column on a block.  On a block with its own w per row, rows
    # shorter than _WIDE_ROW, the column is first copied across one
    # (rows, n) buffer that w then scales in place: c * w broadcasts the
    # column against the rows of w, which costs more than the copy.
    # Product times, against c * w (2-vCPU Xeon, numpy 2.4, thread CPU,
    # medians of 15-25 interleaved runs): 0.77-0.91x at (96, 100), the
    # quadratic sweep's blocks, 0.82-0.96x at (75, 100), 0.87x at
    # (50, 100), 0.79-0.96x at (96, 200), and 1.02x at (20, 100).  A
    # broadcast multiply into a kept buffer, without the copy, read
    # 0.89-1.05x at (96, 100) and 0.96-1.15x at (75, 100).  The copy
    # lost where w is one row for every row (1.07-1.21x below 40 rows,
    # as the line search's rounds are) and on wide blocks beyond
    # _BLOCK_DOUBLES (1.16-1.39x); every block of rows at least _WIDE_ROW
    # long keeps c * w.  The operands and their order are those of c * w,
    # so every bit, nan payloads included, is the same
    if w1.ndim == 1 or x.shape[-1] >= _WIDE_ROW:
        scaled = np.multiply
    else:
        cw = np.empty(x.shape)

        def scaled(c, w):
            np.copyto(cw, c)
            return np.multiply(cw, w, out=cw)
    u = x - scaled(2.0 * dot(w3, x), w3)
    u -= scaled(2.0 * dot(w2, u), w2)
    u -= scaled(2.0 * dot(w1, u), w1)
    u *= v
    u -= scaled(2.0 * dot(w1, u), w1)
    u -= scaled(2.0 * dot(w2, u), w2)
    u -= scaled(2.0 * dot(w3, u), w3)
    return u


def _wide_product(w1, w2, w3, v, x):
    # _householder_product on a row longer than the work array, in the
    # same order, every elementwise pass run by _subtract_scaled through
    # the thread's work array: the first pass writes straight into the
    # result and v scales each slice of the third as it leaves it.  So the
    # product allocates only its result and runs its passes in cache-sized
    # slices instead of through n-long temporaries; each dot still reads
    # the whole row, so no value changes.  Kept apart because the
    # np.multiply(..., out=None) form on the other paths read 1.9 % slower
    # on the n = 100 sweep benchmark and raised the n = 1e5 raw runs' peak
    # RSS by 0.7 MB
    u = np.empty(x.shape)
    _subtract_scaled(u, x, 2.0 * np.dot(w3, x), w3)
    _subtract_scaled(u, u, 2.0 * np.dot(w2, u), w2)
    _subtract_scaled(u, u, 2.0 * np.dot(w1, u), w1, v)
    for w in (w1, w2, w3):
        _subtract_scaled(u, u, 2.0 * np.dot(w, u), w)
    return u


def _subtract_scaled(out, u, c, w, scale=None):
    # out = u - c w, then out *= scale, for a scalar c and rows u, w and
    # scale, with the c w term written into the thread's work array, in
    # slices of as many doubles as fill it, last slice first: the
    # whole-row dot before a pass ends on the row's tail, which is then
    # still in L2, and the pass ends on the head the next dot starts
    # from.  out may be u
    work = _work_array()
    length = work.size
    for i in reversed(range(0, len(out), length)):
        part = out[i:i + length]
        np.subtract(u[i:i + length], np.multiply(c, w[i:i + length], out=work[:len(part)]),
                    out=part)
        if scale is not None:
            part *= scale[i:i + length]


def _work_array():
    # this thread's _BLOCK_DOUBLES work doubles, made again if
    # _BLOCK_DOUBLES has changed; never returned to a caller, and each
    # thread has its own, so concurrent products never share one
    buf = getattr(_work, "buf", None)
    if buf is None or buf.size != _BLOCK_DOUBLES:
        buf = _work.buf = np.empty(_BLOCK_DOUBLES)
    return buf


_work = threading.local()


def hessian_apply(w1, w2, w3, v, x):
    """Apply Q diag(v) Q' to x, where Q is the product of the Householder
    reflections (I - 2 w3 w3')(I - 2 w2 w2')(I - 2 w1 w1').

    Q'x reflects by w3, w2, w1 in that order and Q reverses it; the whole
    product costs O(n) and nothing n-by-n is ever formed.  A 2-D x is a
    block of rows, each reflected by the same row of w1, w2, w3 and scaled
    by the same row of v, or by the same 1-D w1, w2, w3, v for every row;
    np.vecdot rounds each row dot exactly like the 1-D dot, so a row's
    product equals the row's 1-D product bit for bit.  A row longer than
    kernels._BLOCK_DOUBLES, alone or as a block of one, runs each
    elementwise pass in slices of that many doubles through the thread's
    work array, with whole-row dots, to the same bits; every other block
    takes numpy's temporaries.  x is only read, and the result is a fresh
    array.
    """
    one = x.ndim == 2 and len(x) == 1
    if one:
        # a block of one takes the 1-D path, whose scalar dots cost less
        if w1.ndim == 2:
            w1, w2, w3, v = w1[0], w2[0], w3[0], v[0]
        x = x[0]
    if x.ndim == 1:
        u = (_wide_product(w1, w2, w3, v, x) if len(x) > _BLOCK_DOUBLES
             else _householder_product(np.dot, w1, w2, w3, v, x))
        return u[None] if one else u
    return _with_row_buffers(x.shape[1], _householder_product, _row_dots, w1, w2, w3, v, x)


def _step_rows(x, g, a):
    # x - a g in one buffer, for a scalar a or a column of them
    xs = a * g
    np.subtract(x, xs, xs)
    return xs


def trial_rows(x, g, steps):
    """The block of trial points x - a g, one row for each steplength a in
    the 1-D array steps; each row rounds as x - a * g does alone.
    """
    if len(steps) == 1:  # a scalar step costs less than the broadcast
        return _step_rows(x, g, steps[0])[None]
    return _with_row_buffers(len(x), _step_rows, x, g, steps[:, None])


def _with_row_buffers(n, f, *args):
    # f(*args) on a block of rows of n doubles.  numpy's ufuncs copy
    # broadcast operands, such as a (rows, 1) column of row dots or
    # steplengths against an (n,) or (rows, n) block, through buffers of
    # 8192 elements to lengthen their inner loops; on rows of a few hundred
    # doubles that copying costs more than the arithmetic, and rows at
    # least _WIDE_ROW long run with buffers of that size instead.  Measured
    # on a 2-vCPU Xeon (numpy 2.4, medians of 11 to 15 alternating runs,
    # the cost of setting the size included): a block product with per-row
    # w took 0.76x the time at (rows, n) = (96, 160), 0.73x at (96, 256)
    # and 0.84x at (32, 1000), a sweep's blocks at n = 1000, but 1.21x at
    # (96, 100), the quadratic sweep's blocks at n = 100, and 1.20x at
    # (96, 128); with shared w, 0.6x at (29, 1000); blocks of four rows
    # lost up to 1.16x below n = 256.  With the small buffers on every
    # block the n = 100 sweep benchmark ran 1.08x slower end to end.  The
    # buffer size changes how these elementwise loops run, never a value.
    # Narrower blocks keep numpy's buffers; with their own w per row, as
    # the sweep's are, their product avoids the broadcast instead by
    # copying each column of row dots across a block buffer that w then
    # scales in place (_householder_product): 0.77-0.91x the product time
    # at (96, 100), where a broadcast multiply into a kept buffer, without
    # the copy, read 0.89-1.05x.
    if n < _WIDE_ROW:
        return f(*args)
    with np.errstate():  # which restores numpy's buffer size on exit
        np.setbufsize(_WIDE_ROW)
        return f(*args)


_WIDE_ROW = 256


# A block of rows, in raw_bb_loop and in the line-search solver's trial
# rounds, holds at most this many doubles (256 KiB) per (rows x n) array,
# so a step works in cache.  On a 2 MiB L2 host, full 20-row raw blocks at
# n = 1e4 ran 1.8x the time of one run per row, and rows of 2^15 doubles
# matched it; at n <= 1e3 the whole block fits and runs 2-5x faster.  A
# quadratic sweep also caps its block at 96 rows (harness), which is the
# tighter cap below n = 342.  It is also the size of each thread's work
# array, and so the slice length of a longer row's elementwise passes.  An
# n = 1e5 product on that host (thread CPU, medians of 7 alternating
# processes) took 0.87x the time of n-long temporaries in slices of 2^15,
# 0.92x in slices of 2^14 and 0.96x in slices of 2^16; 1.05x in slices of
# 2^13 and 1.32x in slices of 2^12, where the per-slice ufunc calls
# dominate; and 0.99x with one n-long work array, whose c w term does not
# stay in L2 beside the rows it is read with.
_BLOCK_DOUBLES = 1 << 15

# Overflow, inf - inf and a zero divisor end their row as nonfinite; numpy
# warns of none of them inside the loop or a rule's float64 retry
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


def _block(arrays):
    # a block of one is a view: stacking would copy the n-vector
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _termination(gn, tol):
    return (NONFINITE if not math.isfinite(gn) else
            GRADIENT_TOLERANCE if gn <= tol else ITERATION_CAP)


def raw_bb_loop(rows, width, max_iter, on_end, history=True):
    """Raw BB gradient iteration on QuadraticInstances, at most width runs
    at a time in lock step, with one Hessian product per step for all of
    them.

    rows is an iterable of (key, inst, policy, x0, alpha0, eps_rel): the
    run of policy on inst from x0 with the opening steplength alpha0, or
    where alpha0 is None 1 / ||g0||_inf from the row's own g0 (1 where
    that max is 0 or nan), stopping when ||g|| is not finite (nonfinite),
    when ||g|| <= eps_rel ||g0||, or after max_iter >= 1 steps.  Rows are
    taken from it only when a slot is free, so a lazy iterable is consumed
    as runs finish: when a row leaves, the next one that takes a step
    fills its slot, and the block shrinks only once the iterable runs dry.
    Each row counts its own steps, which are its ATC index and what the
    call's one max_iter bounds.  A row starts from its own 1-D product
    g0 = A x0 - b and carries its gradient by the recurrence
    g <- g - alpha A g; the secant pair (s, y) = (-alpha g, -alpha A g)
    has a common alpha^2 that cancels in every steplength formula, so
    (g'g, Ag'Ag, g'Ag) go to one scalar policy_step call per row.  Row
    dots are np.vecdot, which rounds like the 1-D dot, so every row
    computes bit for bit what it computes alone, whatever its slot and
    neighbours.  Overflow or a zero divisor raises no warning: it ends its
    row as nonfinite.  x0 is not modified.

    A row's result is (termination, f_hist, gnorm_hist, alpha_hist, x):
    the histories are lists of floats whose entry k describes iterate k,
    and alpha_hist[k] is the steplength the row proposed there: the one
    taken from it, or on the last entry the proposal no step takes, which
    is alpha0 for a row that stops where it starts.  With history=False a
    row only counts: nothing is recorded per step, and its result is
    (termination, iterations).  Neither the stop test nor the count reads
    the iterate, so such a row steps only its gradient: its block carries
    w1, w2, w3, v and g, and no x or b, which only a recorded row's f
    reads.  Results come out only through on_end, which is required:
    on_end(key, result) is called with the row's own key, untouched, as
    the row leaves, outside the loop's np.errstate, so rows end in the
    order they finish, not in the order of rows.  Nothing is returned.
    """
    source = iter(rows)

    def leave(key, termination, k, x, hist):
        on_end(key, (termination, *hist, x) if history else (termination, k))

    def take():
        # the next row that takes a step, as its slot's values; rows that
        # stop where they start leave here
        for key, inst, policy, x0, alpha0, eps_rel in source:
            x0 = np.array(x0, dtype=float)
            with np.errstate(**_QUIET):
                g0 = hessian_apply(inst.w1, inst.w2, inst.w3, inst.eigenvalues, x0) - inst.linear
                gg0 = np.dot(g0, g0)
                gn0 = float(np.sqrt(gg0))
                tol = float(eps_rel * gn0)
                f0 = float(0.5 * np.dot(x0, g0 - inst.linear)) if history else None
                if alpha0 is None:
                    gi = float(np.max(np.abs(g0)))
                    alpha0 = 1.0 / gi if gi > 0.0 else 1.0  # nan > 0 is false
            alpha0 = float(alpha0)
            hist = ([f0], [gn0], [alpha0]) if history else None
            if tol < gn0 < math.inf:
                # the row of each array its block carries: w1, w2, w3, v
                # and g, then x and b, which only a recorded row's f reads
                carried = (inst.w1, inst.w2, inst.w3, inst.eigenvalues, g0)
                if history:
                    carried += (x0, inst.linear)
                return key, policy, carried, gg0, alpha0, tol, hist
            leave(key, _termination(gn0, tol), 0, x0, hist)
        return None

    inf = math.inf
    while slots := list(islice(iter(take, None), width)):
        keys, policies, carried, ggs, alphas, tol, hists = map(list, zip(*slots))
        block = [_block(column) for column in zip(*carried)]
        gg = np.array(ggs)
        ks = [0] * len(keys)
        # rows longer than the work array step one at a time in slices
        # through it, with no n-long temporaries (the n = 1e5 raw benchmark
        # read 3.2 % faster than with the operator form, in 17 of 20
        # alternating pairs); blocks of shorter rows keep the operator form,
        # as the helper made the n = 100 sweep benchmark 4.2 % slower (10 of
        # 10)
        long_rows = block[0].shape[1] > _BLOCK_DOUBLES
        del slots, carried, ggs  # the block holds what it needs
        while True:
            w1, w2, w3, v, g, *xb = block
            x, b = xb if history else (None, None)
            with np.errstate(**_QUIET):
                while True:
                    ag = hessian_apply(w1, w2, w3, v, g)
                    gag = np.vecdot(g, ag)
                    agag = np.vecdot(ag, ag)
                    if long_rows:
                        for r, a in enumerate(alphas):
                            if history:  # x steps from the g before this step's
                                _subtract_scaled(x[r], x[r], a, g[r])
                            _subtract_scaled(g[r], g[r], a, ag[r])
                    else:
                        step = np.array(alphas)[:, None]
                        if history:
                            x -= step * g
                        g -= step * ag
                    # the policy's index counts its row's policy calls;
                    # alpha0 comes from outside and is not one of them
                    alphas = [policy_step(p, ss, yy, sy, prev, k) for p, ss, yy, sy, prev, k
                              in zip(policies, gg.tolist(), agag.tolist(), gag.tolist(), alphas, ks)]
                    ks = [k + 1 for k in ks]
                    gg = np.vecdot(g, g)
                    gn = np.sqrt(gg).tolist()
                    if history:
                        f = 0.5 * np.vecdot(x, g - b)  # f = x'(Ax - 2b)/2, g = Ax - b
                        for h, *entry in zip(hists, f.tolist(), gn, alphas):
                            for column, value in zip(h, entry):
                                column.append(value)
                    # a row goes on while eps_rel ||g0|| < ||g|| < inf (a nan
                    # ||g|| fails both); Python floats test a few rows faster
                    # than ufuncs
                    go = [k < max_iter and t < r < inf for k, t, r in zip(ks, tol, gn)]
                    if not all(go):
                        break
            done = [r for r, on in enumerate(go) if not on]
            whole = len(done) == len(go)
            # recorded rows leaving a block that goes on take copies of
            # their x; count-only rows have none
            xs = (x if whole else x[done]) if history else [None] * len(done)
            for r, xr in zip(done, xs):
                leave(keys[r], _termination(gn[r], tol[r]), ks[r], xr, hists[r])
            if whole:
                break  # a block of one is a view of its instance: start anew
            for r, slot in zip(done, iter(take, None)):
                key, policy, carried, gg0, alpha0, t, hist = slot
                for a, row in zip(block, carried):
                    a[r] = row
                gg[r] = gg0
                keys[r], policies[r], alphas[r], tol[r], ks[r], hists[r] = (
                    key, policy, alpha0, t, 0, hist)
                go[r] = True
            slot = carried = row = None  # hold no instance past its rows
            if not all(go):
                keep = [r for r, on in enumerate(go) if on]
                block, gg = [a[keep] for a in block], gg[keep]
                keys, policies, alphas, tol, ks, hists = (
                    [c[r] for r in keep] for c in (keys, policies, alphas, tol, ks, hists))
