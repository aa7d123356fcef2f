"""Hot numeric kernels.

Steplength formulas on secant scalars, Householder Hessian products, and
the raw (no line search) BB iteration for factored quadratics, in plain
numpy.  policy_step is the one dispatch from a policy to its steplength
formula.  raw_bb_loop advances a block of runs in lock step: one Hessian
product per step for the whole block, row dots through np.vecdot (which
rounds like the 1-D dot), and a scalar policy_step call per row, so every
row reproduces its run alone bit for bit.

Nothing in this module validates its inputs; `steps` and `quadratic` wrap
these with the checked public API.
"""

import math

import numpy as np

from .trace import GRADIENT_TOLERANCE, ITERATION_CAP, NONFINITE


def bb1_step(ss, sy):
    # long BB steplength ||s||^2 / s'y
    return ss / sy


def bb2_step(sy, yy):
    # short BB steplength s'y / ||y||^2
    return sy / yy


def family_step(ss, yy, sy, gamma):
    """Scaled-TLS family steplength from the secant scalars.

    ss = ||s||^2, yy = ||y||^2, sy = s'y > 0, gamma > 0.  The closed form
    is (d + sqrt(d^2 + e)) / (2 s'y) with d = ss - yy/gamma^2 and
    e = 4 (s'y)^2 / gamma^2; for d <= 0 the numerator is evaluated as
    e / (sqrt(d^2 + e) - d), which is algebraically identical but free of
    cancellation.  hypot keeps the discriminant from overflowing, and once
    the intermediates do overflow (gamma below ~1e-150 for unit-scale
    pairs) the value equals the short-step limit sy/yy to full precision.
    """
    ti = 1.0 / gamma
    t = ti * ti
    d = ss - yy * t
    e = 4.0 * sy * sy * t
    r = math.hypot(d, 2.0 * sy * math.sqrt(t))
    if d > 0.0:
        num = d + r
    else:
        if r == np.inf:
            return sy / yy
        num = e / (r - d)
    return num / (2.0 * sy)


def family_prime_step(ss, yy, sy, gamma):
    """Inverse-fit variant of the scaled-TLS family (decreasing in gamma).

    2 s'y / (d + sqrt(d^2 + e)) with d = yy - ss/gamma^2 and
    e = 4 (s'y)^2 / gamma^2, with the same cancellation-safe branch and
    overflow handling as family_step (the overflow limit here is the long
    step ss/sy).
    """
    ti = 1.0 / gamma
    t = ti * ti
    d = yy - ss * t
    e = 4.0 * sy * sy * t
    r = math.hypot(d, 2.0 * sy * math.sqrt(t))
    if d > 0.0:
        den = d + r
    else:
        if r == np.inf:
            return ss / sy
        den = e / (r - d)
    return 2.0 * sy / den


def convex_step(ss, yy, sy, tau):
    # convex mix tau*BB1 + (1-tau)*BB2
    return tau * (ss / sy) + (1.0 - tau) * (sy / yy)


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
    rules.
    """
    kind = policy.kind
    if kind == "bb1":
        return ss / sy
    elif kind == "bb2":
        return sy / yy
    elif kind == "gamma":
        return family_step(ss, yy, sy, policy.gamma)
    elif kind == "gamma_prime":
        return family_prime_step(ss, yy, sy, policy.gamma)
    elif kind == "tau":
        return convex_step(ss, yy, sy, policy.tau)
    else:
        return atc_step(ss, yy, sy, prev_alpha, index, policy.cycle)


def _row_dots(w, u):
    # one dot per row, as a column that broadcasts against the rows
    return np.vecdot(w, u)[:, None]


def _householder_product(dot, w1, w2, w3, v, x):
    u = x - (2.0 * dot(w3, x)) * w3
    u -= (2.0 * dot(w2, u)) * w2
    u -= (2.0 * dot(w1, u)) * w1
    u *= v
    u -= (2.0 * dot(w1, u)) * w1
    u -= (2.0 * dot(w2, u)) * w2
    u -= (2.0 * dot(w3, u)) * w3
    return u


def hessian_apply(w1, w2, w3, v, x):
    """Apply Q diag(v) Q' to x, where Q is the product of the Householder
    reflections (I - 2 w3 w3')(I - 2 w2 w2')(I - 2 w1 w1').

    Q'x reflects by w3, w2, w1 in that order and Q reverses it; the whole
    product costs O(n) and nothing n-by-n is ever formed.  A 2-D x is a
    block of rows, each reflected by the same row of w1, w2, w3 and scaled
    by the same row of v; np.vecdot rounds each row dot exactly like the
    1-D dot, so a row's product equals the row's 1-D product bit for bit.
    """
    if x.ndim == 1:
        return _householder_product(np.dot, w1, w2, w3, v, x)
    if len(x) == 1:
        # a block of one takes the 1-D path, whose scalar dots cost less
        return _householder_product(np.dot, w1[0], w2[0], w3[0], v[0], x[0])[None]
    return _householder_product(_row_dots, w1, w2, w3, v, x)


# raw_bb_loop records (f, ||g||, alpha) of every live row in a buffer of
# this many steps, and copies each row's part out when the buffer fills or
# a row stops, so no history outlives its row's own copies.
_HISTORY_CHUNK = 256


def _block(arrays):
    # a block of one is a view: stacking would copy the n-vector
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def raw_bb_loop(insts, policies, x0, alpha0, eps_rel, max_iter):
    """Raw BB gradient iteration on a block of QuadraticInstances, advanced
    in lock step with one Hessian product per step for the whole block.

    Row i runs policies[i] on insts[i] from x0[i] with the opening
    steplength alpha0[i]; eps_rel and max_iter are shared.  Each row
    carries its gradient by the recurrence g <- g - alpha * A g, and the
    secant scalars for its next steplength are formed from g and A g: the
    pair is (s, y) = (-alpha g, -alpha A g), and the shared alpha^2 factor
    cancels in every steplength formula, so (g'g, g'Ag, Ag'Ag) are passed
    to a scalar policy_step call per row.  A row stops when its ||g|| is
    not finite, when ||g|| <= eps_rel * ||g0||, or at the iteration cap,
    and leaves the block.  Row dots are np.vecdot, which rounds like the
    1-D dot, so every row computes bit for bit what it computes as a block
    of one.  Overflow raises no warning: it ends its row as nonfinite.  x0
    is not modified.

    Returns a list with, per row, (termination, f_hist, gnorm_hist,
    alpha_hist, x): entry k of the histories describes iterate k, and
    alpha_hist[k] is the steplength taken from it (nan on the terminal
    entry).
    """
    w1, w2, w3, v, b = (
        _block([getattr(inst, name) for inst in insts])
        for name in ("w1", "w2", "w3", "eigenvalues", "linear")
    )
    x = np.array(x0, dtype=float)
    alpha = np.array(alpha0, dtype=float)
    live = list(range(len(insts)))  # the input row of each block row
    policies = list(policies)
    ends = [None] * len(live)  # (termination, x) per input row
    pieces = [[] for _ in live]  # history of each input row, (3, steps) pieces
    hist = np.empty((3, _HISTORY_CHUNK, len(live)))
    j = 0
    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        g = hessian_apply(w1, w2, w3, v, x) - b
        tol = eps_rel * np.sqrt(np.vecdot(g, g))
        while True:
            gg = np.vecdot(g, g)
            gn = np.sqrt(gg)
            hist[0, j] = 0.5 * np.vecdot(x, g - b)  # f = x'(Ax - 2b)/2, g = Ax - b
            hist[1, j] = gn
            hist[2, j] = alpha
            j += 1
            # a row goes on while eps_rel ||g0|| < ||g|| < inf (a nan ||g||
            # fails both); Python floats test a few rows faster than ufuncs
            go = [k < max_iter and t < r < math.inf
                  for t, r in zip(tol.tolist(), gn.tolist())]
            stopping = not all(go)
            if stopping:
                go = np.array(go)
                hist[2, j - 1, ~go] = np.nan
            if stopping or j == _HISTORY_CHUNK:
                for col, i in enumerate(live):
                    pieces[i].append(hist[:, :j, col].copy())
                j = 0
            if stopping:
                done = np.flatnonzero(~go)
                last = len(done) == len(live)
                # rows leaving a block that goes on take copies of their x
                for r, xr in zip(done, x if last else x[done]):
                    termination = (NONFINITE if not math.isfinite(gn[r]) else
                                   GRADIENT_TOLERANCE if gn[r] <= tol[r] else ITERATION_CAP)
                    ends[live[r]] = termination, xr
                if last:
                    break
                live = [i for i, on in zip(live, go) if on]
                policies = [p for p, on in zip(policies, go) if on]
                w1, w2, w3, v, b, x, g, gg, alpha, tol = (
                    a[go] for a in (w1, w2, w3, v, b, x, g, gg, alpha, tol)
                )
                hist = hist[:, :, : len(live)]
            ag = hessian_apply(w1, w2, w3, v, g)
            gag = np.vecdot(g, ag)
            agag = np.vecdot(ag, ag)
            step = alpha[:, None]
            x -= step * g
            g -= step * ag
            # the policy's iteration index counts policy calls; alpha0 is
            # supplied externally and is never produced by the policy
            alpha = np.array([
                policy_step(policy, ss, yy, sy, prev, k)
                for policy, ss, yy, sy, prev in zip(policies, gg, agag, gag, alpha)
            ])
            k += 1
    out = []
    for i, (termination, xr) in enumerate(ends):
        f_hist, g_hist, a_hist = np.concatenate(pieces[i], axis=1)
        pieces[i] = None  # free each row's pieces as its histories are joined
        out.append((termination, f_hist, g_hist, a_hist, xr))
    return out
