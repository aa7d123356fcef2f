"""Hot numeric kernels.

Steplength formulas on secant scalars, Householder Hessian products, and
the raw (no line search) BB iteration for factored quadratics, in plain
numpy.  policy_step is the one dispatch from a policy to its steplength
formula.

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


def hessian_apply(w1, w2, w3, v, x):
    """Apply Q diag(v) Q' to x, where Q is the product of the Householder
    reflections (I - 2 w3 w3')(I - 2 w2 w2')(I - 2 w1 w1').

    Q'x reflects by w3, w2, w1 in that order and Q reverses it; the whole
    product costs O(n) and nothing n-by-n is ever formed.
    """
    u = x - (2.0 * (w3 @ x)) * w3
    u -= (2.0 * (w2 @ u)) * w2
    u -= (2.0 * (w1 @ u)) * w1
    u *= v
    u -= (2.0 * (w1 @ u)) * w1
    u -= (2.0 * (w2 @ u)) * w2
    u -= (2.0 * (w3 @ u)) * w3
    return u


def raw_bb_loop(inst, policy, x0, alpha0, eps_rel, max_iter):
    """Raw BB gradient iteration on a QuadraticInstance, one Hessian
    product per iteration.

    The gradient is carried by the recurrence g <- g - alpha * A g, and the
    secant scalars for the next steplength are formed from g and A g: the
    pair is (s, y) = (-alpha g, -alpha A g), and the shared alpha^2 factor
    cancels in every steplength formula, so (g'g, g'Ag, Ag'Ag) are passed
    directly.  Stops when ||g|| is not finite, when ||g|| <= eps_rel *
    ||g0||, or at the iteration cap.  x0 is not modified.

    Returns (termination, f_hist, gnorm_hist, alpha_hist, x): row k of the
    histories describes iterate k, alpha_hist[k] is the steplength taken
    from it (nan on the terminal row).
    """
    w1, w2, w3, v, b = inst.w1, inst.w2, inst.w3, inst.eigenvalues, inst.linear
    f_hist = np.empty(max_iter + 1)
    g_hist = np.empty(max_iter + 1)
    a_hist = np.empty(max_iter + 1)
    x = x0.copy()
    g = hessian_apply(w1, w2, w3, v, x) - b
    gn0 = np.sqrt(g @ g)
    alpha = alpha0
    k = 0
    while True:
        gn = np.sqrt(g @ g)
        f_hist[k] = 0.5 * (x @ (g - b))  # f = x'(Ax - 2b)/2 and g = Ax - b
        g_hist[k] = gn
        if not math.isfinite(gn):
            termination = NONFINITE
            break
        if gn <= eps_rel * gn0:
            termination = GRADIENT_TOLERANCE
            break
        if k >= max_iter:
            termination = ITERATION_CAP
            break
        a_hist[k] = alpha
        ag = hessian_apply(w1, w2, w3, v, g)
        gg = g @ g
        gag = g @ ag
        agag = ag @ ag
        x -= alpha * g
        g -= alpha * ag
        # the policy's iteration index counts policy calls; alpha0 is
        # supplied externally and is never produced by the policy
        alpha = policy_step(policy, gg, agag, gag, alpha, k)
        k += 1
    a_hist[k] = np.nan
    return termination, f_hist[: k + 1], g_hist[: k + 1], a_hist[: k + 1], x
