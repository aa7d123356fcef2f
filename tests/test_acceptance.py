"""Acceptance gate: ten numbered criteria, one reported line each.

Each test prints a [PASS]/[FAIL] line outside pytest's capture so the
report is visible in any invocation, then asserts.  Tolerances are stated
in the line labels; randomized checks use fixed seeds so reruns are
reproducible.
"""

import math

import numpy as np
import pytest

from stlsbb import (
    SpectrumSetting,
    SteplengthPolicy,
    alpha_convex,
    alpha_family,
    alpha_family_prime,
    alpha_tls,
    audit_trace,
    bb1,
    bb2,
    family_argmin,
    generate_instance,
    homogeneous_residual_min,
    next_steplength,
    parse_policy,
    performance_profile,
    rosenbrock2,
    run,
    run_rosenbrock_table,
    solve_bb,
    tau_from_gamma,
)
from stlsbb.quadratic import as_objective
from stlsbb.solver import STOP_POINT_DIST, SolverConfig

from conftest import random_pair


@pytest.fixture()
def report(capfd):
    def _report(num, label, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {label}"
        if detail:
            line += f" [{detail}]"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_criterion_01_family_closed_form_matches_bruteforce(report):
    rng = np.random.default_rng(20240901)
    gammas = (0.01, 0.1, 1.0, 10.0, 100.0)
    worst = 0.0
    for _ in range(1000):
        pair = random_pair(rng, n=5)
        for g in gammas:
            err = abs(alpha_family(pair, g) - family_argmin(pair, g))
            worst = max(worst, err)
    report(
        1,
        "closed-form family steplength vs brute-force ratio minimizer <= 1e-6 "
        "(1000 dim-5 pairs x 5 gammas)",
        worst <= 1e-6,
        f"worst |diff| {worst:.3e}",
    )


def test_criterion_02_containment_monotonicity_limits(report):
    rng = np.random.default_rng(20240902)
    slack = 1e-12
    ok = True
    detail = []
    worst_violation = 0.0
    for _ in range(10_000):
        pair = random_pair(rng)
        b1, b2 = bb1(pair), bb2(pair)
        span = max(1.0, b1)
        for g in (0.01, 0.1, 1.0, 10.0, 100.0):
            for a in (alpha_family(pair, g), alpha_family_prime(pair, g)):
                below = b2 - a
                above = a - b1
                worst_violation = max(worst_violation, below, above)
    contained = worst_violation <= slack
    ok &= contained
    detail.append(f"containment worst overshoot {worst_violation:.2e}")

    grid = np.logspace(-6, 6, 50)
    mono_ok = True
    for _ in range(200):
        pair = random_pair(rng)
        fam = [alpha_family(pair, g) for g in grid]
        prm = [alpha_family_prime(pair, g) for g in grid]
        mono_ok &= all(b - a >= -1e-14 for a, b in zip(fam, fam[1:]))
        mono_ok &= all(a - b >= -1e-14 for a, b in zip(prm, prm[1:]))
    ok &= mono_ok
    detail.append(f"monotone on 50-pt log grid: {mono_ok}")

    worst_limit = 0.0
    for _ in range(1000):
        pair = random_pair(rng)
        b1, b2 = bb1(pair), bb2(pair)
        worst_limit = max(
            worst_limit,
            abs(alpha_family(pair, 1e8) - b1) / b1,
            abs(alpha_family(pair, 1e-8) - b2) / b2,
            abs(alpha_family_prime(pair, 1e8) - b2) / b2,
            abs(alpha_family_prime(pair, 1e-8) - b1) / b1,
        )
    ok &= worst_limit <= 1e-6
    detail.append(f"limit rel err {worst_limit:.2e}")

    report(
        2,
        "family containment in [bb2, bb1] (1e4 pairs), monotone in gamma, "
        "limits at gamma=1e+-8 within 1e-6 rel",
        ok,
        "; ".join(detail),
    )


def test_criterion_03_quotient_identity_and_convex_roundtrip(report):
    rng = np.random.default_rng(20240903)
    worst_ident = 0.0
    worst_round = 0.0
    for _ in range(10_000):
        pair = random_pair(rng)
        tls = alpha_tls(pair)
        # d is bb1 - 1/bb2; forming the difference before dividing keeps
        # the check at rounding level instead of amplifying the two
        # quotients' last ulps on nearly orthogonal pairs, and the
        # negative branch uses (d + r)(r - d) = 4 to dodge cancellation
        d = (pair.ss - pair.yy) / pair.sy
        r = math.hypot(d, 2.0)
        ident = (d + r) / 2.0 if d > 0.0 else 2.0 / (r - d)
        worst_ident = max(worst_ident, abs(tls - ident) / abs(tls))
        g = float(rng.uniform(0.05, 20.0))
        tau = tau_from_gamma(pair, g)
        back = alpha_convex(pair, tau)
        a = alpha_family(pair, g)
        worst_round = max(worst_round, abs(back - a) / abs(a))
    ident_ok = worst_ident <= 1e-12
    round_ok = worst_round <= 1e-12

    grid = np.unique(np.concatenate([np.logspace(-3, 3, 49), [1.0]]))
    worst_minmax = 0.0
    for _ in range(500):
        pair = random_pair(rng)
        tls = alpha_tls(pair)
        curve = [
            max(alpha_family(pair, g), alpha_family_prime(pair, g)) for g in grid
        ]
        # the curves cross at gamma = 1, where the max attains its minimum
        worst_minmax = max(worst_minmax, abs(min(curve) - tls))
    minmax_ok = worst_minmax <= 1e-10

    report(
        3,
        "TLS-in-BB-quotients identity and convex-weight round-trip <= 1e-12 rel "
        "(1e4 pairs); min over gamma of max(family, prime) equals the "
        "gamma=1 value to 1e-10",
        ident_ok and round_ok and minmax_ok,
        f"identity {worst_ident:.2e}, round-trip {worst_round:.2e}, "
        f"min-max {worst_minmax:.2e}",
    )


def test_criterion_04_homogeneous_quotient_matches_tls(report):
    rng = np.random.default_rng(20240904)
    worst = 0.0
    for _ in range(1000):
        pair = random_pair(rng)
        err = abs(homogeneous_residual_min(pair) - alpha_tls(pair))
        worst = max(worst, err)
    report(
        4,
        "grid-plus-refine minimizer of the homogenized residual quotient "
        "matches the gamma=1 steplength <= 1e-6 (1000 pairs)",
        worst <= 1e-6,
        f"worst |diff| {worst:.3e}",
    )


def test_criterion_05_quadratic_benchmark_ordering(report):
    policies = ("bb1", "bb2", "gamma:1", "gamma:20")
    iters = {p: [] for p in policies}
    all_solved = True
    for seed in range(10):
        inst = generate_instance(100, SpectrumSetting(1, 1e4), seed)
        for p in policies:
            tr = solve_bb(inst, parse_policy(p), 1e-6, 20_000)
            all_solved &= tr.solved
            iters[p].append(tr.iterations if tr.solved else math.inf)
    med = {p: float(np.median(iters[p])) for p in policies}
    ordering = med["gamma:20"] < med["bb1"] and med["gamma:20"] < med["bb2"]
    report(
        5,
        "n=100 setting-1 kappa=1e4 eps=1e-6, 10 seeds: every policy under the "
        "20000 cap and gamma:20 median below bb1 and bb2 medians",
        all_solved and ordering,
        "medians "
        + ", ".join(f"{p}={med[p]:g}" for p in policies),
    )


def test_criterion_06_r_linear_envelope(report):
    ok = True
    worst_frac = 1.0
    worst_slope = -math.inf
    for pol in ("bb1", "bb2", "gamma:1", "gamma:20"):
        for seed in range(10):
            inst = generate_instance(10, SpectrumSetting(1, 100.0), seed)
            tr = solve_bb(inst, parse_policy(pol), 1e-6, 20_000)
            g = tr.grad_norms()
            g = g[g > 0.0]
            k = np.arange(len(g))
            logg = np.log(g)
            slope, intercept = np.polyfit(k, logg, 1)
            worst_slope = max(worst_slope, slope)
            ok &= slope < 0.0
            # geometric envelope: the fitted trend with a three-sigma
            # allowance for nonmonotone spikes
            resid = logg - (intercept + slope * k)
            env = intercept + 3.0 * float(resid.std()) + slope * k
            frac = float(np.mean(logg <= env))
            worst_frac = min(worst_frac, frac)
            ok &= frac >= 0.95
    report(
        6,
        "n=10 kappa=100, 10 seeds x 4 policies: fitted slope of log||g|| "
        "negative and geometric envelope holds at >= 95% of iterations",
        ok,
        f"worst slope {worst_slope:.3f}, worst envelope fraction {worst_frac:.3f}",
    )


def test_criterion_07_rosenbrock_iteration_table(report):
    table = run_rosenbrock_table()  # defaults match the published protocol

    def shown(eps, pol):
        c = table.count(eps, pol)
        return "cap" if c is None else str(c)

    checks = [
        ("bb1 <= 204 at eps=1e-8",
         (lambda c: c is not None and c <= 204)(table.count(1e-8, "bb1")),
         f"got {shown(1e-8, 'bb1')}"),
        ("bb2 hits the 5000 cap before eps=1e-1",
         table.count(1e-1, "bb2") is None,
         f"got {shown(1e-1, 'bb2')}"),
        ("gamma:1 <= 92 at eps=1e-8",
         (lambda c: c is not None and c <= 92)(table.count(1e-8, "gamma:1")),
         f"got {shown(1e-8, 'gamma:1')}"),
        ("gamma:1.5 <= 86 at eps=1e-8",
         (lambda c: c is not None and c <= 86)(table.count(1e-8, "gamma:1.5")),
         f"got {shown(1e-8, 'gamma:1.5')}"),
    ]
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{name}: {'ok' if passed else got}"
                       for name, passed, got in checks)
    report(
        7,
        "Rosenbrock from (-1.2, 1), alpha0=1, documented line-search "
        "parameters: published iteration counts within 2x",
        ok,
        detail,
    )


def test_criterion_08_trace_audit_zero_violations(report):
    traces = []
    obj = rosenbrock2()
    for pol in ("bb1", "bb2", "gamma:1", "gamma:1.5"):
        cfg = SolverConfig(
            epsilon=1e-6, max_iter=5000, alpha0=1.0,
            stop_rule=STOP_POINT_DIST, target=[1.0, 1.0],
        )
        traces.append(run(obj, obj.x0, cfg, parse_policy(pol)))
    qobj = as_objective(generate_instance(30, SpectrumSetting(1, 1e3), 0))
    for pol in ("bb1", "gamma:20"):
        traces.append(
            run(qobj, qobj.x0, SolverConfig(epsilon=1e-8), parse_policy(pol))
        )
    violations = [v for tr in traces for v in audit_trace(tr)]
    report(
        8,
        "replaying every emitted line-search trace: acceptance inequality and "
        "safeguard band hold at every step, zero violations",
        not violations,
        f"{len(traces)} traces, {len(violations)} violations",
    )


def test_criterion_09_adaptive_cyclic_branches_exact(report):
    rng = np.random.default_rng(20240909)
    pair = random_pair(rng)
    b1, b2 = bb1(pair), bb2(pair)

    # the calling loop carries ATC's state: (index, prev_alpha) per call
    atc = SteplengthPolicy("atc", cycle=4)
    reset_ok = next_steplength(atc, pair, 8, 0.123) == b1

    clamp_ok = next_steplength(atc, pair, 1, b2 / 2.0) == b2

    inside = 0.5 * (b1 + b2)
    pass_ok = next_steplength(atc, pair, 2, inside) == inside

    report(
        9,
        "adaptive truncated cyclic branches exact: cycle reset to bb1, lower "
        "clamp to bb2, interior pass-through",
        reset_ok and clamp_ok and pass_ok,
        f"reset {reset_ok}, clamp {clamp_ok}, pass-through {pass_ok}",
    )


def test_criterion_10_performance_profile_correctness(report):
    table = performance_profile([[1.0, 2.0], [2.0, 2.0]])
    hand_ok = table.rho(1, 1.0) == 0.5 and table.rho(1, 2.0) == 1.0

    rng = np.random.default_rng(20240910)
    rand_ok = True
    for _ in range(100):
        costs = rng.integers(1, 500, size=(6, 3)).astype(float)
        mask = rng.uniform(size=(6, 3)) < 0.2
        mask[:, 0] = False
        costs[mask] = math.inf
        prof = performance_profile(costs)
        thetas = [1.0, 2.0, 4.0, 16.0, 1e9]
        for j in range(3):
            rhos = [prof.rho(j, t) for t in thetas]
            rand_ok &= all(a <= b for a, b in zip(rhos, rhos[1:]))
            rand_ok &= all(0.0 <= r <= 1.0 for r in rhos)
            rand_ok &= rhos[-1] == prof.solve_fraction(j)
    report(
        10,
        "profile hand case rho_1(1)=0.5, rho_1(2)=1 exact; monotone and "
        "normalized on 100 randomized matrices",
        hand_ok and rand_ok,
        f"hand {hand_ok}, randomized {rand_ok}",
    )
