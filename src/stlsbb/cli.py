"""Command-line interface.

Subcommands: steps (evaluate a steplength policy on one secant pair),
quad (solve one random quadratic instance), rosenbrock (the iteration
table), bench (sweep a grid of quadratic instances), profile (performance
profile from a cost matrix or a sweep).  Exit codes: 0 on success, 1 for
usage or input-file problems, 2 when a computation fails or a --verify
check disagrees.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__, harness, oracle, quadratic
from .errors import InvalidParameterError, StlsbbError
from .harness import fmt17
from .steps import _KINDS, StepPair, next_steplength, parse_policy


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _split(text, parse, what):
    """text's comma-separated values through parse; a bad one is a usage error."""
    try:
        return [parse(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated {what}: {text!r}")


def _vector(text):
    return np.array(_split(text, float, "vector"), dtype=float)


def _float_list(text):
    return _split(text, float, "float list")


def _int_list(text):
    return _split(text, int, "int list")


def _parse_seeds(text):
    """'10' means seeds 0..9; '0,3,7' means exactly those."""
    try:
        if "," in text:
            return [int(v) for v in text.split(",")]
        return list(range(int(text)))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed count or list: {text!r}")


def _policy_list(text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("empty policy list")
    for p in parts:
        try:
            parse_policy(p)
        except InvalidParameterError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parts


def _read_text(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        print(f"stlsbb: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _parse_file(path, parse):
    """parse(text of path); malformed content is an input-file problem
    (exit 1).  A package error such as a failed validation is not caught
    here and keeps exit 2."""
    text = _read_text(path)
    try:
        return parse(text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        print(f"stlsbb: cannot parse {path}: {type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _write_text(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        print(f"stlsbb: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(1)


def _cmd_steps(args):
    pair = StepPair(args.s, args.y)
    policy = parse_policy(args.policy)
    alpha = next_steplength(policy, pair)
    print(fmt17(alpha))
    if args.verify:
        ref = oracle.oracle_steplength(policy, pair)
        err = abs(alpha - ref)
        scale = max(1.0, abs(ref))
        print(f"oracle {fmt17(ref)} |diff| {err:.3e}")
        if err > args.tol * scale:
            print(
                f"stlsbb: closed form and oracle disagree beyond {args.tol:g}",
                file=sys.stderr,
            )
            return 2
    return 0


def _cmd_quad(args):
    if args.instance:
        inst = _parse_file(args.instance, quadratic.QuadraticInstance.from_json)
    else:
        setting = quadratic.SpectrumSetting(args.setting, args.kappa)
        inst = quadratic.generate_instance(args.n, setting, args.seed)
    if args.save_instance:
        _write_text(args.save_instance, inst.to_json(indent=2))
    if args.generate_only:
        # a hand-built instance records none of its provenance
        provenance = (inst.setting_id, None if inst.kappa is None else f"{inst.kappa:g}",
                      inst.seed)
        setting, kappa, seed = ("none" if v is None else v for v in provenance)
        print(f"instance n={inst.dim} setting={setting} kappa={kappa} seed={seed}")
        return 0
    policy = parse_policy(args.policy)
    tr = quadratic.solve_bb(inst, policy, args.epsilon, args.max_iter, alpha0=args.alpha0)
    print(
        f"policy={args.policy} n={inst.dim} iterations={tr.iterations} "
        f"termination={tr.termination} grad_norm={tr.grad_norm[-1]:.6e}"
    )
    if args.trace:
        _write_text(args.trace, tr.to_json(indent=2))
    return 0 if tr.solved else 2


def _given(args, *names):
    """The options among names given on the command line, by the library
    parameter each is named after; the rest keep the library's defaults."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _cmd_rosenbrock(args):
    table = harness.run_rosenbrock_table(**_given(args, "epsilons", "policies", "max_iter"))
    print(table.render())
    if args.out:
        _write_text(args.out, table.to_csv())
    return 0


def _cmd_bench(args):
    grid = harness.ExperimentGrid(n=args.n, **_given(
        args, "setting_ids", "kappas", "epsilons", "seeds", "policies", "max_iter"))
    progress = None
    if not args.quiet:
        done = [0]
        total = grid.cell_count()

        def progress(cell):
            done[0] += 1
            print(f"\r{done[0]}/{total} cells", end="", file=sys.stderr, flush=True)

    cells = harness.run_quadratic_sweep(grid, progress=progress)
    if not args.quiet:
        print(file=sys.stderr)
    if args.out:
        text = harness.sweep_to_json(cells) if args.json else harness.sweep_to_csv(cells)
        _write_text(args.out, text)
    averages = harness.averages_to_csv(harness.average_table(cells))
    print(averages, end="")
    if args.averages:
        _write_text(args.averages, averages)
    if args.profile:
        prof = harness.profile_from_cells(cells)
        _write_text(args.profile, prof.to_csv())
    n_err = sum(1 for c in cells if c.status.startswith("error"))
    return 2 if n_err else 0


def _cmd_profile(args):
    if args.cells:
        prof = harness.profile_from_cells(_parse_file(args.cells, harness.sweep_from_csv))
    else:
        prof = _parse_file(args.costs, harness.profile_from_matrix_csv)
    text = prof.to_csv()
    if args.out:
        _write_text(args.out, text)
        for j, name in enumerate(prof.solvers):
            print(f"{name}: solves {prof.solve_fraction(j):.3f}, "
                  f"rho(1)={prof.rho(j, 1.0):.3f}, rho(2)={prof.rho(j, 2.0):.3f}")
    else:
        print(text, end="")
    return 0


def build_parser():
    p = _Parser(prog="stlsbb", description=__doc__.split("\n\n")[1])
    p.add_argument("--version", action="version", version=f"stlsbb {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("steps", parents=[], help="evaluate a steplength policy on a secant pair")
    ps.add_argument("--s", type=_vector, required=True, help="iterate difference, comma-separated")
    ps.add_argument("--y", type=_vector, required=True, help="gradient difference, comma-separated")
    ps.add_argument("--policy", default="gamma:1", help=" | ".join(
        name if own is None else f"{name}:{own[0].upper()}" for name, own in _KINDS.values()))
    ps.add_argument("--verify", action="store_true",
                    help="cross-check against the brute-force oracle")
    ps.add_argument("--tol", type=float, default=1e-6, help="verify tolerance (relative)")
    ps.set_defaults(func=_cmd_steps)

    pq = sub.add_parser("quad", help="solve one random quadratic instance with the raw BB method")
    pq.add_argument("--n", type=int, default=100)
    pq.add_argument("--setting", type=int, default=1, help="spectrum recipe 1..7")
    pq.add_argument("--kappa", type=float, default=1e4, help="condition number")
    pq.add_argument("--seed", type=int, default=0)
    pq.add_argument("--policy", default="gamma:1")
    pq.add_argument("--epsilon", type=float, default=1e-6, help="relative gradient tolerance")
    pq.add_argument("--max-iter", type=int, default=20000)
    pq.add_argument("--alpha0", type=float, default=None,
                    help="opening steplength (default: 1/||g0||_inf)")
    pq.add_argument("--trace", metavar="PATH", help="write the full run trace as JSON")
    pq.add_argument("--instance", metavar="PATH", help="load an instance instead of generating")
    pq.add_argument("--save-instance", metavar="PATH", help="serialize the instance as JSON")
    pq.add_argument("--generate-only", action="store_true", help="build/save the instance, no solve")
    pq.set_defaults(func=_cmd_quad)

    # the table's and the grid's options default to the library's: an
    # option not given is not passed on
    library = argparse.SUPPRESS
    pr = sub.add_parser("rosenbrock", help="iteration table on the planar Rosenbrock valley")
    pr.add_argument("--epsilons", type=_float_list, default=library)
    pr.add_argument("--policies", type=_policy_list, default=library)
    pr.add_argument("--max-iter", type=int, default=library)
    pr.add_argument("--out", metavar="PATH", help="also write the table as CSV")
    pr.set_defaults(func=_cmd_rosenbrock)

    pb = sub.add_parser("bench", help="sweep a grid of quadratic instances")
    pb.add_argument("--n", type=int, default=100)
    pb.add_argument("--settings", type=_int_list, dest="setting_ids", metavar="SETTINGS",
                    default=library, help="spectrum recipes")
    pb.add_argument("--kappas", type=_float_list, default=library)
    pb.add_argument("--epsilons", type=_float_list, default=library)
    pb.add_argument("--seeds", type=_parse_seeds, default=library,
                    help="a count N (seeds 0..N-1) or an explicit list")
    pb.add_argument("--policies", type=_policy_list, default=library)
    pb.add_argument("--max-iter", type=int, default=library)
    pb.add_argument("--out", metavar="PATH", help="write per-cell results")
    pb.add_argument("--json", action="store_true", help="write cells as JSON instead of CSV")
    pb.add_argument("--averages", metavar="PATH", help="write the averages table as CSV")
    pb.add_argument("--profile", metavar="PATH", help="write a performance profile CSV")
    pb.add_argument("--quiet", action="store_true", help="no progress output")
    pb.set_defaults(func=_cmd_bench)

    pp = sub.add_parser("profile", help="performance profile from costs")
    src = pp.add_mutually_exclusive_group(required=True)
    src.add_argument("--costs", metavar="PATH",
                     help="cost-matrix CSV: header row, then one row per problem")
    src.add_argument("--cells", metavar="PATH", help="sweep CSV from 'bench --out'")
    pp.add_argument("--out", metavar="PATH", help="write the profile curve CSV")
    pp.set_defaults(func=_cmd_profile)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StlsbbError as exc:
        print(f"stlsbb: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
