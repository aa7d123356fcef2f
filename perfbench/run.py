"""Layered benchmark for stlsbb.

Run from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload sweep-small-n --seed 0 --seconds 30 --trace 0

--trace 0 times the workload with no wrappers in place and reports the
end-to-end metrics.  Its time, norm_us_per_iter, is the workload's CPU
time divided by that of a fixed yardstick run in short slices between the
workload's bytecodes (perfbench/calibrate.py), so that the host's speed,
which drifts widely on a shared machine, cancels out, and divided by the
solver iterations, which vary with the seed's instances and are gated as
a metric of their own.  The whole repetition's normalised CPU time and
its raw wall and CPU seconds are printed and recorded beside it.
--trace 1 spends half the time untraced and half with spans on every
layer boundary, and reports the per-layer metrics and the tracing
overhead.  Either way the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before it
name every metric with its unit, and .bench_out/ receives the full record
(environment, samples, digests) and, when traced, the spans.

Every repetition's exact counts and output digests are checked against
perfbench/golden.json when that file holds the seed; otherwise against
the first repetition, and the digests are printed so that two commits can
be compared with each other.  --record-golden stores one repetition's
counts and digests for the seed instead of measuring.

BLAS and OpenMP threads are pinned to 1 before numpy is imported.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = PERF / "golden.json"
WORKLOAD_NAMES = ("sweep-small-n", "rawbb-large-n", "gbb-linesearch")
SETUP_RUNS = 7
MAX_FAILED_REPS = 3

E2E_UNITS = {
    "norm_us_per_iter": "us",
    "setup_s": "s",
    "iterations": "count",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "kernels.hessian_apply.calls": "count",
    "kernels.hessian_apply.self_s": "s",
    "kernels.hessian_apply.ns_per_elem": "ns",
    "kernels.hessian_apply.bytes_computed": "B",
    "kernels.hessian_apply.flops_computed": "flop",
    "kernels.hessian_apply.self_share": "fraction",
    "kernels.policy_step.calls": "count",
    "kernels.policy_step.self_s": "s",
    "kernels.raw_bb_loop.self_us_per_iter": "us",
    "quadratic.solve_bb.self_s": "s",
    "trace.rows": "count",
    "quadratic.generate_instance.calls": "count",
    "quadratic.generate_instance.self_s": "s",
    "solver.run.self_s": "s",
    "steps.next_steplength.calls": "count",
    "steps.next_steplength.self_s": "s",
    "quadratic.objective_eval.calls": "count",
    "quadratic.objective_eval.self_s": "s",
    "solver.rosenbrock2.eval.calls": "count",
    "solver.rosenbrock2.eval.self_s": "s",
    "solver.backtracks": "count",
    "solver.delta_resets": "count",
    "solver.fevals": "count",
    "solver.accept_ratio": "fraction",
    "gbb.self_share": "fraction",
    "harness.run_quadratic_sweep.self_s": "s",
    "harness.run_rosenbrock_table.self_s": "s",
    "harness.writers.self_s": "s",
    "cli.main.self_s": "s",
    "cli.import_s": "s",
    "tracing.overhead_s": "s",
    "tracing.spans": "count",
}

# Metrics read from spans inside raw_bb_loop; under numba the compiled loop
# calls the kernels directly and the wrappers never see those calls.
KERNEL_METRICS = {name for name in LAYER_UNITS
                  if name.startswith(("kernels.hessian_apply.", "kernels.policy_step.",
                                      "kernels.raw_bb_loop."))}

# Fresh interpreter: time `import stlsbb.cli`, then the workload's inputs.
SETUP_CHILD = """
import json, sys, time
src, perf, workload, seed = sys.argv[1:5]
sys.path[:0] = [src, perf]
t0 = time.perf_counter()
import stlsbb.cli
t1 = time.perf_counter()
if not stlsbb.cli.__file__.startswith(src):
    sys.exit(f"stlsbb imported from {stlsbb.cli.__file__}, not {src}")
import workloads
workloads.WORKLOADS[workload].make_inputs(int(seed))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
"""


def tail_percentile(samples):
    """Highest of p99.9, p99 and p90 with at least ten samples beyond it,
    as (p, value) by nearest rank; None when there are too few samples."""
    xs = sorted(samples)
    for p in (99.9, 99.0, 90.0):
        if len(xs) * (100.0 - p) / 100.0 >= 10:
            return p, xs[math.ceil(p / 100.0 * len(xs)) - 1]
    return None


def compare(rep, reference):
    """Mismatch messages of rep's counts and digests against a reference
    {"counts": {...}, "digests": {...}}, and how many values were checked."""
    mismatches = []
    checked = 0
    for kind in ("counts", "digests"):
        got_all = getattr(rep, kind)
        for key, want in reference.get(kind, {}).items():
            checked += 1
            got = got_all.get(key)
            if got != want:
                mismatches.append(f"{kind}.{key}: got {got!r}, golden {want!r}")
    return mismatches, checked


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment():
    import numpy as np
    from stlsbb import _jit

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numba": _jit.HAVE_NUMBA,
        "jit_enabled": _jit.JIT_ENABLED,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, "-E", "-s", "-c", SETUP_CHILD, str(SRC), str(PERF),
             workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_reps(wl, inputs, seconds, tracer=None):
    """Repeat the workload until another repetition would overrun the
    budget (at least once); returns (reps, failed repetitions).  Untraced
    repetitions run with the workload's yardstick interleaved; traced ones
    without, so that no slice lands inside a span."""
    from calibrate import Interleaved
    from spans import patched
    from workloads import trace_targets

    interleaved = Interleaved(wl.yardstick)

    reps, failed = [], 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                with interleaved:
                    reps.append(wl.run(inputs, OUT))
            else:
                tracer.last_rep = len(tracer)
                with patched(trace_targets(tracer)):
                    reps.append(wl.run(inputs, OUT, tracer))
        except Exception:  # a broken program must still yield a report
            traceback.print_exc()
            failed += 1
        now = time.perf_counter()
        if failed >= MAX_FAILED_REPS or now - start + (now - t0) > seconds:
            return reps, failed


def layer_metrics(setup_tracer, tracer, traced, untraced, setup):
    """Per-layer metrics for one traced repetition (plus the set-up that
    generated its inputs, for quadratic.generate_instance)."""
    from spans import self_times
    from workloads import HESSIAN_BYTES_PER_ELEM, HESSIAN_FLOPS_PER_ELEM

    n = len(traced)
    st = self_times(tracer.rows())
    setup_st = self_times(setup_tracer.rows())
    total_self = sum(ns for _, ns in st.values()) or 1

    def calls(name):
        return st.get(name, (0, 0))[0] / n

    def self_s(name):
        return st.get(name, (0, 0))[1] / n / 1e9

    def counter(name):
        return tracer.counters.get(name, 0) / n

    def ratio(num, den):
        return num / den if den else 0.0

    elems = counter("kernels.hessian_apply.elems")
    gbb_ns = sum(st.get(k, (0, 0))[1] for k in (
        "solver.run", "steps.next_steplength", "quadratic.objective_eval",
        "solver.rosenbrock2.eval"))
    values = {
        "kernels.hessian_apply.calls": calls("kernels.hessian_apply"),
        "kernels.hessian_apply.self_s": self_s("kernels.hessian_apply"),
        "kernels.hessian_apply.ns_per_elem":
            ratio(self_s("kernels.hessian_apply") * 1e9, elems),
        "kernels.hessian_apply.bytes_computed": elems * HESSIAN_BYTES_PER_ELEM,
        "kernels.hessian_apply.flops_computed": elems * HESSIAN_FLOPS_PER_ELEM,
        "kernels.hessian_apply.self_share":
            st.get("kernels.hessian_apply", (0, 0))[1] / total_self,
        "kernels.policy_step.calls": calls("kernels.policy_step"),
        "kernels.policy_step.self_s": self_s("kernels.policy_step"),
        "kernels.raw_bb_loop.self_us_per_iter":
            ratio(self_s("kernels.raw_bb_loop") * 1e6, counter("raw.iterations")),
        "quadratic.solve_bb.self_s": self_s("quadratic.solve_bb"),
        "trace.rows": counter("trace.rows"),
        "quadratic.generate_instance.calls": calls("quadratic.generate_instance")
            + setup_st.get("quadratic.generate_instance", (0, 0))[0],
        "quadratic.generate_instance.self_s": self_s("quadratic.generate_instance")
            + setup_st.get("quadratic.generate_instance", (0, 0))[1] / 1e9,
        "solver.run.self_s": self_s("solver.run"),
        "steps.next_steplength.calls": calls("steps.next_steplength"),
        "steps.next_steplength.self_s": self_s("steps.next_steplength"),
        "quadratic.objective_eval.calls": calls("quadratic.objective_eval"),
        "quadratic.objective_eval.self_s": self_s("quadratic.objective_eval"),
        "solver.rosenbrock2.eval.calls": calls("solver.rosenbrock2.eval"),
        "solver.rosenbrock2.eval.self_s": self_s("solver.rosenbrock2.eval"),
        "solver.backtracks": counter("solver.backtracks"),
        "solver.delta_resets": counter("solver.delta_resets"),
        "solver.fevals": counter("solver.fevals"),
        "solver.accept_ratio":
            ratio(counter("solver.iterations"), counter("solver.fevals")),
        "gbb.self_share": gbb_ns / total_self,
        "harness.run_quadratic_sweep.self_s": self_s("harness.run_quadratic_sweep"),
        "harness.run_rosenbrock_table.self_s": self_s("harness.run_rosenbrock_table"),
        "harness.writers.self_s": self_s("harness.writers"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.import_s": median([s["import_s"] for s in setup]),
        "tracing.overhead_s":
            median([r.wall_s for r in traced]) - median([r.wall_s for r in untraced]),
        "tracing.spans": len(tracer) / n,
    }
    return values


def norm_cpu_samples(wl, reps):
    return [r.timing.norm_cpu_s(wl.yardstick.ref_slice_s) for r in reps]


def e2e_metrics(wl, reps, setup):
    norm = norm_cpu_samples(wl, reps)
    return {
        "norm_us_per_iter": median([1e6 * s / r.iterations for s, r in zip(norm, reps)]),
        "setup_s": median([s["import_s"] + s["inputs_s"] for s in setup]),
        "iterations": reps[0].iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def result_line(values, units, attempted, failed, unavailable=()):
    metrics = {
        name: {"value": None if name in unavailable else values[name], "unit": unit}
        for name, unit in units.items()
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def load_golden():
    try:
        return json.loads(GOLDEN.read_text())
    except FileNotFoundError:
        return {}


def record_golden(wl, seed):
    inputs = wl.make_inputs(seed)
    rep = wl.run(inputs, OUT)
    if rep.errors:
        print(f"{wl.name} seed {seed}: {rep.errors} failed checks; not recorded",
              file=sys.stderr)
        return 1
    golden = load_golden()
    golden.setdefault(wl.name, {})[str(seed)] = {"counts": rep.counts,
                                                 "digests": rep.digests}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{wl.name} seed {seed}: recorded {rep.counts}")
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="store this seed's counts and digests in golden.json")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stlsbb" / "__init__.py").is_file():
        print(f"perfbench: no stlsbb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(PERF)]
    from spans import Tracer, patched
    from stlsbb._jit import JIT_ENABLED
    from workloads import WORKLOADS, trace_targets

    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    if args.record_golden:
        return record_golden(wl, args.seed)

    env = environment()
    setup = measure_setup(wl.name, args.seed)
    setup_tracer = Tracer()
    if args.trace:
        with patched(trace_targets(setup_tracer)):
            inputs = wl.make_inputs(args.seed)
    else:
        inputs = wl.make_inputs(args.seed)
    # the first repetitions after start-up run measurably slower
    wl.warmup(inputs, OUT)

    budget = args.seconds / 2 if args.trace else args.seconds
    reps, failed_reps = run_reps(wl, inputs, budget)
    tracer = Tracer()
    traced, failed_traced = [], 0
    if args.trace:
        traced, failed_traced = run_reps(wl, inputs, budget, tracer)
    all_reps = reps + traced
    if not reps or (args.trace and not traced):
        print("perfbench: every repetition raised; no metrics", file=sys.stderr)
        return 1

    golden = load_golden().get(wl.name, {}).get(str(args.seed))
    reference = golden or {"counts": all_reps[0].counts, "digests": all_reps[0].digests}
    mismatches, checks = [], 0
    for rep in all_reps:
        found, checked = compare(rep, reference)
        mismatches += found
        checks += checked
    attempted = sum(r.cells for r in all_reps) + checks + failed_reps + failed_traced
    failed = sum(r.errors for r in all_reps) + len(mismatches) + failed_reps + failed_traced

    if args.trace:
        values = layer_metrics(setup_tracer, tracer, traced, reps, setup)
        units = LAYER_UNITS
        unavailable = KERNEL_METRICS if JIT_ENABLED else ()
    else:
        values = e2e_metrics(wl, reps, setup)
        units = E2E_UNITS
        unavailable = ()
    result = result_line(values, units, attempted, failed, unavailable)

    samples = {
        "norm_cpu_s": norm_cpu_samples(wl, reps),
        "wall_s": [r.wall_s for r in reps],
        "cpu_s": [r.timing.cpu_s for r in reps],
        "slice_cpu_ms": [1e3 * r.timing.slice_cpu_s / r.timing.slices for r in reps],
        "setup_s": [s["import_s"] + s["inputs_s"] for s in setup],
        "cell_ms": [c * 1e3 for r in reps for c in r.cell_s],
    }
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} untraced and {len(traced)} traced repetitions, "
          f"golden {'yes' if golden else 'no (checked against the first repetition)'}")
    print(f"  environment {json.dumps(env)}")
    for name, sample in samples.items():
        tail = tail_percentile(sample)
        tail_text = f"p{tail[0]:g} {tail[1]:.6g}" if tail else "no percentile with 10 beyond"
        print(f"  {name}: median {median(sample):.6g}, {tail_text}, {len(sample)} samples")
    for name, metric in result["metrics"].items():
        value = "unavailable (numba)" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {name} = {value} {metric['unit']}")
    print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted})")
    for m in mismatches[:10]:
        print(f"  mismatch {m}")
    print(f"  digests {json.dumps(all_reps[0].digests, sort_keys=True)}")
    if args.trace:
        print("  hessian bytes/flops are computed from array sizes; the n=1e5 working "
              f"set (about 4.8 MB) fits the L3 ({env['caches'].get('L3')}), so they are "
              "not a bandwidth measurement")
        tracer.write_csv(OUT / f"spans-{wl.name}.csv", first=tracer.last_rep)
        setup_tracer.write_csv(OUT / f"spans-{wl.name}-setup.csv")
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "samples": samples,
        "traced_wall_s": [r.wall_s for r in traced], "setup": setup,
        "counts": all_reps[0].counts, "digests": all_reps[0].digests,
        "golden": bool(golden), "mismatches": mismatches, "result": result,
    }
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
