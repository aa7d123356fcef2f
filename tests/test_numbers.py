"""The number contract: every constructor and entry point reads its counts
and reals through errors.count, errors.real and errors.inside, so a bad
number ends in InvalidParameterError and 2.5 is refused, never truncated;
and its vectors through errors.vector, which refuses bools and complex
numbers as real does."""

import math

import numpy as np
import pytest

from stlsbb import (
    ExperimentGrid,
    Objective,
    QuadraticInstance,
    SolverConfig,
    SpectrumSetting,
    StepPair,
    RunTrace,
    SteplengthPolicy,
    family_argmin,
    generate_instance,
    next_steplength,
    oracle_steplength,
    rosenbrock2,
    run,
    run_rosenbrock_table,
    solve_bb,
)
from stlsbb.errors import DimensionMismatchError, InvalidParameterError, count, inside, real, vector

PAIR = StepPair([1.0, 1.0], [1.0, 2.0])
ATC = SteplengthPolicy("atc", cycle=3)
BB1 = SteplengthPolicy("bb1")
INST = generate_instance(5, SpectrumSetting(1, 500.0), 0)
ROW = {"k": 0, "f": 1.5, "grad_norm": 0.25, "alpha": 0.1, "backtracks": 2, "fevals": 3}


def instance_doc(**changes):
    return {**INST.to_dict(), **changes}


def one_row_trace(**changes):
    return RunTrace.from_dict({"format": "stlsbb-trace-v1", "termination": "iteration_cap",
                               "rows": [{**ROW, **changes}], "final_x": [0.0]})


def sphere(x):
    return float(x @ x), 2.0 * x


# every count an entry point reads: how to pass it a value, and a valid one
COUNTS = {
    "SteplengthPolicy.cycle": (lambda v: SteplengthPolicy("atc", cycle=v), 3),
    "next_steplength.index": (lambda v: next_steplength(ATC, PAIR, v, 0.5), 1),
    "oracle_steplength.index": (lambda v: oracle_steplength(ATC, PAIR, v, 0.5), 1),
    "SpectrumSetting.setting_id": (lambda v: SpectrumSetting(v, 1e4), 2),
    "QuadraticInstance.dim": (lambda v: QuadraticInstance.from_dict(instance_doc(dim=v)), 5),
    "QuadraticInstance.setting_id": (
        lambda v: QuadraticInstance.from_dict(instance_doc(setting_id=v)), 1),
    "QuadraticInstance.seed": (lambda v: QuadraticInstance.from_dict(instance_doc(seed=v)), 0),
    "generate_instance.n": (lambda v: generate_instance(v, SpectrumSetting(1, 500.0), 0), 5),
    "generate_instance.seed": (lambda v: generate_instance(5, SpectrumSetting(1, 500.0), v), 7),
    "solve_bb.max_iter": (lambda v: solve_bb(INST, BB1, 1e-6, v), 2),
    "Objective.dim": (lambda v: Objective("sphere", v, sphere), 2),
    "SolverConfig.max_iter": (lambda v: SolverConfig(max_iter=v), 2),
    "SolverConfig.memory": (lambda v: SolverConfig(memory=v), 2),
    "SolverConfig.backtrack_cap": (lambda v: SolverConfig(backtrack_cap=v), 2),
    "ExperimentGrid.n": (lambda v: ExperimentGrid(n=v), 20),
    "ExperimentGrid.max_iter": (lambda v: ExperimentGrid(n=20, max_iter=v), 20),
    "ExperimentGrid.setting_ids": (lambda v: ExperimentGrid(n=20, setting_ids=(v,)), 2),
    "ExperimentGrid.seeds": (lambda v: ExperimentGrid(n=20, seeds=(v,)), 2),
    "run_rosenbrock_table.max_iter": (
        lambda v: run_rosenbrock_table(epsilons=(0.1,), policies=("bb2",), max_iter=v), 3),
    "RunTrace.from_dict.k": (lambda v: one_row_trace(k=v), 0),
    "RunTrace.from_dict.backtracks": (lambda v: one_row_trace(backtracks=v), 2),
    "RunTrace.from_dict.fevals": (lambda v: one_row_trace(fevals=v), 3),
}

# every real an entry point reads: how to pass it a value, a valid one,
# and one outside its range (None where every real is admitted, nan too)
REALS = {
    "SteplengthPolicy.gamma": (lambda v: SteplengthPolicy("gamma", gamma=v), 2.0, 0.0),
    "SteplengthPolicy.gamma_prime": (
        lambda v: SteplengthPolicy("gamma_prime", gamma=v), 2.0, -1.0),
    "SteplengthPolicy.tau": (lambda v: SteplengthPolicy("tau", tau=v), 0.5, 1.5),
    "family_argmin.gamma": (lambda v: family_argmin(PAIR, v), 2.0, math.inf),
    "next_steplength.prev_alpha": (lambda v: next_steplength(ATC, PAIR, 1, v), 0.5, None),
    "SpectrumSetting.kappa": (lambda v: SpectrumSetting(1, v), 500.0, 1.0),
    "QuadraticInstance.kappa": (
        lambda v: QuadraticInstance.from_dict(instance_doc(kappa=v)), 500.0, 0.5),
    "solve_bb.epsilon": (lambda v: solve_bb(INST, BB1, v, 2), 1e-6, 1.0),
    "solve_bb.alpha0": (lambda v: solve_bb(INST, BB1, 1e-6, 2, alpha0=v), 0.1, 0.0),
    "SolverConfig.epsilon": (lambda v: SolverConfig(epsilon=v), 1e-6, 0.0),
    "SolverConfig.beta": (lambda v: SolverConfig(beta=v), 0.5, 1.0),
    "SolverConfig.delta": (lambda v: SolverConfig(delta=v), 0.5, 5e-4),
    "SolverConfig.eta": (lambda v: SolverConfig(eta=v), 0.01, 1.5),
    "SolverConfig.sigma": (lambda v: SolverConfig(sigma=v), 0.5, 0.0),
    "SolverConfig.alpha0": (lambda v: SolverConfig(alpha0=v), 1.0, -2.0),
    "ExperimentGrid.kappas": (lambda v: ExperimentGrid(n=20, kappas=(v,)), 1e4, 1.0),
    "ExperimentGrid.epsilons": (lambda v: ExperimentGrid(n=20, epsilons=(v,)), 1e-6, 2.0),
    "run_rosenbrock_table.epsilons": (
        lambda v: run_rosenbrock_table(epsilons=(v,), policies=("bb2",), max_iter=3), 0.1, 0.0),
    "RunTrace.from_dict.f": (lambda v: one_row_trace(f=v), 1.5, None),
    "RunTrace.from_dict.grad_norm": (lambda v: one_row_trace(grad_norm=v), 0.25, None),
    "RunTrace.from_dict.alpha": (lambda v: one_row_trace(alpha=v), 0.1, None),
}

# True reads as 1 through both float() and operator.index, so a bool
# passed where a number belongs would go through unnoticed
BOOLS = {"True": True, "np.True_": np.True_}
BAD_COUNTS = {"2.5": 2.5, "nan": math.nan, "inf": math.inf, "text": "x", "None": None,
              "10**400": 10**400, **BOOLS}
# an instance's provenance may be unrecorded, which None says
UNRECORDED = {"QuadraticInstance.setting_id", "QuadraticInstance.seed"}


# every vector an entry point reads, by the name its errors give it: how
# to pass it a value, and a valid one
VECTORS = {
    "Objective.x0": ("x0", lambda v: Objective("sphere", 2, sphere, x0=v), [1.0, 2.0]),
    "SolverConfig.target": (
        "target", lambda v: SolverConfig(stop_rule="point_dist", target=v), [1.0, 1.0]),
    "run.x0": ("x0", lambda v: run(rosenbrock2(), v, SolverConfig(max_iter=1), BB1),
               [-1.2, 1.0]),
    **{f"QuadraticInstance.{name}": (
        name, lambda v, name=name: QuadraticInstance.from_dict(instance_doc(**{name: v})),
        getattr(INST, name)) for name in ("w1", "w2", "w3", "eigenvalues", "linear")},
    "StepPair.s": ("s", lambda v: StepPair(v, [1.0, 2.0]), [1.0, 1.0]),
    "StepPair.y": ("y", lambda v: StepPair([1.0, 1.0], v), [1.0, 2.0]),
    "RunTrace.from_dict.final_x": (
        "final_x", lambda v: RunTrace.from_dict({**one_row_trace().to_dict(), "final_x": v}),
        [0.0]),
    "RunTrace.final_x": (
        "final_x", lambda v: RunTrace([0.0], [0.0], [math.nan], [0], [0], "nonfinite", v),
        [0.0]),
}


# refused before the length is read, so one of any length will do
NOT_REAL = {**BOOLS, "1j": 1j, "bools": [True, False], "complex": np.array([1.0, 2.0 + 0j])}


@pytest.mark.parametrize("name, bad", [
    pytest.param(name, bad, id=f"{name}-{label}")
    for name in VECTORS for label, bad in NOT_REAL.items()])
def test_every_vector_refuses_bools_and_complex_numbers(name, bad):
    # as real refuses True and 1j, where a float copy would read True as
    # 1.0 and keep only the real part of 1j, with a ComplexWarning
    field, build, good = VECTORS[name]
    with pytest.raises(InvalidParameterError, match=f"^{field} must hold real numbers, not "):
        build(bad)
    build(good)


@pytest.mark.parametrize("name, bad", [
    pytest.param(name, bad, id=f"{name}-{label}")
    for name in COUNTS for label, bad in BAD_COUNTS.items()
    if not (bad is None and name in UNRECORDED)])
def test_every_count_refuses_what_is_not_a_whole_number(name, bad):
    build, _ = COUNTS[name]
    with pytest.raises(InvalidParameterError):
        build(bad)


@pytest.mark.parametrize("name", list(COUNTS))
def test_every_count_takes_integral_floats_and_integer_strings(name):
    build, good = COUNTS[name]
    for value in (good, float(good), str(good), np.int64(good)):
        build(value)


@pytest.mark.parametrize("name", list(REALS))
def test_every_real_refuses_text_nan_where_ranged_and_out_of_range(name):
    build, good, outside = REALS[name]
    bad = ["x", *BOOLS.values()] + ([] if outside is None else [math.nan, outside])
    for value in bad:
        with pytest.raises(InvalidParameterError):
            build(value)
    build(good)
    build(str(good))


def test_counts_are_stored_as_ints():
    c = SolverConfig(max_iter=2.0, memory="3", backtrack_cap=np.int64(4))
    assert (c.max_iter, c.memory, c.backtrack_cap) == (2, 3, 4)
    assert {type(v) for v in (c.max_iter, c.memory, c.backtrack_cap)} == {int}
    g = ExperimentGrid(n="20", seeds=(1.0,), setting_ids=("2",), max_iter=30.0)
    assert (g.n, g.seeds, g.setting_ids, g.max_iter) == (20, (1,), (2,), 30)
    assert Objective("sphere", 2.0, sphere).dim == 2
    assert type(SpectrumSetting(2.0, 1e4).setting_id) is int


def test_a_numpy_seed_is_read_exactly():
    # above 2^53 a float would round the seed to another one
    seed = 2**60 + 1
    inst = generate_instance(5, SpectrumSetting(1, 500.0), np.int64(seed))
    assert inst.seed == seed and type(inst.seed) is int
    want = generate_instance(5, SpectrumSetting(1, 500.0), seed)
    assert np.array_equal(inst.w1, want.w1) and np.array_equal(inst.linear, want.linear)
    assert QuadraticInstance.from_json(inst.to_json()).seed == seed
    assert ExperimentGrid(n=20, seeds=(np.int64(seed),)).seeds == (seed,)


class TestChecks:
    def test_real(self):
        assert real("2.5", "x") == 2.5 and math.isnan(real("nan", "x"))
        assert real(np.float32(0.5), "x") == 0.5
        for bad in ("x", None, 10**400, [1.0], *BOOLS.values()):
            with pytest.raises(InvalidParameterError, match="x must be a real number"):
                real(bad, "x")

    def test_inside(self):
        assert inside(0.5, "t", 0.0, 1.0) == 0.5
        assert inside(1, "t", 0.0, 1.0, closed=True) == 1.0
        assert inside("1e300", "g", 0.0, math.inf) == 1e300
        for bad in (0.0, 1.0, math.nan, -0.5):
            with pytest.raises(InvalidParameterError, match=r"t must lie in \(0, 1\)"):
                inside(bad, "t", 0.0, 1.0)
        for bad in (math.inf, math.nan, 0.0):
            with pytest.raises(InvalidParameterError, match=r"g must lie in \(0, inf\)"):
                inside(bad, "g", 0.0, math.inf)
        with pytest.raises(InvalidParameterError, match=r"t must lie in \[0, 1\]"):
            inside(1.5, "t", 0.0, 1.0, closed=True)

    def test_count(self):
        assert count(3, "n") == 3 and count(3.0, "n") == 3 and count("3", "n") == 3
        assert count(" 4 ", "n") == 4 and count("5.0", "n") == 5 and count("1e3", "n") == 1000
        assert count(np.float64(6.0), "n") == 6
        assert count(0, "k", least=0) == 0
        assert count(-7, "d", least=None) == -7
        # digit strings and numpy integers are read without a float between
        assert count(np.int64(2**60 + 1), "s") == 2**60 + 1
        assert count(str(2**60 + 1), "s") == 2**60 + 1
        assert type(count(np.int64(3), "n")) is int
        for bad in (*BAD_COUNTS.values(), 0, -1, "2.5", [1], -(10**400)):
            with pytest.raises(InvalidParameterError, match=r"n must be >= 1 and whole"):
                count(bad, "n")
        with pytest.raises(InvalidParameterError, match=r"d must be whole, got 2.5"):
            count(2.5, "d", least=None)

    def test_vector(self):
        given = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = vector(given, "x")
        assert v.tolist() == [1.0, 2.0, 3.0, 4.0] and v.dtype == np.float64
        assert not v.flags.writeable and not np.shares_memory(v, given)
        assert vector(2.5, "x").tolist() == [2.5]
        assert vector([1, "2"], "x", size=2).tolist() == [1.0, 2.0]
        assert vector([math.inf], "x").tolist() == [math.inf]
        # what stays uncaught, as in RunTrace's float columns
        assert vector([True, 0.5], "x").tolist() == [1.0, 0.5]
        assert np.isnan(vector([None], "x")).all()
        with pytest.raises(DimensionMismatchError, match=r"^x has length 4, expected 3$"):
            vector(given, "x", size=3)
        with pytest.raises(InvalidParameterError, match=r"^x must be finite$"):
            vector([1.0, math.nan], "x", finite=True)
        for bad in (True, [np.True_], [1j], np.zeros(2, dtype=np.complex64)):
            with pytest.raises(InvalidParameterError, match=r"^x must hold real numbers, not "):
                vector(bad, "x")
        # text float() cannot read is numpy's ValueError, which the CLI
        # reports as an unparseable file
        with pytest.raises(ValueError):
            vector(["one"], "x")

    def test_an_int_too_long_to_print_is_named_by_its_size(self):
        # str() of an int of more than 4 300 digits raises ValueError, so
        # the message gives its size instead of its digits
        with pytest.raises(InvalidParameterError, match=r"n must be >= 1 and whole, got an int of"):
            count(10**5000, "n")
        with pytest.raises(InvalidParameterError, match=r"x must be a real number, got an int of"):
            real(-(10**5000), "x")
