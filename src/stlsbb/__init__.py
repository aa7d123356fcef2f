"""stlsbb: Barzilai-Borwein gradient methods with scaled-total-least-squares
steplengths.

The package provides the one-parameter steplength family interpolating the
two classical BB rules, brute-force oracles for all of its closed forms, a
matrix-free random quadratic benchmark family, a safeguarded nonmonotone
line-search solver for general smooth objectives, and an experiment
harness with performance profiles.  Everything runs as plain numpy.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    AllFailedOnProblemError,
    DegenerateInputError,
    DimensionMismatchError,
    DimensionTooSmallError,
    InvalidBracketError,
    InvalidParameterError,
    InvalidSettingError,
    LineSearchStallError,
    MissingStateError,
    NonpositiveCurvatureError,
    StlsbbError,
)
from .steps import (
    StepPair,
    SteplengthPolicy,
    alpha_convex,
    alpha_family,
    alpha_family_prime,
    alpha_tls,
    bb1,
    bb2,
    next_steplength,
    parse_policy,
    tau_from_gamma,
)
from .oracle import (
    ScalarMinProblem,
    family_argmin,
    family_prime_argmin,
    homogeneous_residual_min,
    minimize_scalar,
    oracle_steplength,
    stls_ratio,
)
from .trace import GRADIENT_TOLERANCE, ITERATION_CAP, RunTrace, TraceRow
from .quadratic import (
    QuadraticInstance,
    SpectrumSetting,
    apply_hessian,
    dense_hessian,
    generate_instance,
    gradient,
    objective,
    solve_bb,
)
from .solver import (
    Objective,
    SolverConfig,
    audit_trace,
    nonmonotone_accept,
    rosenbrock2,
    run,
    safeguard,
)
from .harness import (
    ExperimentGrid,
    ProfileTable,
    RosenbrockTable,
    SweepCell,
    average_table,
    performance_profile,
    profile_from_cells,
    profile_from_matrix_csv,
    run_quadratic_sweep,
    run_rosenbrock_table,
    sweep_from_csv,
    sweep_to_csv,
    sweep_to_json,
)

# every public name imported above; submodules bound as attributes stay out
__all__ = ["__version__"] + [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
