"""Per-iteration run records shared by the raw and line-search solvers."""

import copy
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidParameterError, count, real

_FORMAT = "stlsbb-trace-v1"

GRADIENT_TOLERANCE = "gradient_tolerance"
ITERATION_CAP = "iteration_cap"
NONFINITE = "nonfinite"  # the objective or gradient became nan or inf
TERMINATIONS = (GRADIENT_TOLERANCE, ITERATION_CAP, NONFINITE)


@dataclass(frozen=True)
class TraceRow:
    """State at iterate k plus the step taken from it.

    alpha is the steplength entering the acceptance test, i.e. after the
    safeguard and before any backtracking; the step actually taken is
    alpha * sigma**backtracks.  fevals counts the trials leaving this
    iterate up to and including the accepted one (1 + backtracks for
    line-search runs, 0 for raw runs, which never evaluate f to decide
    anything); rows a line-search round evaluated after the accepted trial
    are discarded and not counted.  The terminal row has alpha = nan,
    backtracks = 0, fevals = 0.
    """

    k: int
    f: float
    grad_norm: float
    alpha: float
    backtracks: int = 0
    fevals: int = 0

    def to_dict(self):
        """Every field, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict: the int fields read through count, the
        float fields through real."""
        return cls(**{f.name: count(d[f.name], f.name, least=0) if f.type is int
                      else real(d[f.name], f.name) for f in fields(cls)})


@dataclass
class RunTrace:
    """Complete record of one solver run: rows for iterates 0..k_end, why
    it stopped, the final iterate, and free-form provenance in meta."""

    rows: list
    termination: str
    final_x: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise InvalidParameterError(
                f"termination must be one of {TERMINATIONS}, got {self.termination!r}"
            )
        if not self.rows:
            raise InvalidParameterError("a trace needs at least one row")
        self.final_x = np.asarray(self.final_x, dtype=float)

    @property
    def iterations(self):
        """Number of steps taken (index of the terminal row)."""
        return self.rows[-1].k

    @property
    def solved(self):
        return self.termination == GRADIENT_TOLERANCE

    def grad_norms(self):
        return np.array([r.grad_norm for r in self.rows])

    def f_values(self):
        return np.array([r.f for r in self.rows])

    def to_dict(self):
        """The trace as JSON-ready values, with its own copy of meta."""
        return {
            "format": _FORMAT,
            "termination": self.termination,
            "rows": [r.to_dict() for r in self.rows],
            "final_x": [float(v) for v in self.final_x],
            "meta": copy.deepcopy(self.meta),
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict, for a document of its format only."""
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != _FORMAT:
            raise InvalidParameterError(f"not a serialized trace (format {fmt!r})")
        return cls(
            rows=[TraceRow.from_dict(r) for r in d["rows"]],
            termination=d["termination"],
            final_x=np.array(d["final_x"], dtype=float),
            meta=copy.deepcopy(d.get("meta", {})),
        )

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))
