"""Per-iteration run records shared by the raw and line-search solvers."""

import copy
import json
import math
from itertools import starmap
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, count, real, real_array, vector

_FORMAT = "stlsbb-trace-v1"

GRADIENT_TOLERANCE = "gradient_tolerance"
ITERATION_CAP = "iteration_cap"
NONFINITE = "nonfinite"  # the objective or gradient became nan or inf
TERMINATIONS = (GRADIENT_TOLERANCE, ITERATION_CAP, NONFINITE)


class TraceRow(NamedTuple):
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


_FIELDS = TraceRow._fields
_COLUMNS = _FIELDS[1:]  # k is a row's index
_COUNTS = ("backtracks", "fevals")


class RunTrace:
    """Complete record of one solver run: iterates 0..k_end as five
    columns, why it stopped, the final iterate, and free-form provenance
    in meta.

    f, grad_norm and alpha are read-only float64 arrays, backtracks and
    fevals read-only int64 arrays, one entry per iterate; k is the index.
    final_x is a read-only float64 view of the 1-D array it is given, and
    meta a dict (None reads as {}).  The constructor takes each column as
    a sequence of one entry per iterate, and refuses an entry that is not
    a real, such as None, or not a count, naming its column; it refuses a
    final_x of bools or complex numbers (errors.real_array) or that is not
    1-D, and a meta that is not a dict, which to_json could not write or
    audit_trace read.  rows is a TraceRow view of the columns, built anew
    on every access.
    """

    def __init__(self, f, grad_norm, alpha, backtracks, fevals, termination, final_x, meta=None):
        if termination not in TERMINATIONS:
            raise InvalidParameterError(
                f"termination must be one of {TERMINATIONS}, got {termination!r}"
            )
        columns = (f, grad_norm, alpha, backtracks, fevals)
        if not len(f):
            raise InvalidParameterError("a trace needs at least one row")
        if len({len(c) for c in columns}) != 1:
            raise InvalidParameterError("a trace's columns must have one length")
        for name, values in zip(_COLUMNS, columns):
            ints = name in _COUNTS
            try:
                arr = np.array(values)
                if ints and (arr.dtype != np.int64 or (arr < 0).any()):
                    # an int64 array would truncate 2.5 to 2 and keep -1,
                    # which count refuses
                    arr = np.array([count(v, name, least=0) for v in values], dtype=np.int64)
                elif not ints and arr.dtype != np.float64:
                    # a float array would read None as nan, which real refuses
                    arr = np.array([real(v, name) for v in values], dtype=float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidParameterError(
                    f"{name} must hold {'ints' if ints else 'reals'} in range") from exc
            arr.setflags(write=False)
            setattr(self, name, arr)
        self.termination = termination
        # a read-only view, so the caller's float64 array keeps its own
        # flags and nothing is copied
        self.final_x = real_array(final_x, "final_x").view()
        if self.final_x.ndim != 1:
            raise InvalidParameterError(
                f"final_x must be 1-D, got an array of shape {self.final_x.shape}")
        self.final_x.setflags(write=False)
        self.meta = {} if meta is None else meta
        if not isinstance(self.meta, dict):
            raise InvalidParameterError(f"meta must be a dict, got {type(meta).__name__}")

    def _values(self):
        # (k, f, grad_norm, alpha, backtracks, fevals) per iterate, as
        # Python ints and floats
        alpha = self.alpha.tolist()
        if alpha[-1] != alpha[-1]:
            # math.nan itself, as the engines write it, so the rows of two
            # runs that agree compare equal
            alpha[-1] = math.nan
        return zip(range(len(alpha)), self.f.tolist(), self.grad_norm.tolist(), alpha,
                   self.backtracks.tolist(), self.fevals.tolist())

    @property
    def rows(self):
        """The iterates as TraceRows, built from the columns on each access."""
        return tuple(starmap(TraceRow, self._values()))

    @property
    def iterations(self):
        """Number of steps taken (index of the terminal row)."""
        return len(self.f) - 1

    @property
    def solved(self):
        return self.termination == GRADIENT_TOLERANCE

    def grad_norms(self):
        return self.grad_norm.copy()

    def f_values(self):
        return self.f.copy()

    def to_dict(self):
        """The trace as JSON-ready values, with its own copy of meta."""
        return {
            "format": _FORMAT,
            "termination": self.termination,
            "rows": [dict(zip(_FIELDS, v)) for v in self._values()],
            "final_x": [float(v) for v in self.final_x],
            "meta": copy.deepcopy(self.meta),
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict, for a document of its format only: each
        row's k and counts read through count, its floats through real,
        and its k must number the rows 0, 1, 2, ... in order."""
        fmt = d.get("format") if isinstance(d, dict) else None
        if fmt != _FORMAT:
            raise InvalidParameterError(f"not a serialized trace (format {fmt!r})")
        columns = {name: [] for name in _FIELDS}
        for row in d["rows"]:
            for name, column in columns.items():
                column.append(count(row[name], name, least=0) if name == "k" or name in _COUNTS
                              else real(row[name], name))
        for i, k in enumerate(columns.pop("k")):
            if k != i:
                raise InvalidParameterError(
                    f"row {i} has k = {k!r}; rows are numbered 0, 1, 2, ... in order")
        return cls(**columns, termination=d["termination"],
                   final_x=vector(d["final_x"], "final_x"),
                   meta=copy.deepcopy(d.get("meta", {})))

    def to_json(self, **kwargs):
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))
