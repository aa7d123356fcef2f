"""Per-iteration run records shared by the raw and line-search solvers."""

import copy
import json
import math
from dataclasses import dataclass, fields
from itertools import starmap

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


_FIELDS = tuple(f.name for f in fields(TraceRow))
_COLUMNS = _FIELDS[1:]  # k is a row's index
_COUNTS = ("backtracks", "fevals")


class RunTrace:
    """Complete record of one solver run: iterates 0..k_end as five
    columns, why it stopped, the final iterate, and free-form provenance
    in meta.

    f, grad_norm and alpha are read-only float64 arrays, backtracks and
    fevals read-only int64 arrays, one entry per iterate; k is the index.
    rows is a TraceRow view of the columns, built anew on every access.
    RunTrace(rows, ...) takes rows numbered 0, 1, 2, ... in order;
    from_columns takes the columns as the engines write them.
    """

    def __init__(self, rows, termination, final_x, meta=None):
        rows = list(rows)
        for i, r in enumerate(rows):
            if r.k != i:
                raise InvalidParameterError(
                    f"row {i} has k = {r.k!r}; rows are numbered 0, 1, 2, ... in order")
        columns = [[getattr(r, name) for r in rows] for name in _COLUMNS]
        for i, name in enumerate(_COLUMNS):
            if name in _COUNTS:  # an int64 array would truncate 2.5 to 2
                columns[i] = [count(v, name, least=0) for v in columns[i]]
        self._fill(columns, termination, final_x, meta)

    @classmethod
    def from_columns(cls, f, grad_norm, alpha, backtracks, fevals, termination, final_x, meta):
        """A trace of the given columns, each a sequence of one entry per
        iterate."""
        tr = cls.__new__(cls)
        tr._fill((f, grad_norm, alpha, backtracks, fevals), termination, final_x, meta)
        return tr

    def _fill(self, columns, termination, final_x, meta):
        if termination not in TERMINATIONS:
            raise InvalidParameterError(
                f"termination must be one of {TERMINATIONS}, got {termination!r}"
            )
        if not len(columns[0]):
            raise InvalidParameterError("a trace needs at least one row")
        if len({len(c) for c in columns}) != 1:
            raise InvalidParameterError("a trace's columns must have one length")
        for name, values in zip(_COLUMNS, columns):
            try:
                arr = np.array(values, dtype=np.int64 if name in _COUNTS else float)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidParameterError(
                    f"{name} must hold {'ints' if name in _COUNTS else 'reals'} in range") from exc
            arr.setflags(write=False)
            setattr(self, name, arr)
        self.termination = termination
        self.final_x = np.asarray(final_x, dtype=float)
        self.meta = {} if meta is None else meta

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
