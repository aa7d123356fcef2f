"""In-memory spans recorded by wrappers around the program's module
attributes, and the self-time arithmetic over them.

A span is (name, start_ns, end_ns, parent) where parent is the index of
the enclosing span or -1.  Spans live in flat arrays while a run is
traced and are written out once, after the run.
"""

import time
from array import array
from contextlib import contextmanager


class Tracer:
    """Records spans and named counters; one tracer per traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.counters = {}
        self.last_rep = 0  # index of the first span of the latest repetition
        self._stack = []

    def _intern(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self):
        return len(self.start)

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(-1)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, on_call=None):
        """fn with a span around every call; on_call(tracer, args, result)
        adds counters after each call."""
        nid = self._intern(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if on_call is not None:
                on_call(self, args, result)
            return result

        return traced

    def rows(self, first=0):
        """Spans from index first on as (name, start_ns, end_ns, parent)
        tuples, with parents renumbered from first; spans before first
        must not be parents of later ones."""
        return [
            (self.names[n], s, e, p - first if p >= 0 else -1)
            for n, s, e, p in zip(self.name_id[first:], self.start[first:],
                                  self.end[first:], self.parent[first:])
        ]

    def write_csv(self, path, first=0):
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, s, e, p) in enumerate(self.rows(first)):
                fh.write(f"{i},{name},{s},{e},{p}\n")


def self_times(rows):
    """Per-name (calls, self_ns) from span rows.

    A span's self time is its duration minus the durations of its direct
    children; summed over a tree this counts every nanosecond once.
    """
    child_ns = [0] * len(rows)
    for _, start, end, parent in rows:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = {}
    for i, (name, start, end, _) in enumerate(rows):
        calls, self_ns = totals.get(name, (0, 0))
        totals[name] = (calls + 1, self_ns + (end - start) - child_ns[i])
    return totals


@contextmanager
def patched(targets):
    """Temporarily replace attributes.

    targets is a list of (owner, attribute, make), and the attribute is
    set to make(current value).  Originals are restored on exit in
    reverse order, so one attribute may be wrapped more than once.
    """
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
