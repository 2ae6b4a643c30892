"""Spans around calls into projsplit's public functions, recorded from outside.

A :class:`Tracer` replaces module-level names and class attributes that
the solver looks up at call time (``projsplit.engine.select_blocks``,
``LinearMap.apply``, ...) with wrappers that record one span per call:
name, start, end, parent span and run id. The originals are put back when
the :meth:`Tracer.instrument` block exits. Spans stay in flat in-memory
arrays until :meth:`Tracer.write` saves them at the end of the run.

A span's self time is its duration minus the durations of its children.
Calls nest strictly (one thread), so the children never overlap and that
difference is the part of the span not covered by any child.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from array import array

import numpy as np

from projsplit import checks, engine, operators, problems
from projsplit.checks import InvariantMonitor
from projsplit.engine import Engine
from projsplit.linalg import LinearMap, Vec
from projsplit.scheduler import HistoryBuffer


def _map_bytes(lin_map, vec) -> int:
    """Bytes one application of a map moves, computed from array sizes."""
    if lin_map.kind == "identity":
        return 0
    if lin_map.kind == "diagonal":
        return 3 * lin_map.matrix.nbytes
    rows, cols = lin_map.matrix.shape
    return lin_map.matrix.nbytes + 8 * (rows + cols)


# (span name, owner, attribute, bytes function or None). Several owners may
# share a span name when the solver binds one function under two names.
TARGETS = (
    ("engine.step", Engine, "step", None),
    ("engine.forward_update", engine, "forward_update_with_backtrack", None),
    ("engine.backward_update", engine, "backward_update", None),
    ("engine.separator", engine, "evaluate_separator", None),
    ("engine.separator_gradient", engine, "separator_gradient", None),
    ("engine.gamma_norm", engine, "gamma_norm", None),
    ("engine.project", engine, "project", None),
    ("operators.forward_eval", engine, "forward_eval", None),
    ("operators.inject_error", engine, "inject_error", None),
    ("operators.prox_eval", operators, "prox_eval", None),
    ("operators.error_gaps", engine, "error_inequality_gaps", None),
    ("operators.error_gaps", operators, "error_inequality_gaps", None),
    ("linalg.map_apply", LinearMap, "apply", _map_bytes),
    ("linalg.map_adjoint", LinearMap, "apply_adjoint", _map_bytes),
    ("linalg.derived_wn", engine, "derived_wn", None),
    ("scheduler.select", engine, "select_blocks", None),
    ("scheduler.delay", engine, "delayed_index", None),
    ("scheduler.history", HistoryBuffer, "read", None),
    ("scheduler.history", HistoryBuffer, "store", None),
    ("checks.monitor", InvariantMonitor, "__call__", None),
    ("checks.audit", checks, "audit_schedule", None),
    ("problems.kkt_residual", problems, "kkt_residual", None),
)

# Counted, not spanned: a span per Vec construction would cost more than
# the construction itself.
COUNTED = (("linalg.vec", Vec, "__init__"),)


@contextlib.contextmanager
def counting(owner, attr: str):
    """Count calls to ``owner.attr`` without timing them; yields a one-item list."""
    calls = [0]
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield calls
    finally:
        setattr(owner, attr, original)


class Tracer:
    """In-memory span store plus per-phase call counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.run_id = 0
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, name, fn, bytes_of=None):
        nid = self.intern(name)
        names, parents, runs = self.name_id, self.parent, self.run
        starts, ends, stack = self.start, self.end, self._stack
        counts, clock = self.counts, time.perf_counter_ns
        bytes_key = name + ".bytes"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0)
            if bytes_of is not None:
                counts[bytes_key] = counts.get(bytes_key, 0) + bytes_of(*args)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def instrument(self):
        """Install every wrapper; restore the original names on exit."""
        saved = []
        try:
            for name, owner, attr, bytes_of in TARGETS:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._spanned(name, getattr(owner, attr), bytes_of))
            for name, owner, attr in COUNTED:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._counted(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def call(self, name: str, run_id: int, fn, *args):
        """``fn(*args)`` in a span of the benchmark's own that belongs to run ``run_id``."""
        self.run_id = run_id
        return self._spanned(name, fn)(*args)

    def take_counts(self) -> dict[str, int]:
        """Counters since the last call; the counters restart from zero."""
        out = dict(self.counts)
        self.counts.clear()
        return out

    def write(self, path):
        """Save every span as gzip CSV: id, run, name, start_ns, end_ns, parent."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,run,name,start_ns,end_ns,parent\n")
            names = self.names
            for i, (nid, run, t0, t1, par) in enumerate(
                    zip(self.name_id, self.run, self.start, self.end, self.parent)):
                fh.write(f"{i},{run},{names[nid]},{t0},{t1},{par}\n")


class SpanTable:
    """Column view of the spans with durations and self times (ns)."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.run = np.frombuffer(tracer.run, dtype=np.int32).copy()
        start = np.frombuffer(tracer.start, dtype=np.int64)
        end = np.frombuffer(tracer.end, dtype=np.int64)
        self.dur = (end - start).astype(np.float64)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child
        # a child must lie inside its parent's interval
        self.nested = bool(np.all(start[has_parent] >= start[self.parent[has_parent]])
                           and np.all(end[has_parent] <= end[self.parent[has_parent]]))

    def mask(self, name: str, runs=None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.dur), dtype=bool)
        sel = self.name == self.names.index(name)
        if runs is not None:
            sel &= np.isin(self.run, list(runs))
        return sel

    def within(self, name: str) -> np.ndarray:
        """Spans that are ``name`` spans or have one among their ancestors."""
        inside = self.mask(name)
        anc = self.parent.copy()
        while np.any(anc >= 0):
            has = anc >= 0
            inside[has] |= inside[anc[has]]
            anc[has] = self.parent[anc[has]]
        return inside
