"""Spans recorded from outside the package, and the per-layer numbers derived from them.

A span is (name, start, end, parent, unit): the unit is one traced set-up
or operation.  Spans live in compact arrays while the run lasts and are
written out once at the end.  Layers are timed by wrapping the callables a
``Problem`` carries (``dataclasses.replace``) and the public entry points the
workloads call; nothing inside the package is patched for the in-process
workloads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import statistics
import time
from array import array

import numpy as np

EVALUATORS = ("objective", "objective_gradient", "constraints", "constraint_jacobian")
SOLVE = "solver.solve"
CHECK_TRACE = "diagnostics.check_trace"

# Per-layer metrics and their units, in the order they are printed.
PER_LAYER = (
    *((f"problems.{ev}.{kind}", unit) for ev in EVALUATORS
      for kind, unit in (("calls", "count"), ("s", "s"))),
    ("problems.evals_per_iter", "1/iter"),
    ("model.projection.calls", "count"),
    ("model.projection.s", "s"),
    ("solver.solve.s", "s"),
    ("solver.self_s", "s"),
    ("solver.self_us_per_iter", "us"),
    ("solver.iterations", "count"),
    ("diagnostics.check_trace.s", "s"),
    ("diagnostics.check_trace.constraints_calls", "count"),
    ("diagnostics.write_trace_csv.s", "s"),
    ("diagnostics.write_trace_csv.bytes", "B"),
    ("cli.load_qcqp.s", "s"),
    ("cli.load_qcqp.bytes", "B"),
    ("cli.main.s", "s"),
    ("cli.import.s", "s"),
    ("cli.max_rss_mib", "MiB"),
    ("trace.op_p50_s", "s"),
    ("trace.untraced_op_p50_s", "s"),
    ("trace.overhead_pct", "%"),
)


class NullTracer:
    """Tracing off: spans cost nothing and problems are used as given."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def instrument(self, problem):
        return problem

    def begin_unit(self):
        pass

    def count(self, name, value):
        pass


class Tracer:
    """In-memory span recorder with one open-span stack (single thread)."""

    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.unit = array("i")
        self.counts: list[dict] = []
        self._stack = [-1]

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_unit(self):
        """Start a new traced unit (a set-up or an operation)."""
        self.counts.append({})

    def count(self, name, value):
        units = self.counts[-1]
        units[name] = units.get(name, 0) + value

    def add(self, name, start, end, parent=None):
        """Record a finished span; returns its index."""
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._stack[-1] if parent is None else parent)
        self.unit.append(len(self.counts) - 1)
        return idx

    @contextlib.contextmanager
    def span(self, name):
        idx = self.add(name, time.perf_counter(), 0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.end[idx] = time.perf_counter()

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            idx = self.add(name, time.perf_counter(), 0.0)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[idx] = time.perf_counter()
        return timed

    def instrument(self, problem):
        """A copy of ``problem`` whose evaluators and projection record spans."""
        wrapped = {ev: self.wrap(f"problems.{ev}", getattr(problem, ev)) for ev in EVALUATORS}
        return dataclasses.replace(problem, projection=self.wrap("model.projection",
                                                                 problem.projection),
                                   **wrapped)

    def arrays(self):
        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float),
                "parent": np.array(self.parent, dtype=np.int64),
                "unit": np.array(self.unit, dtype=np.int32),
                "names": np.array(self.names, dtype=str)}

    def save(self, path):
        np.savez(path, counts=json.dumps(self.counts[-1] if self.counts else {}),
                 **self.arrays())

    def absorb(self, path):
        """Add the spans and last unit's counts another process saved to the current unit."""
        with np.load(path) as data:
            for name, value in json.loads(str(data["counts"])).items():
                self.count(name, value)
            names = [str(n) for n in data["names"]]
            base = len(self.name)
            outer = self._stack[-1]
            for nid, start, end, parent in zip(data["name"].tolist(), data["start"].tolist(),
                                               data["end"].tolist(), data["parent"].tolist()):
                self.add(names[nid], start, end, parent=outer if parent < 0 else base + parent)

    def unit_metrics(self):
        """Per-layer totals of each traced unit, as a list of dicts (one per unit)."""
        a = self.arrays()
        k = len(self.names) + 1
        parent_name = np.where(a["parent"] >= 0, a["name"][np.maximum(a["parent"], 0)], -1)
        key = (a["unit"].astype(np.int64) * k + a["name"]) * k + parent_name + 1
        keys, inverse = np.unique(key, return_inverse=True)
        calls = np.bincount(inverse, minlength=keys.size)
        total = np.bincount(inverse, weights=a["end"] - a["start"], minlength=keys.size)
        # (name, parent name) -> (calls, seconds), for each unit
        groups = [dict() for _ in self.counts]
        for kk, c, s in zip(keys.tolist(), calls.tolist(), total.tolist()):
            rest, parent = divmod(kk, k)
            unit, name = divmod(rest, k)
            parent = self.names[parent - 1] if parent else None
            groups[unit][(self.names[name], parent)] = (c, s)
        return [_layer_totals(g, counts) for g, counts in zip(groups, self.counts)]


_ANY = object()


def _layer_totals(group, counts):
    def calls_s(name, parent=_ANY):
        picked = [cs for (n, p), cs in group.items()
                  if n == name and (parent is _ANY or p == parent)]
        return sum(c for c, _ in picked), sum(s for _, s in picked)

    m = {}
    for ev in EVALUATORS:
        c, s = calls_s(f"problems.{ev}", SOLVE)
        if c:
            m[f"problems.{ev}.calls"], m[f"problems.{ev}.s"] = c, s
    c, s = calls_s("model.projection", SOLVE)
    if c:
        m["model.projection.calls"], m["model.projection.s"] = c, s
    c, s = calls_s(SOLVE)
    if c:
        m["solver.solve.s"] = s
        m["solver.self_s"] = s - sum(child_s for (_, p), (_, child_s) in group.items()
                                     if p == SOLVE)
    c, s = calls_s(CHECK_TRACE)
    if c:
        m["diagnostics.check_trace.s"] = s
        m["diagnostics.check_trace.constraints_calls"] = calls_s("problems.constraints",
                                                                 CHECK_TRACE)[0]
    for name in ("diagnostics.write_trace_csv", "cli.load_qcqp", "cli.main", "cli.import"):
        c, s = calls_s(name)
        if c:
            m[f"{name}.s"] = s
    m.update(counts)
    iters = m.get("solver.iterations", 0)
    if iters and "solver.self_s" in m:
        m["problems.evals_per_iter"] = sum(
            m.get(f"problems.{ev}.calls", 0) for ev in EVALUATORS) / iters
        m["solver.self_us_per_iter"] = 1e6 * m["solver.self_s"] / iters
    return m


def per_layer_medians(units):
    """Each per-layer metric as the median over the units in which its layer ran (0 if none)."""
    return {name: statistics.median([u[name] for u in units if name in u] or [0])
            for name, _ in PER_LAYER}
