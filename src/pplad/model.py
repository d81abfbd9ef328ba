"""Problem container for equality-constrained minimization over a closed convex set.

A problem is

    min f(x)  subject to  c(x) = 0,  x in X,

with f and c continuously differentiable (possibly nonconvex) and X a
nonempty closed convex set given only through its Euclidean projection.
The solver never needs a membership test for X, just the projection.

Boundedness of X, or coercivity and lower-boundedness of f over X, is
assumed for convergence but cannot be checked computationally; it is the
caller's responsibility.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np


class DimensionMismatch(ValueError):
    """A vector or matrix has the wrong size for the operation."""

    def __init__(self, what: str, expected, actual):
        self.what = what
        self.expected = expected
        self.actual = actual
        super().__init__(f"{what}: expected {expected}, got {actual}")


def _norm(v) -> float:
    """Euclidean norm of a 1-D float array: np.linalg.norm's own formula, without its overhead."""
    return math.sqrt(v.dot(v))


def _is_count(value, least: int = 0) -> bool:
    """Whether ``value`` is an integer, a bool not counting as one, and at least ``least``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= least


def check_shape(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array; raises DimensionMismatch naming the callback otherwise."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise DimensionMismatch(f"{name} output shape", shape, value.shape)
    return value


# ---------------------------------------------------------------------------
# projection kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WholeSpace:
    """X = R^n; projection is the identity."""

    def __call__(self, v) -> np.ndarray:
        return np.asarray(v, dtype=float)


@dataclass(frozen=True)
class Box:
    """Bounds lo <= x <= hi, kept as float copies: no NaN, nor an empty lo = inf or hi = -inf.

    Projection is a coordinate-wise clamp, max with lo and then min with
    hi, so NaN propagates and a zero on a zero bound takes the bound's sign.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float, ndmin=1)
        hi = np.array(self.hi, dtype=float, ndmin=1)
        if lo.shape != hi.shape:
            raise DimensionMismatch("box bounds", lo.shape, hi.shape)
        if not np.all(lo <= hi):
            raise ValueError("box requires lo <= hi, and no NaN, in every coordinate")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise ValueError("box is empty: lo = +inf or hi = -inf in a coordinate")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.lo.size > 1 and self.lo.size != v.size:
            raise DimensionMismatch("box projection input length", self.lo.size, v.size)
        return np.minimum(np.maximum(v, self.lo), self.hi)


@dataclass(frozen=True)
class NonnegativeOrthant:
    """X = {x : x >= 0}; projection is a coordinate-wise max with 0."""

    def __call__(self, v) -> np.ndarray:
        return np.maximum(np.asarray(v, dtype=float), 0.0)


@dataclass(frozen=True)
class Ball:
    """Euclidean ball of finite center, kept as a float copy, and radius > 0; radial projection."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.array(self.center, dtype=float, ndmin=1)
        if not np.all(np.isfinite(center)):
            raise ValueError(f"ball center must be finite, got {center}")
        object.__setattr__(self, "center", center)
        if not self.radius > 0:
            raise ValueError(f"ball radius must be > 0, got {self.radius}")

    def __call__(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.center.size != v.size:
            raise DimensionMismatch("ball projection input length", self.center.size, v.size)
        offset = v - self.center
        dist = _norm(offset)
        if dist <= self.radius:
            return v
        return self.center + offset * (self.radius / dist)


ProjectionKind = Union[WholeSpace, Box, NonnegativeOrthant, Ball]


# ---------------------------------------------------------------------------
# problem definition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    """Smooth objective, smooth equality constraints, and a projection onto X.

    Evaluator contract, one checked call per field:

      f(x)       = objective(x)            -> float
      grad_f(x)  = objective_gradient(x)   -> (n,)
      c(x)       = constraints(x)          -> (m,)
      jac(x)     = constraint_jacobian(x)  -> (m, n), row j the gradient of constraint j
      project(v) = projection(v)           -> (n,), the Euclidean projection onto X

    A checked call returns its field's output as a float array (f as a
    float) and raises DimensionMismatch naming the field when the shape is
    wrong.  The solver (its gradient, residuals and loop) and ``validate``
    call the evaluators only through them; the fields stay plain callables.  The
    dual-weighted gradient term is jac(x).T @ lam, and a projection kind
    (``Box(...)``, ``Ball(...)``, ...) is a valid ``projection``.

    Evaluator outputs must depend on x alone.  A cache is allowed if a hit
    returns exactly what a fresh evaluation would and it is safe under
    concurrent calls; a Problem value may then be shared read-only across
    threads.  ``solve`` and ``kkt_report`` ask for c before J at a point, and
    for J once, so a cache may serve that order best (as ``from_qcqp``'s
    does) if every other order still gets the same values.  The caller owns
    every array an evaluator returns: no array may be held by a cache and a
    caller, or by two callers, so a caller may edit or keep what it gets.
    m = 0 is allowed, in which case constraints return a length-0 vector and
    the solver degenerates to projected gradient descent on f.

    ``lipschitz_c`` is an optional global Lipschitz constant of the
    constraint map over X.  It is advisory metadata only: the solver never
    derives its step size from it; it enables the ``lam_step`` check of
    ``check_trace``.
    """

    n: int
    m: int
    objective: Callable
    objective_gradient: Callable
    constraints: Callable
    constraint_jacobian: Callable
    projection: Callable
    lipschitz_c: Optional[float] = None
    name: str = "problem"

    def __post_init__(self):
        if not _is_count(self.n, 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not _is_count(self.m):
            raise ValueError(f"m must be a nonnegative integer, got {self.m!r}")
        if self.lipschitz_c is not None and not self.lipschitz_c >= 0:
            raise ValueError(f"lipschitz_c must be nonnegative, got {self.lipschitz_c}")

    def f(self, x) -> float:
        return float(check_shape("objective", self.objective(x), ()))

    def grad_f(self, x) -> np.ndarray:
        return check_shape("objective_gradient", self.objective_gradient(x), (self.n,))

    def c(self, x) -> np.ndarray:
        return check_shape("constraints", self.constraints(x), (self.m,))

    def jac(self, x) -> np.ndarray:
        return check_shape("constraint_jacobian", self.constraint_jacobian(x), (self.m, self.n))

    def project(self, v) -> np.ndarray:
        return check_shape("projection", self.projection(v), (self.n,))


# ---------------------------------------------------------------------------
# derivative oracle
# ---------------------------------------------------------------------------

_STEP = 1e-6
_REL_TOL = 1e-5


def fd_jacobian(fn: Callable, x) -> np.ndarray:
    """Central-difference derivative of fn at x, column i (fn(x + h e_i) - fn(x - h e_i)) / (2h).

    h = 1e-6.  A scalar fn gives its gradient, shape (n,); a vector fn of
    m outputs gives its (m, n) Jacobian, (0, n) when m = 0.  fn is called
    exactly 2n times and never at x itself.  Perturbed points are not
    projected; fn must be defined near x in all of R^n.  A non-finite value
    raises ValueError naming the coordinate.
    """
    x = np.asarray(x, dtype=float)
    columns = []
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = _STEP
        hi = np.asarray(fn(x + step), dtype=float)
        lo = np.asarray(fn(x - step), dtype=float)
        if not (np.all(np.isfinite(hi)) and np.all(np.isfinite(lo))):
            raise ValueError(f"non-finite function value while perturbing coordinate {i}")
        columns.append((hi - lo) / (2.0 * _STEP))
    return np.stack(columns, axis=-1)


def compare(analytic, numeric) -> tuple[float, bool]:
    """Elementwise max of |a - b| / (1 + |a|), and whether it is <= 1e-5."""
    a = np.asarray(analytic, dtype=float)
    b = np.asarray(numeric, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0, True
    err = float(np.max(np.abs(a - b) / (1.0 + np.abs(a))))
    return err, err <= _REL_TOL


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    max_rel_error: Optional[float] = None
    message: str = ""


@dataclass(frozen=True)
class ValidationReport:
    problem_name: str
    x0: np.ndarray
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> ValidationCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = [f"validation of {self.problem_name!r} at x0={self.x0.tolist()}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = f" max_rel_error={c.max_rel_error:.3e}" if c.max_rel_error is not None else ""
            extra += f" {c.message}" if c.message else ""
            lines.append(f"  [{status}] {c.name}{extra}")
        return "\n".join(lines)


def validate(problem: Problem, x0) -> ValidationReport:
    """Evaluate every callback at the projection of x0 and cross-check derivatives.

    Checks that the projection of x0 is finite with shape (n,), that f, its
    gradient, c, and the Jacobian are finite and correctly shaped there, and
    compares the analytic gradient/Jacobian against ``fd_jacobian``, the
    central-difference oracle with its fixed step 1e-6, under ``compare``'s
    fixed tolerance 1e-5.  A failed projection leaves nothing to evaluate
    at, so every later check is reported as skipped.  Returns a per-check
    report; nothing is raised for contract violations, they are reported
    as failed checks.
    """
    x0 = np.array(x0, dtype=float)  # the report's own copy
    if x0.shape != (problem.n,):
        raise DimensionMismatch("x0 length", problem.n, x0.shape)
    evaluators = {"objective": problem.f, "objective_gradient": problem.grad_f,
                  "constraints": problem.c, "constraint_jacobian": problem.jac}
    oracles = (("objective", "objective_gradient"), ("constraints", "constraint_jacobian"))
    try:
        x = problem.project(x0)
        failure = "" if np.all(np.isfinite(x)) else "non-finite entries"
    except Exception as exc:
        failure = repr(exc)
    if failure:
        # with no point to evaluate at, blaming the evaluators would mislead
        skipped = [ValidationCheck(name, False, message="skipped: projection failed")
                   for name in (*evaluators, *(f"{d}_fd" for _, d in oracles))]
        return ValidationReport(problem.name, x0,
                                (ValidationCheck("projection", False, message=failure),
                                 *skipped))
    checks = [ValidationCheck("projection", True)]

    values = {}  # the outputs the oracle checks may compare
    for name, call in evaluators.items():
        try:
            value = call(x)
        except Exception as exc:  # report, don't raise: this is a contract check
            checks.append(ValidationCheck(name, False, message=repr(exc)))
            continue
        finite = bool(np.all(np.isfinite(value)))
        message = "" if finite else "non-finite " + ("value" if np.ndim(value) == 0 else "entries")
        checks.append(ValidationCheck(name, finite, message=message))
        if finite or name == "objective":  # the gradient's oracle check meets a non-finite f
            values[name] = value

    for fn, derivative in oracles:
        name = f"{derivative}_fd"
        if fn not in values or derivative not in values:
            checks.append(ValidationCheck(name, False, message="skipped: evaluator failed"))
            continue
        try:
            err, ok = compare(values[derivative], fd_jacobian(getattr(problem, fn), x))
            checks.append(ValidationCheck(name, ok, max_rel_error=err))
        except ValueError as exc:
            checks.append(ValidationCheck(name, False, message=str(exc)))

    return ValidationReport(problem.name, x0, tuple(checks))
