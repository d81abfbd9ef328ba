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
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .numcheck import FdSettings, compare, fd_gradient, fd_jacobian


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


def check_shape(name: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array; raises DimensionMismatch naming the callback otherwise."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise DimensionMismatch(f"{name} output shape", shape, value.shape)
    return value


class EvaluationError(RuntimeError):
    """An evaluator produced a non-finite value.

    Carries the offending state and, when raised inside a solver loop,
    the iteration index.
    """

    def __init__(self, message: str, state=None, iteration: int | None = None):
        self.state = state
        self.iteration = iteration
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)


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
    """Coordinate-wise bounds lo <= x <= hi; entries may be -inf / +inf, not NaN.

    Projection is a coordinate-wise clamp, max with lo and then min with
    hi, so NaN propagates and a zero on a zero bound takes the bound's sign.
    """

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.shape != hi.shape:
            raise DimensionMismatch("box bounds", lo.shape, hi.shape)
        if not np.all(lo <= hi):
            raise ValueError("box requires lo <= hi, and no NaN, in every coordinate")
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
    """Euclidean ball of finite center and radius > 0; projection scales radially when outside."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
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

    Evaluator contract:
      objective(x) -> scalar, objective_gradient(x) -> (n,),
      constraints(x) -> (m,), constraint_jacobian(x) -> (m, n) with row j
      equal to the gradient of constraint j, so the dual-weighted gradient
      term is jac.T @ lam.  projection(v) -> the Euclidean projection onto X;
      a projection kind (``Box(...)``, ``Ball(...)``, ...) is such a callable.

    Evaluator outputs must depend on x alone.  A cache is allowed if a hit
    returns exactly what a fresh evaluation would and it is safe under
    concurrent calls; a Problem value may then be shared read-only across
    threads.  m = 0 is allowed, in which case constraints return a length-0
    vector and the solver degenerates to projected gradient descent on f.

    ``lipschitz_c`` is an optional global Lipschitz constant of the
    constraint map over X.  It is advisory metadata only: the solver never
    derives its step size from it; it enables the ``lam_step`` and
    certified merit-decrease checks of ``check_trace``.
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
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m}")
        if self.lipschitz_c is not None and not self.lipschitz_c >= 0:
            raise ValueError(f"lipschitz_c must be nonnegative, got {self.lipschitz_c}")


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


def _finite_vector(name, value, shape):
    value = check_shape(name, value, shape)
    if not np.all(np.isfinite(value)):
        return None, ValidationCheck(name, False, message="non-finite entries")
    return value, ValidationCheck(name, True)


def validate(problem: Problem, x0, settings: FdSettings | None = None) -> ValidationReport:
    """Evaluate every callback at the projection of x0 and cross-check derivatives.

    Checks that the projection of x0 has shape (n,), that f, its gradient, c,
    and the Jacobian are finite and correctly shaped there, and compares the
    analytic gradient/Jacobian against the finite-difference oracle.  A
    failed projection leaves nothing to evaluate at, so every later check is
    reported as skipped.  Returns a per-check report; nothing is raised for
    contract violations, they are reported as failed checks.
    """
    settings = settings or FdSettings()
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.n,):
        raise DimensionMismatch("x0 length", problem.n, x0.shape)
    try:
        x = check_shape("projection", problem.projection(x0), (problem.n,))
    except Exception as exc:
        # with no point to evaluate at, blaming the evaluators would mislead
        skipped = [ValidationCheck(name, False, message="skipped: projection failed")
                   for name in ("objective", "objective_gradient", "constraints",
                                "constraint_jacobian", "objective_gradient_fd",
                                "constraint_jacobian_fd")]
        return ValidationReport(problem.name, x0,
                                (ValidationCheck("projection", False, message=repr(exc)),
                                 *skipped))
    checks = [ValidationCheck("projection", True)]

    fx = None
    try:
        fx = float(check_shape("objective", problem.objective(x), ()))
        good = np.isfinite(fx)
        checks.append(ValidationCheck("objective", bool(good),
                                      message="" if good else "non-finite value"))
    except Exception as exc:  # report, don't raise: this is a contract check
        checks.append(ValidationCheck("objective", False, message=repr(exc)))

    grad = None
    try:
        grad, check = _finite_vector("objective_gradient", problem.objective_gradient(x),
                                     (problem.n,))
        checks.append(check)
    except Exception as exc:
        checks.append(ValidationCheck("objective_gradient", False, message=repr(exc)))

    cx = None
    try:
        cx, check = _finite_vector("constraints", problem.constraints(x), (problem.m,))
        checks.append(check)
    except Exception as exc:
        checks.append(ValidationCheck("constraints", False, message=repr(exc)))

    jac = None
    try:
        jac, check = _finite_vector("constraint_jacobian", problem.constraint_jacobian(x),
                                    (problem.m, problem.n))
        checks.append(check)
    except Exception as exc:
        checks.append(ValidationCheck("constraint_jacobian", False, message=repr(exc)))

    if fx is not None and grad is not None:
        try:
            err, ok = compare(grad, fd_gradient(problem.objective, x, settings),
                              settings.rel_tol)
            checks.append(ValidationCheck("objective_gradient_fd", ok, max_rel_error=err))
        except ValueError as exc:
            checks.append(ValidationCheck("objective_gradient_fd", False, message=str(exc)))
    else:
        checks.append(ValidationCheck("objective_gradient_fd", False,
                                      message="skipped: evaluator failed"))

    if cx is not None and jac is not None:
        try:
            err, ok = compare(jac, fd_jacobian(problem.constraints, x, settings),
                              settings.rel_tol)
            checks.append(ValidationCheck("constraint_jacobian_fd", ok, max_rel_error=err))
        except ValueError as exc:
            checks.append(ValidationCheck("constraint_jacobian_fd", False, message=str(exc)))
    else:
        checks.append(ValidationCheck("constraint_jacobian_fd", False,
                                      message="skipped: evaluator failed"))

    return ValidationReport(problem.name, x0, tuple(checks))
