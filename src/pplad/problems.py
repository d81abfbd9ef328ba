"""Built-in test problems and a dense QCQP constructor.

All three built-ins violate the linear-independence constraint
qualification at their solutions, which is exactly the regime the dual
damping is designed for: the multiplier set is unbounded, yet the solver's
dual iterates stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (Box, DimensionMismatch, LipschitzHints, NonnegativeOrthant,
                    Problem, ProjectionKind, projector)


@dataclass(frozen=True)
class QcqpSpec:
    """Dense data for min 0.5 x'Qx + q'x s.t. 0.5 x'Qj x + qj'x + bj = 0, x in X.

    Q and every Qj are symmetrized on construction ((M + M') / 2) so the
    gradients are exactly Qx + q and Qj x + qj.
    """

    Q: np.ndarray
    q: np.ndarray
    Qj: tuple
    qj: tuple
    bj: tuple
    projection: ProjectionKind

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise DimensionMismatch("objective matrix", "square matrix", Q.shape)
        n = Q.shape[0]
        if q.shape != (n,):
            raise DimensionMismatch("objective linear term", (n,), q.shape)
        Qj = tuple(np.asarray(M, dtype=float) for M in self.Qj)
        qj = tuple(np.asarray(v, dtype=float) for v in self.qj)
        bj = tuple(float(b) for b in self.bj)
        if not (len(Qj) == len(qj) == len(bj)):
            raise DimensionMismatch("constraint data lengths",
                                    len(Qj), (len(qj), len(bj)))
        for j, (M, v) in enumerate(zip(Qj, qj)):
            if M.shape != (n, n):
                raise DimensionMismatch(f"constraint matrix {j}", (n, n), M.shape)
            if v.shape != (n,):
                raise DimensionMismatch(f"constraint linear term {j}", (n,), v.shape)
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "Qj", tuple(0.5 * (M + M.T) for M in Qj))
        object.__setattr__(self, "qj", qj)
        object.__setattr__(self, "bj", bj)

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    @property
    def m(self) -> int:
        return len(self.Qj)


def from_qcqp(spec: QcqpSpec, name: str = "qcqp",
              lipschitz_hints: LipschitzHints | None = None) -> Problem:
    """Wrap a QcqpSpec into a Problem with exact quadratic-form derivatives."""
    Q, q = spec.Q, spec.q
    Qj, qj, bj = spec.Qj, spec.qj, spec.bj
    n, m = spec.n, spec.m

    def objective(x):
        return float(0.5 * (x @ Q @ x) + q @ x)

    def objective_gradient(x):
        return Q @ x + q

    if m:
        def constraints(x):
            return np.array([0.5 * (x @ M @ x) + v @ x + b
                             for M, v, b in zip(Qj, qj, bj)])

        def constraint_jacobian(x):
            return np.vstack([M @ x + v for M, v in zip(Qj, qj)])
    else:
        def constraints(x):
            return np.zeros(0)

        def constraint_jacobian(x):
            return np.zeros((0, n))

    return Problem(n=n, m=m, objective=objective,
                   objective_gradient=objective_gradient,
                   constraints=constraints,
                   constraint_jacobian=constraint_jacobian,
                   projection=projector(spec.projection),
                   lipschitz_hints=lipschitz_hints, name=name)


# ---------------------------------------------------------------------------
# built-in instances
# ---------------------------------------------------------------------------

def example1() -> Problem:
    """Two circles meeting at a single point, concave objective, box constraints.

        min -(x1 - 1)^2 + x2^2
        s.t. x1^2 + x2^2 - 1 = 0,  (x1 - 2)^2 + x2^2 - 1 = 0,  -3 <= x1, x2 <= 3

    (1, 0) is the only feasible point; both constraint gradients are
    parallel there, so LICQ fails.  Over the box the constraint map has
    Lipschitz constant at most sqrt(208) (Frobenius bound at a corner).
    """

    def objective(x):
        return float(-(x[0] - 1.0) ** 2 + x[1] ** 2)

    def objective_gradient(x):
        return np.array([-2.0 * (x[0] - 1.0), 2.0 * x[1]])

    def constraints(x):
        return np.array([x[0] ** 2 + x[1] ** 2 - 1.0,
                         (x[0] - 2.0) ** 2 + x[1] ** 2 - 1.0])

    def constraint_jacobian(x):
        return np.array([[2.0 * x[0], 2.0 * x[1]],
                         [2.0 * (x[0] - 2.0), 2.0 * x[1]]])

    return Problem(
        n=2, m=2,
        objective=objective, objective_gradient=objective_gradient,
        constraints=constraints, constraint_jacobian=constraint_jacobian,
        projection=projector(Box(lo=[-3.0, -3.0], hi=[3.0, 3.0])),
        lipschitz_hints=LipschitzHints(L_c=math.sqrt(208.0)),
        name="example1")


def example2_spec() -> QcqpSpec:
    """Data of the three-variable indefinite QCQP over the nonnegative orthant."""
    return QcqpSpec(
        Q=[[-2.0, 10.0, 2.0],
           [10.0, 4.0, 1.0],
           [2.0, 1.0, -7.0]],
        q=[-12.0, -6.0, 56.0],
        Qj=([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 4.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        qj=([0.0, 0.0, -32.0], [0.0, 0.0, -8.0]),
        bj=(128.0, 32.0),
        projection=NonnegativeOrthant())


def example2() -> Problem:
    """Nonconvex QCQP with solution (0, 0, 8), objective value 224.

    The first constraint matrix is indefinite and both constraint gradients
    vanish at the solution, so LICQ fails there.
    """
    return from_qcqp(example2_spec(), name="example2")


def example3() -> Problem:
    """Complementarity problem 0 <= x1 perp x2 >= 0 on a hyperbola.

        min x1^2 + x2^2 - 4 x1 x2
        s.t. x1^2 - x2^2 - 4 = 0,  x1 x2 = 0,  x1, x2 >= 0

    The bounds live in X (nonnegative orthant); the complementarity product
    is an equality constraint.  Solution (2, 0); no constraint qualification
    holds there.
    """

    def objective(x):
        return float(x[0] ** 2 + x[1] ** 2 - 4.0 * x[0] * x[1])

    def objective_gradient(x):
        return np.array([2.0 * x[0] - 4.0 * x[1], 2.0 * x[1] - 4.0 * x[0]])

    def constraints(x):
        return np.array([x[0] ** 2 - x[1] ** 2 - 4.0, x[0] * x[1]])

    def constraint_jacobian(x):
        return np.array([[2.0 * x[0], -2.0 * x[1]],
                         [x[1], x[0]]])

    return Problem(
        n=2, m=2,
        objective=objective, objective_gradient=objective_gradient,
        constraints=constraints, constraint_jacobian=constraint_jacobian,
        projection=projector(NonnegativeOrthant()),
        name="example3")


BUILTIN_PROBLEMS = {
    "example1": example1,
    "example2": example2,
    "example3": example3,
}

# Standard starting points used throughout the tests and as CLI defaults.
DEFAULT_START = {
    "example1": (3.0, 3.0),
    "example2": (4.0, 4.0, 4.0),
    "example3": (5.0, 5.0),
}
