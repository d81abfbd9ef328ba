"""Perturbed Lagrangian with dual proximal regularization.

The constraint c(x) = 0 is split via a perturbation variable z into
c(x) = z and z = 0, with multipliers lam and mu respectively.  The merit
function is

    L(x, z, lam, mu) = f(x) + <lam, c(x) - z> + <mu, z>
                       + (alpha/2) ||z||^2 - (beta/2) ||lam - mu||^2,

which carries no quadratic penalty on c(x) - z and is strongly concave in
each multiplier separately thanks to the -(beta/2)||lam - mu||^2 term.
Minimizing in z has the closed form ``zhat``; substituting it gives the
reduced form

    f(x) + <lam, c(x)> - (1/(2 rho)) ||lam - mu||^2,   rho = alpha/(1 + alpha beta),

whose maximizer in lam is mu + rho c(x), the solver's lam-update.  The
solver records its merit in this form; ``eval_full`` keeps the general z.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from .model import DimensionMismatch, EvaluationError, Problem


@dataclass(frozen=True)
class PenaltyParams:
    """Finite penalty weight alpha > 0, proximal weight beta in (0, 1).

    rho = alpha / (1 + alpha*beta) is derived once at construction and
    frozen, so it can never drift from (alpha, beta).  It satisfies
    0 < rho < min(alpha, 1/beta) and 1/(2 rho) = 1/(2 alpha) + beta/2.
    """

    alpha: float
    beta: float
    rho: float = field(init=False)

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        object.__setattr__(self, "rho", self.alpha / (1.0 + self.alpha * self.beta))


@dataclass
class FullState:
    """Primal point x, the two multipliers, and the keyword-only iteration number k >= 0.

    The perturbation z, the dual budget at k and the dual step from k are not
    state: each is a closed form (``zhat``, ``SolverParams.budget``, ``solver``).
    """

    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    _: KW_ONLY
    k: int = 0

    def __post_init__(self):
        if not (isinstance(self.k, numbers.Integral) and self.k >= 0):
            raise ValueError(f"k must be an integer >= 0, got {self.k!r}")
        self.x, self.lam, self.mu = (np.asarray(v, dtype=float)
                                     for v in (self.x, self.lam, self.mu))

    def check_dims(self, problem: Problem) -> None:
        if self.x.shape != (problem.n,):
            raise DimensionMismatch("state.x length", problem.n, self.x.shape)
        for label, vec in (("lam", self.lam), ("mu", self.mu)):
            if vec.shape != (problem.m,):
                raise DimensionMismatch(f"state.{label} length", problem.m, vec.shape)


def eval_full(problem: Problem, params: PenaltyParams, state, z=None) -> float:
    """Value of the full merit function at (x, z, lam, mu), z defaulting to zhat(lam, mu).

    Raises DimensionMismatch if the state's sizes or z's shape (m,) do not match the problem.
    """
    state.check_dims(problem)
    z = zhat(params, state.lam, state.mu) if z is None else np.asarray(z, dtype=float)
    if z.shape != (problem.m,):
        raise DimensionMismatch("z length", problem.m, z.shape)
    d = state.lam - state.mu
    value = float(problem.f(state.x) + state.lam @ (problem.c(state.x) - z) + state.mu @ z
                  + 0.5 * params.alpha * (z @ z) - 0.5 * params.beta * (d @ d))
    if not np.isfinite(value):
        raise EvaluationError("non-finite merit value", state=state)
    return value


def grad_x(problem: Problem, state) -> np.ndarray:
    """Partial gradient in x: grad f(x) + jac(x).T @ lam.

    Deliberately free of z, mu, alpha and beta: the x-derivative of the
    merit function involves none of them.  The Jacobian term is formed
    first, so J is released before grad f is allocated.
    """
    if problem.m == 0:
        return problem.grad_f(state.x)
    dual_term = problem.jac(state.x).T @ state.lam
    return problem.grad_f(state.x) + dual_term


def zhat(params: PenaltyParams, lam, mu) -> np.ndarray:
    """Unique minimizer of the merit function in z: (lam - mu) / alpha."""
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if lam.shape != mu.shape:
        raise DimensionMismatch("zhat multiplier lengths", lam.shape, mu.shape)
    return (lam - mu) / params.alpha
