"""The method: its parameters, state, x-gradient, KKT residuals, iteration kernel and loop.

The merit f + <lam, c(x) - z> + <mu, z> + (alpha/2)||z||^2 - (beta/2)||lam - mu||^2
is minimized in z by (lam - mu)/alpha, leaving f + <lam, c(x)> - ||lam - mu||^2/(2 rho),
rho = alpha/(1 + alpha beta), which mu + rho c(x) maximizes in lam.  So no update
reads z, and the merit is recorded in that reduced form.  One iteration applies,
in this order,

    x      <- P_X[x - step_size * (grad f(x) + jac(x).T lam)]
    mu     <- mu + (gamma/rho)(lam - mu),  gamma = rho delta_k / (||lam - mu||^2 + 1)
    lam    <- mu + rho c(x)          (exact maximization, with the new x and mu)

at iteration k, with the dual budget delta_k = decay^k * delta0 of the schedule.
The mu-update reads the pre-update lam and mu; the lam-update reads the
new x and new mu.  The damped dual step gamma keeps the total movement of
mu summable, which is what bounds the dual iterates without any safeguard.
Every update is a closed form or a single projection: nothing is solved
iteratively inside an iteration.  The formulas live once, in ``_advance``,
and the loop lives once, in the generator ``steps``, which ``solve`` drains.

The optimality measure is the projected-gradient fixed-point residual
||x - P_X[x - grad_x L]|| (unit step inside P_X, so it does not depend on
the step size), which vanishes exactly at projected-stationary points; the
feasibility measure is ||c(x)||, the true constraint violation at every
iterate, k = 0 included.  ``kkt_report`` and the loop share ``_kkt``.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .diagnostics import RunHistory
from .model import DimensionMismatch, Problem, _is_count, _norm


@dataclass
class FullState:
    """Primal point x, the two multipliers, and the keyword-only iteration number k >= 0.

    x, lam and mu are owned float copies of the arrays given.  The perturbation
    z, the dual budget at k and the dual step from k are not state: each is a
    closed form ((lam - mu)/alpha, ``SolverParams.budget``, ``_advance``).
    """

    x: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    _: KW_ONLY
    k: int = 0

    def __post_init__(self):
        if not _is_count(self.k):
            raise ValueError(f"k must be an integer >= 0, got {self.k!r}")
        self.x, self.lam, self.mu = (np.array(v, dtype=float)
                                     for v in (self.x, self.lam, self.mu))

    def check_dims(self, problem: Problem) -> None:
        if self.x.shape != (problem.n,):
            raise DimensionMismatch("state.x length", problem.n, self.x.shape)
        for label, vec in (("lam", self.lam), ("mu", self.mu)):
            if vec.shape != (problem.m,):
                raise DimensionMismatch(f"state.{label} length", problem.m, vec.shape)


def grad_x(problem: Problem, state) -> np.ndarray:
    """Partial gradient in x: grad f(x) + jac(x).T @ lam.

    Deliberately free of z, mu, alpha and beta: the x-derivative of the
    merit function involves none of them.  The Jacobian term is formed
    first, so J is released before grad f is allocated.
    """
    dual_term = problem.jac(state.x).T @ state.lam
    return problem.grad_f(state.x) + dual_term


# ---------------------------------------------------------------------------
# residuals and the KKT report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KktReport:
    """The optimality and feasibility residuals at a state."""

    optimality: float
    feasibility: float


def _kkt(problem: Problem, state, grad, cx) -> KktReport:
    """Both residuals at a state, from grad_x L and c(x) already evaluated there."""
    return KktReport(_norm(state.x - problem.project(state.x - grad)), _norm(cx))


def kkt_report(problem: Problem, state) -> KktReport:
    """Check the state's sizes, then evaluate both residuals there."""
    state.check_dims(problem)
    cx = problem.c(state.x)
    return _kkt(problem, state, grad_x(problem, state), cx)


# ---------------------------------------------------------------------------
# parameters and outcome
# ---------------------------------------------------------------------------

class SolveStatus(Enum):
    CONVERGED = "converged"
    ITERATION_LIMIT = "iteration_limit"
    DIVERGED = "diverged"
    EVALUATION_ERROR = "evaluation_error"


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


@dataclass(frozen=True)
class SolverParams:
    """Algorithm parameters.

    step_size is the primal step (the reciprocal of the smoothness weight
    in the proximal linearization); it has no default because convergence
    depends on it problem by problem.  delta0 in (0, 1] and decay in (0, 1)
    define the dual movement budget delta_k = decay^k * delta0.  Keep decay
    close to 1 (e.g. 0.999): a fast-shrinking budget stops mu early and
    can strand lam far from a valid multiplier.
    """

    penalty: PenaltyParams
    step_size: float
    delta0: float = 1.0
    decay: float = 0.999
    tol_optimality: float = 1e-6
    tol_feasibility: float = 1e-6
    max_iterations: int = 200000

    def __post_init__(self):
        if not (self.step_size > 0 and math.isfinite(self.step_size)):
            raise ValueError(f"step_size must be finite and > 0, got {self.step_size}")
        if not 0 < self.delta0 <= 1:
            raise ValueError(f"delta0 must be in (0, 1], got {self.delta0}")
        if not 0 < self.decay < 1:
            raise ValueError(f"decay must be in (0, 1), got {self.decay}")
        if not self.tol_optimality > 0:
            raise ValueError(f"tol_optimality must be > 0, got {self.tol_optimality}")
        if not self.tol_feasibility > 0:
            raise ValueError(f"tol_feasibility must be > 0, got {self.tol_feasibility}")
        if not _is_count(self.max_iterations):
            raise ValueError(f"max_iterations must be an integer >= 0, "
                             f"got {self.max_iterations!r}")

    def budget(self, k: int) -> float:
        """The dual movement budget delta_k = decay^k * delta0 at iteration k."""
        return self.delta0 * self.decay ** k


class SolveOutcome(NamedTuple):
    """A run so far; its status is None until the run stops."""

    status: Optional[SolveStatus]
    final_state: FullState
    kkt: KktReport
    history: RunHistory
    message: str = ""

    @property
    def iterations(self) -> int:
        return self.final_state.k


# ---------------------------------------------------------------------------
# the iteration kernel
# ---------------------------------------------------------------------------

def _advance(problem: Problem, params: SolverParams, state: FullState, d, dd, grad):
    """One iteration from ``state``, given d = lam - mu, dd = ||d||^2 and grad_x L there.

    Returns the successor, c(x_next) and the dual step gamma taken into it.
    Order is normative: the mu-update uses the pre-update lam and mu, the
    lam-update uses the new x and new mu.  The successor's three arrays are
    new, so it is built without ``FullState``'s copies.
    """
    rho = params.penalty.rho
    gam = rho * params.budget(state.k) / (dd + 1.0)
    x_next = problem.project(state.x - params.step_size * grad)
    mu_next = state.mu + (gam / rho) * d
    cx = problem.c(x_next)
    nxt = object.__new__(FullState)
    nxt.x, nxt.lam, nxt.mu, nxt.k = x_next, mu_next + rho * cx, mu_next, state.k + 1
    return nxt, cx, gam


# ||x|| beyond this ends the run as DIVERGED: the boundedness assumption failing in practice
_DIVERGENCE_BOUND = 1e8


def _stop(params: SolverParams, k: int, kkt: KktReport, fx, merit, norm_x):
    """Status and message if the loop stops at iteration k, else (None, "")."""
    if not all(map(math.isfinite, (fx, kkt.optimality, kkt.feasibility, merit))):
        return SolveStatus.EVALUATION_ERROR, f"non-finite iterate at k={k}"
    if kkt.optimality <= params.tol_optimality and kkt.feasibility <= params.tol_feasibility:
        return SolveStatus.CONVERGED, ""
    if norm_x > _DIVERGENCE_BOUND:
        return SolveStatus.DIVERGED, f"||x|| exceeded {_DIVERGENCE_BOUND:g} at k={k}"
    if k >= params.max_iterations:
        return SolveStatus.ITERATION_LIMIT, ""
    return None, ""


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def steps(problem: Problem, params: SolverParams, x0, *, lam0=None, mu0=None):
    """Run the loop from x0, yielding the ``SolveOutcome`` so far after each row.

    Its state and history are live, and its status is None until the last
    yield.  Callbacks run only inside ``next()``, so breaking out ends the run;
    the first ``next()`` checks the start's sizes before any callback runs.  A
    callback that raises after the start adds a last EVALUATION_ERROR yield,
    with the last fully evaluated state.  A yielded state is changed neither
    by later steps nor by edits of x0, lam0 or mu0.
    """
    cur = FullState(x0, np.zeros(problem.m) if lam0 is None else lam0,
                    np.zeros(problem.m) if mu0 is None else mu0)
    cur.check_dims(problem)
    cur.x = problem.project(cur.x)
    rho = params.penalty.rho
    history = RunHistory()

    def record(state, d, grad, cx, prev, gam):
        """Append the row of state; return its KKT report, ||d||^2 and the stop status and message.

        The row, in ``RunHistory.COLUMNS`` order, comes from state's d = lam - mu,
        the grad and c(x) there, and prev and the dual step gam taken from it;
        its merit is L at z = (lam - mu)/alpha in the reduced form f + <lam, c> - dd/(2 rho).
        """
        fx = problem.f(state.x)
        kkt = _kkt(problem, state, grad, cx)
        dd = float(d.dot(d))
        merit = fx + float(state.lam.dot(cx)) - dd / (2.0 * rho)
        norm_x = _norm(state.x)
        if prev is None:
            step_x = step_lam_sq = step_mu_sq = mu_prev_lam = 0.0
        else:
            step_lam, step_mu = state.lam - prev.lam, state.mu - prev.mu
            step_x, mu_prev_lam = _norm(state.x - prev.x), _norm(state.mu - prev.lam)
            step_lam_sq, step_mu_sq = float(step_lam.dot(step_lam)), float(step_mu.dot(step_mu))
        history.append([fx, kkt.feasibility, kkt.optimality, merit, norm_x, _norm(state.lam),
                        _norm(state.mu), step_x, gam, params.budget(state.k), dd,
                        _norm(d - rho * cx), step_lam_sq, step_mu_sq, mu_prev_lam])
        return (kkt, dd, *_stop(params, state.k, kkt, fx, merit, norm_x))

    d = cur.lam - cur.mu
    cx, grad = problem.c(cur.x), grad_x(problem, cur)  # c before J, as at every later point
    kkt, dd, status, message = record(cur, d, grad, cx, None, 0.0)
    yield SolveOutcome(status, cur, kkt, history, message)
    while status is None:
        try:
            nxt, cx, gam = _advance(problem, params, cur, d, dd, grad)
            d = nxt.lam - nxt.mu
            grad = grad_x(problem, nxt)
            kkt, dd, status, message = record(nxt, d, grad, cx, cur, gam)
            cur = nxt
        except Exception as exc:  # a problem callback raised: keep the partial run
            status = SolveStatus.EVALUATION_ERROR
            message = f"{type(exc).__name__} raised at iteration {cur.k + 1}: {exc}"
        yield SolveOutcome(status, cur, kkt, history, message)


def solve(problem: Problem, params: SolverParams, x0, *,
          lam0=None, mu0=None) -> SolveOutcome:
    """Run the alternating-direction loop from x0 until a stopping condition.

    Stops with CONVERGED when the projected-gradient optimality residual
    and the feasibility residual ||c(x)|| are simultaneously below their
    tolerances, with ITERATION_LIMIT at the iteration budget, with DIVERGED
    when ||x|| exceeds 1e8 (the boundedness assumption failing in
    practice), and with EVALUATION_ERROR when an iterate turns
    non-finite or a problem callback raises after the starting point was
    evaluated.  In both EVALUATION_ERROR cases the partial history is kept
    and the final state is the last fully evaluated one.

    The output shapes of f, grad f, c, J and the projection are checked
    against the evaluator contract; a wrong shape at the starting point
    raises DimensionMismatch naming the callback.

    The history records every iteration, k = 0 included, as scalars only:
    the residuals, norms and steps that ``check_trace`` replays (see
    ``RunHistory``).  Vector memory stays O(n + m) whatever the number
    of iterations; to follow the iterate vectors, or to stop early, loop
    over ``steps``, the generator this function drains.

    Parameters
    ----------
    problem, params : the model and algorithm parameters.
    x0 : array_like
        Starting point; projected onto X before the first iteration.
    lam0, mu0 : array_like, optional
        Warm-start multipliers; both default to zero vectors.

    Returns
    -------
    SolveOutcome
        The last yield of ``steps``: final state, residuals and the scalar
        history of every iteration.
    """
    for outcome in steps(problem, params, x0, lam0=lam0, mu0=mu0):
        pass
    return outcome
