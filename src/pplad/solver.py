"""Single-loop alternating-direction solver on the perturbed Lagrangian.

One iteration applies, in this order,

    x      <- P_X[x - step_size * (grad f(x) + jac(x).T lam)]
    mu     <- mu + (gamma/rho)(lam - mu),  gamma = rho delta / (||lam - mu||^2 + 1)
    lam    <- mu + rho c(x)          (exact maximization, with the new x and mu)
    z      <- (lam - mu) / alpha     (exact minimization)
    delta  <- decay^(k+1) * delta0

The mu-update reads the pre-update lam and mu; the lam-update reads the
new x and new mu.  The damped dual step gamma keeps the total movement of
mu summable, which is what bounds the dual iterates without any safeguard.
Every update is a closed form or a single projection: nothing is solved
iteratively inside an iteration.  The formulas live once, in ``_advance``,
which both ``solve`` and the public one-step ``iterate`` run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .diagnostics import KktReport, RunHistory, _kkt
from .lagrangian import FullState, PenaltyParams, _value, grad_x, zhat
from .model import EvaluationError, Problem, _norm


class SolveStatus(Enum):
    CONVERGED = "converged"
    ITERATION_LIMIT = "iteration_limit"
    DIVERGED = "diverged"
    EVALUATION_ERROR = "evaluation_error"


@dataclass(frozen=True)
class SolverParams:
    """Algorithm parameters.

    step_size is the primal step (the reciprocal of the smoothness weight
    in the proximal linearization); it has no default because convergence
    depends on it problem by problem.  delta0 in (0, 1] and decay in (0, 1)
    define the dual movement budget delta_k = decay^k * delta0.  Keep decay
    close to 1 (e.g. 0.999): a fast-shrinking budget freezes mu early and
    can strand lam far from a valid multiplier.
    """

    penalty: PenaltyParams
    step_size: float
    delta0: float = 1.0
    decay: float = 0.999
    tol_optimality: float = 1e-6
    tol_feasibility: float = 1e-6
    max_iterations: int = 200000
    divergence_bound: float = 1e8

    def __post_init__(self):
        if not self.step_size > 0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if not 0 < self.delta0 <= 1:
            raise ValueError(f"delta0 must be in (0, 1], got {self.delta0}")
        if not 0 < self.decay < 1:
            raise ValueError(f"decay must be in (0, 1), got {self.decay}")
        if not self.tol_optimality > 0:
            raise ValueError(f"tol_optimality must be > 0, got {self.tol_optimality}")
        if not self.tol_feasibility > 0:
            raise ValueError(f"tol_feasibility must be > 0, got {self.tol_feasibility}")
        if not self.max_iterations >= 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if not self.divergence_bound > 0:
            raise ValueError(f"divergence_bound must be > 0, got {self.divergence_bound}")


@dataclass
class SolveOutcome:
    status: SolveStatus
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

def _advance(problem: Problem, params: SolverParams, state: FullState, grad):
    """One iteration from ``state`` given grad_x L there; returns (successor, c(x_next)).

    Order is normative: the mu-update uses the pre-update lam and mu, the
    lam-update uses the new x and new mu.  c(x_next) is returned so that
    the caller's residuals, merit and history terms reuse it instead of
    evaluating c again.
    """
    rho = params.penalty.rho
    d = state.lam - state.mu
    gam = rho * state.delta / (float(d.dot(d)) + 1.0)
    x_next = problem.project(state.x - params.step_size * grad)
    mu_next = state.mu + (gam / rho) * d
    cx = problem.c(x_next)
    lam_next = mu_next + rho * cx
    k_next = state.k + 1
    return FullState(x_next, zhat(params.penalty, lam_next, mu_next), lam_next, mu_next,
                     k=k_next, delta=params.delta0 * params.decay ** k_next,
                     gamma=gam), cx


def _history_terms(penalty: PenaltyParams, state: FullState, cx, prev: FullState | None):
    """The history terms of ``state`` (see ``RunHistory``), from c(x) at it and its predecessor.

    The terms of the step from ``prev`` are zero at k = 0, where there is none.
    """
    d = state.lam - state.mu
    rho_c = penalty.rho * cx
    row = dict(norm_z=_norm(state.z), lambda_mu_sq=float(d.dot(d)),
               gap_lambda_mu=_norm(d - rho_c), gap_z=_norm(penalty.alpha * state.z - rho_c))
    if prev is None:
        row.update(step_x_norm=0.0, step_z_norm=0.0, step_lambda_sq=0.0, step_mu_sq=0.0,
                   mu_prev_lambda_norm=0.0)
    else:
        step_lam = state.lam - prev.lam
        step_mu = state.mu - prev.mu
        row.update(step_x_norm=_norm(state.x - prev.x), step_z_norm=_norm(state.z - prev.z),
                   step_lambda_sq=float(step_lam.dot(step_lam)),
                   step_mu_sq=float(step_mu.dot(step_mu)),
                   mu_prev_lambda_norm=_norm(state.mu - prev.lam))
    return row


def iterate(problem: Problem, params: SolverParams, state: FullState) -> FullState:
    """Apply one full iteration and return the successor state.

    Raises DimensionMismatch if the state's sizes do not match the problem,
    and EvaluationError if any component comes out non-finite.
    """
    state.check_dims(problem)
    next_state, _ = _advance(problem, params, state, grad_x(problem, state))
    if not all(np.all(np.isfinite(v))
               for v in (next_state.x, next_state.z, next_state.lam, next_state.mu)):
        raise EvaluationError("non-finite iterate component", state=next_state,
                              iteration=next_state.k)
    return next_state


def initial_state(problem: Problem, params: SolverParams, x0,
                  lam0=None, mu0=None) -> FullState:
    """Build the starting state: x0 projected onto X, duals defaulting to zero.

    z starts at its closed form zhat(lam0, mu0), as every later iterate's
    does; no update reads z, so it takes no start value.
    """
    def dual(value):
        return np.zeros(problem.m) if value is None else value

    state = FullState(x0, np.zeros(problem.m), dual(lam0), dual(mu0), delta=params.delta0)
    state.check_dims(problem)
    state.x = problem.project(state.x)
    state.z = zhat(params.penalty, state.lam, state.mu)
    return state


def _stop(params: SolverParams, k: int, kkt: KktReport, row: dict):
    """Status and message if the loop stops at iteration k, else (None, "")."""
    if not all(math.isfinite(row[name])
               for name in ("objective", "optimality", "feasibility", "lagrangian")):
        return SolveStatus.EVALUATION_ERROR, f"non-finite iterate at k={k}"
    if kkt.satisfied:
        return SolveStatus.CONVERGED, ""
    if row["norm_x"] > params.divergence_bound:
        return SolveStatus.DIVERGED, f"||x|| exceeded {params.divergence_bound:g} at k={k}"
    if k >= params.max_iterations:
        return SolveStatus.ITERATION_LIMIT, ""
    return None, ""


# ---------------------------------------------------------------------------
# full solve loop
# ---------------------------------------------------------------------------

def solve(problem: Problem, params: SolverParams, x0, *,
          lam0=None, mu0=None) -> SolveOutcome:
    """Run the alternating-direction loop from x0 until a stopping condition.

    Stops with CONVERGED when the projected-gradient optimality residual
    and the feasibility residual ||c(x)|| are simultaneously below their
    tolerances, with ITERATION_LIMIT at the iteration budget, with DIVERGED
    when ||x|| exceeds the divergence bound (the boundedness assumption
    failing in practice), and with EVALUATION_ERROR when an iterate turns
    non-finite or a problem callback raises after the starting point was
    evaluated.  In both EVALUATION_ERROR cases the partial history is kept
    and the final state is the last fully evaluated one.

    The output shapes of f, grad f, c, J and the projection are checked
    against the evaluator contract; a wrong shape at the starting point
    raises DimensionMismatch naming the callback.

    The history records every iteration, k = 0 included, as scalars only:
    the trace columns plus the per-transition terms ``check_trace`` replays
    (see ``RunHistory``).  Vector memory stays O(n + m) whatever the number
    of iterations; to follow the iterate vectors, step ``iterate`` from
    ``initial_state``, which takes the same steps bit for bit.

    Parameters
    ----------
    problem, params : the model and algorithm parameters.
    x0 : array_like
        Starting point; projected onto X before the first iteration.
    lam0, mu0 : array_like, optional
        Warm-start multipliers; both default to zero vectors.  z starts at
        zhat(lam0, mu0), which is zero at the default start.

    Returns
    -------
    SolveOutcome
        Final state, KKT report and the scalar history of every iteration.
    """
    alpha, beta = params.penalty.alpha, params.penalty.beta
    history = RunHistory()

    def measure(state, grad, cx, prev):
        # the row of state, from the grad and c(x) already evaluated there
        fx = problem.f(state.x)
        kkt = _kkt(problem, state, grad, cx, params.tol_optimality, params.tol_feasibility)
        row = _history_terms(params.penalty, state, cx, prev)
        row.update(objective=fx, feasibility=kkt.feasibility, optimality=kkt.optimality,
                   lagrangian=float(_value(fx, cx, state.z, state.lam, state.mu, alpha, beta)),
                   norm_x=_norm(state.x), norm_lambda=_norm(state.lam), norm_mu=_norm(state.mu))
        return kkt, row

    cur = initial_state(problem, params, x0, lam0=lam0, mu0=mu0)
    grad = grad_x(problem, cur)
    cx = problem.c(cur.x)
    kkt, row = measure(cur, grad, cx, None)
    while True:
        history.append(cur, row)
        status, message = _stop(params, cur.k, kkt, row)
        if status is not None:
            break
        try:
            nxt, cx = _advance(problem, params, cur, grad)
            grad = grad_x(problem, nxt)
            kkt, row = measure(nxt, grad, cx, cur)
        except Exception as exc:  # a problem callback raised: keep the partial run
            status = SolveStatus.EVALUATION_ERROR
            message = f"{type(exc).__name__} raised at iteration {cur.k + 1}: {exc}"
            break
        cur = nxt

    final = replace(cur, x=cur.x.copy(), z=cur.z.copy(), lam=cur.lam.copy(), mu=cur.mu.copy())
    return SolveOutcome(status=status, final_state=final, kkt=kkt, history=history,
                        message=message)
