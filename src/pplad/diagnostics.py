"""Replay of a finished run: its history, the theory's checks over it, and its CSV form.

``RunHistory`` is the one trace representation: scalars only, O(1) per
iteration, and row k is iteration k.  The solver appends one row per
iteration; nothing here reads an iterate vector or calls the problem.

``check_trace`` replays the convergence theory's per-iteration
inequalities over the terms the solver recorded and reports every
violation; an empty list is a machine-checked consistency certificate for
the run.

``write_trace_csv`` writes k and every history column, one row per iteration,
as plain CSV with ``np.savetxt``; ``np.loadtxt(path, delimiter=",", skiprows=1,
ndmin=2)`` reads them back, and appending the rows of that table after its k
column to a new ``RunHistory`` rebuilds the run bit for bit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List

import numpy as np

@dataclass(frozen=True)
class InvariantViolation:
    """A single failed inequality: lhs <= rhs was expected but margin = lhs - rhs > 0."""

    name: str
    k: int
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs


class RunHistory:
    """Column-oriented record of every iteration of a solve run, in O(1) scalars per row.

    Row k is iteration k, and holds one float per name in ``COLUMNS``, in
    that order: ``objective`` to ``delta``, ``lagrangian`` being the merit in
    reduced form f + <lam, c> - ||lam - mu||^2/(2 rho), ``gamma`` the dual step
    into k and ``delta`` the budget at k, then the terms that ``check_trace``
    replays, formed from the vectors of that iteration:

    - state terms at k: ``lambda_mu_sq`` = ||lam_k - mu_k||^2 and the
      identity gap ``gap_lambda_mu`` = ||(lam_k - mu_k) - rho c(x_k)|| (its
      scale ||rho c(x_k)|| is rho times the ``feasibility`` column);
    - terms of the transition k-1 -> k (zero at k = 0): ``step_x_norm`` =
      ||x_k - x_{k-1}||, ``step_lambda_sq`` = ||lam_k - lam_{k-1}||^2,
      ``step_mu_sq`` = ||mu_k - mu_{k-1}||^2 and ``mu_prev_lambda_norm`` =
      ||mu_k - lam_{k-1}||.

    No iterate vector is stored: a row is 15 eight-byte numbers whatever n
    and m, and k is not stored at all.  ``column(name)`` is a live numpy
    view of the rows stored so far, and rows may be appended before and
    after any read, at amortized O(1) cost per row whatever views are
    alive.  A view keeps the rows it was taken with; a write through it is
    seen by later reads as long as no row was appended since it was taken.
    ``column("k")`` is a fresh ``arange`` of the row count, not a view.
    """

    COLUMNS = ("objective", "feasibility", "optimality", "lagrangian", "norm_x",
               "norm_lambda", "norm_mu", "step_x_norm", "gamma", "delta", "lambda_mu_sq",
               "gap_lambda_mu", "step_lambda_sq", "step_mu_sq", "mu_prev_lambda_norm")
    _INDEX = {name: j for j, name in enumerate(COLUMNS)}

    def __init__(self):
        self._table = array("d")  # row-major, one row of COLUMNS per iteration, then any room
        self._size = 0            # the floats of the rows stored so far

    def append(self, row: list) -> None:
        """Store the next iteration from ``row``, a list of one float per name in ``COLUMNS``.

        A row of the wrong length raises ValueError, one holding a non-number
        TypeError; neither is stored.
        """
        if len(row) != len(self.COLUMNS):
            raise ValueError(f"a history row has {len(self.COLUMNS)} values, got {len(row)}")
        try:
            if self._size < len(self._table):  # room from a copy: written in place, views or not
                self._table[self._size:self._size + len(row)] = array("d", row)
            else:
                self._table.fromlist(row)  # in place, amortized by the array's over-allocation
        except BufferError:  # a view pins the buffer: go on in a copy with as much room again
            self._table = self._table + array("d", row) + array("d", bytes(8 * self._size))
        self._size += len(row)

    def __len__(self):
        return self._size // len(self.COLUMNS)

    def column(self, name: str) -> np.ndarray:
        """A view of column ``name`` over the rows stored so far; for ``"k"``, the row indices."""
        if name == "k":
            return np.arange(len(self), dtype=np.int64)
        table = np.frombuffer(self._table, dtype=float, count=self._size)
        return table.reshape(-1, len(self.COLUMNS))[:, self._INDEX[name]]


# ---------------------------------------------------------------------------
# trace invariant suite
# ---------------------------------------------------------------------------

# Numerical slack applied to inequalities that hold exactly in real
# arithmetic: scale-relative, so margins of genuine violations dominate it.
_SLACK = 1e-12
_IDENTITY_TOL = 1e-10   # lam - mu = rho c(x), for k >= 1
_EXACT_TOL = 1e-12      # ||mu_{k+1} - lam_k|| equality
_DECREASE_TOL = 1e-10   # merit decrease inequalities


def check_trace(problem, history: RunHistory, params) -> List[InvariantViolation]:
    """Evaluate every checkable per-iteration inequality over a recorded run.

    A vectorized replay of the history's recorded terms (see
    ``RunHistory``): it evaluates no problem callback, because the solver
    formed each term from the c(x) it already held.  Row k of the history
    is iteration k, so each pair of consecutive rows is a transition.
    Checks, for every stored transition k -> k+1 (gamma_k is the dual step
    actually taken, delta_k the recorded budget at k):

    - mu_bound:       ||mu_k|| <= ||mu_0|| + (1/2) sum_{i<k} delta_i
    - lambda_mu_sq_nonnegative: 0 <= ||lam_k - mu_k||^2; where it fails, the root below is 0
    - mu_step:        ||mu_{k+1} - mu_k||^2 <= (gamma_k/rho)||lam_k - mu_k||^2
    - mu_step_budget: (gamma_k/rho)||lam_k - mu_k||^2 <= delta_k
    - mu_lam_contraction (exact, 1e-12 relative):
                      ||mu_{k+1} - lam_k|| = (1 - gamma_k/rho)||lam_k - mu_k||
    - state identity for k >= 1 (1e-10 relative to 1 + ||rho c(x_k)||):
                      lam_k - mu_k = rho c(x_k)
    - merit_decrease, for transitions from k >= 1 (the lam-update identity
      that the bound rests on first holds at k = 1):
                      L^{k+1} <= L^k + 2 delta_k / rho
    - lam_step, for transitions from k >= 1, when ``problem.lipschitz_c``
      supplies Lc:
                      ||lam_{k+1} - lam_k||^2 <= 2 rho^2 Lc^2 ||dx||^2 + 2 delta_k

    A NaN term fails every check that reads it, at that check's k.

    Parameters
    ----------
    problem : Problem
        The problem the run solved; only its ``lipschitz_c`` is read.  The
        lam_step check needs it, and is skipped when it is None.
    history : RunHistory
        Every iteration of the run, as ``solve`` records it.
    params : SolverParams
        The parameters the run used; only ``params.penalty.rho`` is read.

    Returns
    -------
    list of InvariantViolation
        Empty when the run is consistent with the theory.
    """
    ks = history.column("k")
    size = len(history)
    if size == 0:
        raise ValueError("empty trace: nothing to check")

    rho = params.penalty.rho
    col = history.column
    delta = col("delta")
    merit = col("lagrangian")

    # one (name, k of each entry, lhs, rhs, slack) per inequality lhs <= rhs + slack;
    # the exact checks have their tolerance in rhs, and slack 0.0
    norm_mu = col("norm_mu")
    bound = norm_mu[0] + 0.5 * np.concatenate(([0.0], np.cumsum(delta[:-1])))
    lambda_mu_sq = col("lambda_mu_sq")
    checks = [("mu_bound", ks, norm_mu, bound, _SLACK * (1.0 + bound)),
              ("lambda_mu_sq_nonnegative", ks, np.zeros(size), lambda_mu_sq, 0.0)]

    # transitions k -> k+1, and the state identity from the first lam-update on; a
    # one-row history has none, and its slices below are empty
    nlm2 = lambda_mu_sq[:-1]
    g_over_rho = col("gamma")[1:] / rho
    mid = g_over_rho * nlm2
    contraction = (1.0 - g_over_rho) * np.sqrt(np.maximum(nlm2, 0.0))
    checks += [
        ("mu_step", ks[:-1], col("step_mu_sq")[1:], mid, _SLACK * (1.0 + mid)),
        ("mu_step_budget", ks[:-1], mid, delta[:-1], _SLACK * (1.0 + delta[:-1])),
        ("mu_lam_contraction", ks[:-1], np.abs(col("mu_prev_lambda_norm")[1:] - contraction),
         _EXACT_TOL * (1.0 + contraction), 0.0),
        ("identity_lam_mu", ks[1:], col("gap_lambda_mu")[1:],
         _IDENTITY_TOL * (1.0 + rho * col("feasibility")[1:]), 0.0)]

    # merit decrease and lam displacement, from k >= 1: none below three rows
    tol = _DECREASE_TOL * (1.0 + np.abs(merit[1:-1]))
    checks.append(("merit_decrease", ks[1:-1], merit[2:],
                   merit[1:-1] + 2.0 * delta[1:-1] / rho + tol, 0.0))
    L_c = problem.lipschitz_c
    if L_c is not None:
        rhs = 2.0 * rho ** 2 * L_c ** 2 * col("step_x_norm")[2:] ** 2 + 2.0 * delta[1:-1]
        checks.append(("lam_step", ks[1:-1], col("step_lambda_sq")[2:], rhs,
                       _SLACK * (1.0 + rhs)))

    # negated, so that a NaN on either side is a violation
    violations = [InvariantViolation(name, int(k[i]), float(lhs[i]), float(rhs[i]))
                  for name, k, lhs, rhs, slack in checks
                  for i in np.flatnonzero(~(lhs <= rhs + slack))]
    violations.sort(key=lambda v: (v.k, v.name))
    return violations


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

def write_trace_csv(history: RunHistory, path) -> None:
    """Write k and ``RunHistory.COLUMNS`` as plain CSV: a header, then one row per k.

    %.17e writes every float losslessly.  The file is opened here, so its name
    never changes the bytes (savetxt gzips a .gz path).
    """
    names = ("k", *history.COLUMNS)
    table = np.column_stack([history.column(name) for name in names])
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, table, fmt=["%d"] + ["%.17e"] * len(history.COLUMNS),
                   delimiter=",", header=",".join(names), comments="")

