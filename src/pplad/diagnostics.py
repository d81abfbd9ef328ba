"""Replay of a finished run: its history, the theory's checks over it, and its CSV form.

``RunHistory`` is the one trace representation: scalars only, O(1) per
iteration, and row k is iteration k.  The solver appends one row per
iteration; nothing here reads an iterate vector or calls the problem.

``check_trace`` replays the convergence theory's per-iteration
inequalities that a run can fail over the terms the solver recorded, and
reports every violation; an empty list is a machine-checked consistency
certificate for the run.

``write_trace_csv`` writes k and every history column, one row per iteration,
as plain CSV with ``np.savetxt``; ``np.loadtxt(path, delimiter=",", skiprows=1,
ndmin=2)`` reads them back, and ``RunHistory(table[:, 1:])``, the columns after
k, rebuilds the run bit for bit.
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
    that order: ``objective`` to ``norm_mu``, ``lagrangian`` being the merit in
    reduced form f + <lam, c> - ||lam - mu||^2/(2 rho), then the steps of
    the transition k-1 -> k (zero at k = 0) and the budget at k:
    ``step_x_norm`` = ||x_k - x_{k-1}||, ``delta``, ``step_lambda_sq`` =
    ||lam_k - lam_{k-1}||^2 and ``step_mu_sq`` = ||mu_k - mu_{k-1}||^2.

    No iterate vector is stored: a row is 11 eight-byte numbers whatever n
    and m, and k is not stored at all.  ``column(name)`` is a live numpy
    view of the rows stored so far, and rows may be appended before and
    after any read, at amortized O(1) cost per row whatever views are
    alive.  A view keeps the rows it was taken with; a write through it is
    seen by later reads as long as no row was appended since it was taken.
    ``column("k")`` is a fresh ``arange`` of the row count, not a view.
    """

    COLUMNS = ("objective", "feasibility", "optimality", "lagrangian", "norm_x",
               "norm_lambda", "norm_mu", "step_x_norm", "delta", "step_lambda_sq",
               "step_mu_sq")
    _INDEX = {name: j for j, name in enumerate(COLUMNS)}

    def __init__(self, rows=()):
        """Start from ``rows``, a table in ``COLUMNS`` order such as a trace's columns after k.

        Refused whole as ``append`` refuses a row: a table not 2-D or not
        ``len(COLUMNS)`` wide raises ValueError, a non-number entry TypeError.
        """
        table = np.asarray(rows).astype(float, casting="safe", copy=False)
        if table.shape != (0,) and (table.ndim != 2 or table.shape[1] != len(self.COLUMNS)):
            raise ValueError(f"rows are a 2-D table {len(self.COLUMNS)} wide, got {table.shape}")
        self._table = array("d", table.tobytes())  # row-major, a row of COLUMNS each, then room
        self._size = table.size                    # the floats of the rows stored so far

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
_DECREASE_TOL = 1e-10   # merit decrease inequality


def check_trace(problem, history: RunHistory, params) -> List[InvariantViolation]:
    """Evaluate the theory's per-iteration inequalities that a run can fail, over its history.

    A vectorized replay of the history's recorded terms (see
    ``RunHistory``): it evaluates no problem callback, because the solver
    formed each term from the c(x) it already held.  Row k of the history
    is iteration k, so each pair of consecutive rows is a transition.
    Checks, with delta_k the recorded budget at k:

    - finite_terms, at every k: every term recorded at k is finite (lhs
      counts the ones that are not, rhs is 0)
    - mu_bound, at every k:
                      ||mu_k|| <= ||mu_0|| + (1/2) sum_{i<k} delta_i
    - merit_decrease, for transitions k -> k+1 from k >= 1 (the lam-update
      identity that the bound rests on first holds at k = 1):
                      L^{k+1} <= L^k + 2 delta_k / rho
    - lam_step, for transitions from k >= 1, when ``problem.lipschitz_c``
      supplies Lc:
                      ||lam_{k+1} - lam_k||^2 <= 2 rho^2 Lc^2 ||dx||^2 + 2 delta_k

    While the problem's callbacks return finite values, the dual-step
    relations and the identity lam - mu = rho c(x) hold by the kernel's own
    arithmetic, so they are not replayed here; a NaN or infinite callback
    value makes a term of its row non-finite, which finite_terms reports.
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
    if len(history) == 0:
        raise ValueError("empty trace: nothing to check")

    rho = params.penalty.rho
    col = history.column
    delta = col("delta")
    merit = col("lagrangian")

    # one (name, k of each entry, lhs, rhs, slack) per inequality lhs <= rhs + slack
    nonfinite = sum(~np.isfinite(col(name)) for name in history.COLUMNS)
    norm_mu = col("norm_mu")
    bound = norm_mu[0] + 0.5 * np.concatenate(([0.0], np.cumsum(delta[:-1])))
    checks = [("finite_terms", ks, nonfinite, np.zeros(len(ks)), 0.0),
              ("mu_bound", ks, norm_mu, bound, _SLACK * (1.0 + bound))]

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

