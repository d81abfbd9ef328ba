"""Run the three built-in test problems and dump their convergence traces.

Each built-in violates LICQ at its solution, so the multiplier set is
unbounded; the damped dual schedule still keeps the iterates bounded and
drives both residuals to zero.  Traces land in demos/output/ as CSV with
columns k, then every name of ``RunHistory.COLUMNS``: the whole history,
which ``check_trace`` can replay.
"""

import os

import numpy as np

from pplad import PenaltyParams, SolverParams, solve, write_trace_csv
from pplad.problems import BUILTIN_PROBLEMS, DEFAULT_START

OUT_DIR = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT_DIR, exist_ok=True)

# per-problem step sizes; everything else is shared
SETTINGS = {
    "example1": dict(step_size=0.002, delta0=1.0),
    "example2": dict(step_size=0.005, delta0=0.5),
    "example3": dict(step_size=0.004, delta0=0.5),
}
SOLUTIONS = {
    "example1": np.array([1.0, 0.0]),
    "example2": np.array([0.0, 0.0, 8.0]),
    "example3": np.array([2.0, 0.0]),
}

print(f"{'problem':<10} {'status':<10} {'iters':>6} {'f(x)':>14} "
      f"{'|x - x*|':>10} {'optimality':>11} {'feasibility':>12}")
for name, factory in BUILTIN_PROBLEMS.items():
    problem = factory()
    params = SolverParams(penalty=PenaltyParams(alpha=2000.0, beta=0.5),
                          decay=0.999, **SETTINGS[name])
    outcome = solve(problem, params, DEFAULT_START[name])

    path = os.path.join(OUT_DIR, f"{name}_trace.csv")
    write_trace_csv(outcome.history, path)

    x = outcome.final_state.x
    print(f"{name:<10} {outcome.status.value:<10} {outcome.iterations:>6} "
          f"{problem.objective(x):>14.6f} "
          f"{np.linalg.norm(x - SOLUTIONS[name]):>10.2e} "
          f"{outcome.kkt.optimality:>11.2e} {outcome.kkt.feasibility:>12.2e}")

print(f"\ntraces written to {OUT_DIR}/")
print("feasibility is ||c(x_k)|| at every k, so the CSV column can be")
print("read directly as the constraint violation curve.")
