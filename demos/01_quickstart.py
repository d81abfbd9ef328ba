"""Quickstart: define a small equality-constrained problem and solve it.

We minimize a saddle-shaped quadratic over the unit-ball intersection with
one quadratic equality constraint, then read the KKT report.
"""

import numpy as np

from pplad import Ball, PenaltyParams, Problem, SolverParams, solve, validate

# problem: min x1*x2  s.t.  x1^2 + x2^2 - 1 = 0,  x in ball of radius 2
# the constraint forces the unit circle; the objective favors the
# second/fourth quadrant, with minimizers at (+-1/sqrt(2), -+1/sqrt(2))
problem = Problem(
    n=2, m=1,
    objective=lambda x: float(x[0] * x[1]),
    objective_gradient=lambda x: np.array([x[1], x[0]]),
    constraints=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
    constraint_jacobian=lambda x: np.array([[2.0 * x[0], 2.0 * x[1]]]),
    projection=Ball(center=[0.0, 0.0], radius=2.0),
    name="circle-saddle")

# always worth a sanity check before iterating: shapes, finiteness, and
# analytic derivatives vs the finite-difference oracle
report = validate(problem, np.array([1.5, 0.5]))
print(report.summary())
print()

params = SolverParams(
    penalty=PenaltyParams(alpha=2000.0, beta=0.5),
    step_size=0.01,          # problem-specific; no default on purpose
    delta0=1.0, decay=0.999,
    tol_optimality=1e-8, tol_feasibility=1e-8)

outcome = solve(problem, params, x0=[1.5, 0.5])

print(f"status      : {outcome.status.value}")
print(f"iterations  : {outcome.iterations}")
print(f"x           : {outcome.final_state.x}")
print(f"multiplier  : {outcome.final_state.lam}")
print(f"objective   : {problem.objective(outcome.final_state.x):.12f}")
print(f"optimality  : {outcome.kkt.optimality:.3e}")
print(f"feasibility : {outcome.kkt.feasibility:.3e}")

# the minimizers are (1/sqrt(2))*(1, -1) or its negative, with value -1/2
best = np.array([1.0, -1.0]) / np.sqrt(2.0)
gap = min(np.linalg.norm(outcome.final_state.x - best),
          np.linalg.norm(outcome.final_state.x + best))
print(f"distance to nearest analytic solution: {gap:.3e}")
