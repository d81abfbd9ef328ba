"""Audit a solve run against the method's per-iteration inequalities.

The convergence theory rests on a handful of per-iteration relations: the
auxiliary multiplier moves at most delta_k/2 per step and stays inside a
closed-form ball, the two multipliers contract toward each other at an
exactly known rate, the iterate identity lam - mu = rho c(x) holds after
every update, and the merit value cannot rise by more than 2 delta_k / rho
per iteration.  The solver records the
terms of each relation as scalars while it holds the iterates, and
``check_trace`` replays all of them over the recorded history; an empty
violation list is a machine-checked certificate that the run behaved like
the theory says it must.
"""

import numpy as np

from pplad import PenaltyParams, SolverParams, check_trace, solve, tail_step_maxima
from pplad.problems import example1

problem = example1()
params = SolverParams(penalty=PenaltyParams(alpha=2000.0, beta=0.5),
                      step_size=0.002, delta0=1.0, decay=0.999)
outcome = solve(problem, params, [3.0, 3.0])
history = outcome.history
print(f"run: {outcome.status.value} after {outcome.iterations} iterations\n")

violations = check_trace(problem, history, params)
print(f"invariant violations: {len(violations)}")

# the dual bound in numbers: ||mu_k|| stays far below the worst case
norm_mu = history.column("norm_mu")
worst_case = params.delta0 / (2.0 * (1.0 - params.decay))
print(f"max ||mu_k||          : {norm_mu.max():.4f}")
print(f"closed-form bound     : {worst_case:.1f}  (never approached)")

# merit decrease allowance: largest observed rise vs what the schedule allows
merit = history.column("lagrangian")
delta = history.column("delta")
rho = params.penalty.rho
rises = merit[2:] - merit[1:-1]
allowed = 2.0 * delta[1:-1] / rho
print(f"max merit rise (k>=1) : {rises.max():.3e}")
print(f"max allowed rise      : {allowed.max():.3e}")

# the damped dual step: ||mu_{k+1} - mu_k||^2 against its budget delta_k
step_mu_sq = history.column("step_mu_sq")
print(f"max ||dmu||^2/delta_k : {np.max(step_mu_sq[1:] / delta[:-1]):.3e}")

# asymptotics: successive differences die out
maxima = tail_step_maxima(history)
print("max step over final 100 iterations:")
for key, value in maxima.items():
    print(f"  {key:<7}: {value:.2e}")

# what a genuine violation looks like: corrupt the recorded ||mu_k|| and
# the recorded step into k = 150
corrupted = solve(problem, params, [3.0, 3.0]).history
corrupted.column("norm_mu")[200] += 600.0
corrupted.column("step_mu_sq")[150] += 1.0
broken = check_trace(problem, corrupted, params)
print(f"\nafter corrupting ||mu|| at k=200 and the mu step into k=150: "
      f"{len(broken)} violations")
for v in broken[:3]:
    print(f"  {v.name} at k={v.k}: lhs={v.lhs:.4g} > rhs={v.rhs:.4g} "
          f"(margin {v.margin:.3g})")
