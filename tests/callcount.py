"""A noise-free count of the solver's own Python: profiled function calls per iteration.

``calls_per_iteration`` profiles a solve capped at 200 iterations and one
capped at 100, and returns the difference of their cProfile ``total_calls``
over the 100 iterations between, split by function.  The start and the last row are the same
in both runs, so they cancel.  The count is Python and C function calls, not
the array arithmetic that operators do: a proxy for the loop's overhead, not
a time, and the same in every run under one numpy.  ``idle`` is a problem
whose evaluators do nothing, so its count is that of the loop alone.
"""

import cProfile
import dataclasses
import pstats

import numpy as np

from pplad import Problem, SolveStatus, solve


def idle(n=2, m=2):
    """A problem whose evaluators return fixed arrays and whose projection returns its input.

    c is fixed at ones, so no run of it is ever feasible and none stops early.
    """
    grad, cx, jac = np.zeros(n), np.ones(m), np.zeros((m, n))
    return Problem(n=n, m=m, objective=lambda x: 0.0, objective_gradient=lambda x: grad,
                   constraints=lambda x: cx, constraint_jacobian=lambda x: jac,
                   projection=lambda v: v, name="idle")


def calls_per_iteration(problem, params, x0) -> dict:
    """Profiled calls of one iteration of ``solve``, by function; their sum is the count.

    A key is pstats' (file, line, name) of the function, file "~" for a C function.
    """
    runs = []
    for cap in (100, 200):
        # tolerances no iterate meets, so that each run takes all of its iterations
        capped = dataclasses.replace(params, max_iterations=cap, tol_optimality=1e-300,
                                     tol_feasibility=1e-300)
        profiler = cProfile.Profile()
        outcome = profiler.runcall(solve, problem, capped, x0)
        assert outcome.status is SolveStatus.ITERATION_LIMIT and outcome.iterations == cap
        runs.append({func: row[1] for func, row in pstats.Stats(profiler).stats.items()})
    short, long = runs
    calls = {func: (n - short.get(func, 0)) / 100 for func, n in long.items()}
    return {func: n for func, n in calls.items() if n}
