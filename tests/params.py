"""The solver settings the tests share, each stated once.

``fig1_params`` gives the paper's Fig. 1 settings (alpha 2000, beta 0.5,
step 0.002, the default budget schedule), ``rho2_params`` the hand-arithmetic
ones (alpha 4, beta 0.25, so rho is exactly 2; step 0.1), and
``reproduction_params`` the Fig. 1 settings at a reproduction run's step and
initial budget.  Each takes any ``SolverParams`` field as a keyword.
"""

from pplad import PenaltyParams, SolverParams

FIG1 = PenaltyParams(alpha=2000.0, beta=0.5)  # rho = 2000/1001
RHO2 = PenaltyParams(alpha=4.0, beta=0.25)    # rho = alpha/(1 + alpha beta) = 2 exactly

# each built-in example's step size and delta0, as demos/02_builtin_runs.py runs it
REPRODUCTION = {"example1": (0.002, 1.0), "example2": (0.005, 0.5), "example3": (0.004, 0.5)}


def fig1_params(**kw):
    return SolverParams(**{"penalty": FIG1, "step_size": 0.002, **kw})


def rho2_params(**kw):
    return SolverParams(**{"penalty": RHO2, "step_size": 0.1, **kw})


def reproduction_params(name, **kw):
    step_size, delta0 = REPRODUCTION[name]
    return fig1_params(**{"step_size": step_size, "delta0": delta0, **kw})
