"""The paper's merit in its z-form: the tests' oracle for the merit the solver records.

    L(x, z, lam, mu) = f(x) + <lam, c(x) - z> + <mu, z>
                       + (alpha/2) ||z||^2 - (beta/2) ||lam - mu||^2

Its minimizer in z is ``zhat``.  At that z it equals the reduced form
f + <lam, c> - ||lam - mu||^2/(2 rho) that ``solve`` records in its
``lagrangian`` column, which the tests check against this full form.
"""

import numpy as np


def zhat(penalty, lam, mu) -> np.ndarray:
    """Unique minimizer of the merit in z: (lam - mu) / alpha."""
    return (np.asarray(lam, dtype=float) - np.asarray(mu, dtype=float)) / penalty.alpha


def eval_full(problem, penalty, state, z=None) -> float:
    """The merit at (x, z, lam, mu), z defaulting to zhat(lam, mu).

    Raises DimensionMismatch, through ``state.check_dims``, if the state's
    sizes do not match the problem.
    """
    state.check_dims(problem)
    z = zhat(penalty, state.lam, state.mu) if z is None else np.asarray(z, dtype=float)
    d = state.lam - state.mu
    return float(problem.f(state.x) + state.lam @ (problem.c(state.x) - z) + state.mu @ z
                  + 0.5 * penalty.alpha * (z @ z) - 0.5 * penalty.beta * (d @ d))
