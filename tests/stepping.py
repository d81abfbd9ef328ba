"""One iteration from a hand-built state, through the solver's kernel.

``steps`` runs the method from a start; the tests that check one update
formula from a state built at any k call the kernel itself, here.
"""

from pplad.solver import _advance, grad_x


def advance(problem, params, state):
    """The successor of ``state`` under one application of the update formulas."""
    state.check_dims(problem)
    d = state.lam - state.mu
    nxt, _ = _advance(problem, params, state, d, float(d.dot(d)), params.budget(state.k),
                      grad_x(problem, state))
    return nxt
