"""The five relations the kernel's arithmetic fixes: the tests' oracle for every iteration.

``check_trace`` replays only the inequalities that a run can fail, and
reports a non-finite term.  Five more hold by construction of the update
while the problem's callbacks return finite values, so the solver records
none of the terms they read, and this module checks them on the states that
``steps`` yields instead.  With d_k = lam_k - mu_k and the dual step formed here from
the paper's formula, g_k = gamma_k / rho = delta_k / (||d_k||^2 + 1):

- lambda_mu_sq_nonnegative: the ||d_k||^2 the kernel subtracts in its merit
  is >= 0, that is the recorded merit is at most f(x_k) + <lam_k, c(x_k)>;
- mu_step:             ||mu_{k+1} - mu_k|| <= sqrt(g_k) ||d_k||;
- mu_step_budget:      ||mu_{k+1} - mu_k|| ||d_k|| <= delta_k, the kernel's
                       g_k ||d_k||^2 read off its mu step;
- mu_lam_contraction:  ||mu_{k+1} - lam_k|| = (1 - g_k) ||d_k|| (1e-12 relative);
- identity_lam_mu, for k >= 1: lam_k - mu_k = rho c(x_k) (1e-10 relative to
  1 + ||rho c(x_k)||).

A mu step read off two stored states is off by up to the rounding of mu_{k+1},
about eps ||mu_{k+1}||, which can dwarf a late step, so the two step checks
allow it.  Each comparison is negated, so that a NaN on either side is a
violation.
"""

import numpy as np

_SLACK = 1e-12          # inequalities that hold exactly in real arithmetic
_EXACT_TOL = 1e-12      # the contraction equality
_IDENTITY_TOL = 1e-10   # lam - mu = rho c(x)
_EPS = np.finfo(float).eps


def kernel_violations(problem, params, states, merits):
    """(name, k) of each identity that fails, sorted, over consecutive ``states`` from ``steps``.

    ``merits`` holds the merit the kernel recorded at each state, its history's
    ``lagrangian`` column.
    """
    rho = params.penalty.rho
    found = []

    def check(name, k, lhs, rhs):
        if not lhs <= rhs:
            found.append((name, k))

    for s, merit in zip(states, merits):
        cx = problem.c(s.x)
        total = problem.f(s.x) + float(s.lam.dot(cx))
        check("lambda_mu_sq_nonnegative", s.k, merit, total + _SLACK * (1.0 + abs(total)))
        if s.k >= 1:
            rho_c = rho * cx
            check("identity_lam_mu", s.k, np.linalg.norm((s.lam - s.mu) - rho_c),
                  _IDENTITY_TOL * (1.0 + np.linalg.norm(rho_c)))
    for s, nxt in zip(states, states[1:]):
        d = s.lam - s.mu
        dd = float(d @ d)
        delta = params.budget(s.k)
        g = delta / (dd + 1.0)
        step, rounding = np.linalg.norm(nxt.mu - s.mu), 2.0 * _EPS * np.linalg.norm(nxt.mu)
        bound = np.sqrt(g * dd)
        check("mu_step", s.k, step, bound + rounding + _SLACK * (1.0 + bound))
        check("mu_step_budget", s.k, step * np.sqrt(dd),
              delta + rounding * np.sqrt(dd) + _SLACK * (1.0 + delta))
        contraction = (1.0 - g) * np.sqrt(dd)
        check("mu_lam_contraction", s.k, abs(np.linalg.norm(nxt.mu - s.lam) - contraction),
              _EXACT_TOL * (1.0 + contraction))
    return sorted(found, key=lambda v: (v[1], v[0]))
