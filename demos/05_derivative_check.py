"""Catch wrong derivatives before they poison a run.

A first-order method silently follows whatever gradient it is handed.
``validate`` evaluates every callback at a point, checks shapes and
finiteness, and compares analytic derivatives against central finite
differences; here we feed it a problem with a classic sign mistake.
"""

import numpy as np

from pplad import NonnegativeOrthant, Problem, compare, fd_jacobian, validate


def objective(x):
    return float(np.exp(x[0] - 1.0) + 0.5 * x[1] ** 2)


def good_gradient(x):
    return np.array([np.exp(x[0] - 1.0), x[1]])


def bad_gradient(x):
    return np.array([np.exp(x[0] - 1.0), -x[1]])  # sign flipped


def constraints(x):
    return np.array([x[0] * x[1] - 2.0])


def jacobian(x):
    return np.array([[x[1], x[0]]])


def build(gradient):
    return Problem(n=2, m=1, objective=objective, objective_gradient=gradient,
                   constraints=constraints, constraint_jacobian=jacobian,
                   projection=NonnegativeOrthant(), name="demo")


x0 = np.array([1.0, 2.0])

print("correct gradient:")
print(validate(build(good_gradient), x0).summary())

print("\nsign error in the second component:")
report = validate(build(bad_gradient), x0)
print(report.summary())
print(f"overall passed: {report.passed}")

# the oracle pieces are usable directly as well
print("\nstandalone oracle on the objective at x0:")
numeric = fd_jacobian(objective, x0)
print(f"  finite differences : {numeric}")
print(f"  analytic           : {good_gradient(x0)}")
err, ok = compare(good_gradient(x0), numeric)
print(f"  max rel error      : {err:.2e}  (pass: {ok})")

print("\nconstraint Jacobian row vs oracle:")
print(f"  finite differences : {fd_jacobian(constraints, x0)[0]}")
print(f"  analytic           : {jacobian(x0)[0]}")
