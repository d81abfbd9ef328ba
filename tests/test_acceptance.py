"""Acceptance suite: end-to-end reproduction runs plus the property backbone.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  The reproduction runs are the fixtures of conftest.py.
Criteria 4-7 are the one home of their checks: the trace invariants and
kernel identities on the reproduction runs, the gradient oracle, the
closed-form inner solutions and the one-step transcription.  The unit
modules keep one hand-worked case per rule.
"""

from itertools import islice

import numpy as np

from identities import kernel_violations
from merit import eval_full, zhat
from params import FIG1, fig1_params
from pplad import FullState, SolveStatus, check_trace, fd_jacobian, grad_x, steps
from pplad.problems import example1, example2, example3
from stepping import advance


def report(num, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_example1_reproduction(run1):
    problem, params, out, elapsed, _ = run1
    x_err = float(np.linalg.norm(out.final_state.x - np.array([1.0, 0.0])))
    c_norm = float(np.linalg.norm(problem.constraints(out.final_state.x)))
    lam = out.final_state.lam
    lam_bound = params.delta0 / (2.0 * (1.0 - params.decay)) \
        + params.penalty.rho * c_norm
    ok = (out.status is SolveStatus.CONVERGED
          and x_err <= 1e-3
          and c_norm <= 1e-4
          and elapsed < 10.0
          and bool(np.all(np.isfinite(lam)))
          and float(np.linalg.norm(lam)) <= lam_bound)
    report(1, f"box-constrained run: |x - (1,0)| = {x_err:.2e} <= 1e-3, "
              f"|c(x)| = {c_norm:.2e} <= 1e-4, {out.iterations} iterations "
              f"in {elapsed:.2f}s < 10s, ||lam|| = {np.linalg.norm(lam):.2f} "
              f"finite and bounded", ok)


def test_criterion_2_example2_reproduction(run2):
    problem, _, out, *_ = run2
    x_err = float(np.linalg.norm(out.final_state.x - np.array([0.0, 0.0, 8.0])))
    f_err = abs(problem.objective(out.final_state.x) - 224.0)
    ok = (out.status is SolveStatus.CONVERGED
          and x_err <= 1e-2
          and f_err <= 1e-2)
    report(2, f"QCQP run: |x - (0,0,8)| = {x_err:.2e} <= 1e-2, "
              f"|f(x) - 224| = {f_err:.2e} <= 1e-2, {out.iterations} iterations", ok)


def test_criterion_3_example3_reproduction(run3):
    problem, _, out, *_ = run3
    x_err = float(np.linalg.norm(out.final_state.x - np.array([2.0, 0.0])))
    c_norm = float(np.linalg.norm(problem.constraints(out.final_state.x)))
    ok = (out.status is SolveStatus.CONVERGED
          and x_err <= 1e-3
          and c_norm <= 1e-4)
    report(3, f"complementarity run: |x - (2,0)| = {x_err:.2e} <= 1e-3, "
              f"|c(x)| = {c_norm:.2e} <= 1e-4, {out.iterations} iterations", ok)


def test_criterion_4_invariant_suite(run1, run2, run3):
    assert run1[0].lipschitz_c is not None  # so that example1's lam step is checked too
    counts = {}
    for label, (problem, params, out, _, states) in (("example1", run1), ("example2", run2),
                                                     ("example3", run3)):
        counts[label] = (len(check_trace(problem, out.history, params))
                         + len(kernel_violations(problem, params, states,
                                                 out.history.column("lagrangian"))))
    ok = all(count == 0 for count in counts.values())
    report(4, "trace invariants (finite terms, dual bound, observed merit decrease, lam step) "
              f"and kernel identities (dual-step relations, state identity): violations = {counts}",
           ok)


def test_criterion_5_gradient_oracle():
    rng = np.random.default_rng(2024)
    worst_grad, worst_jac = 0.0, 0.0
    for problem in (example1(), example2(), example3()):
        for _ in range(10):
            x = rng.uniform(-4.0, 4.0, problem.n)
            z = rng.standard_normal(problem.m)
            state = FullState(x=x, lam=2.0 * rng.standard_normal(problem.m),
                              mu=2.0 * rng.standard_normal(problem.m))
            analytic = grad_x(problem, state)
            numeric = fd_jacobian(
                lambda x: eval_full(problem, FIG1, FullState(x, state.lam, state.mu), z=z),
                state.x)
            worst_grad = max(worst_grad, float(np.max(
                np.abs(analytic - numeric) / (1.0 + np.abs(analytic)))))

            jac = np.asarray(problem.constraint_jacobian(state.x), dtype=float)
            jac_fd = fd_jacobian(problem.constraints, state.x)
            worst_jac = max(worst_jac, float(np.max(
                np.abs(jac - jac_fd) / (1.0 + np.abs(jac)))))
    ok = worst_grad <= 1e-6 and worst_jac <= 1e-5
    report(5, f"merit gradient vs finite differences: max rel err {worst_grad:.2e} "
              f"<= 1e-6; Jacobians: {worst_jac:.2e} <= 1e-5", ok)


def test_criterion_6_closed_form_inner_solutions():
    # z is checked at the sampled state; lam is the one an iteration returns from
    # it, checked against the merit at its own x and mu with z = zhat(lam, mu)
    params = fig1_params()
    rng = np.random.default_rng(77)
    eps = 1e-3
    ok = True

    def reduced(problem, x, lam, mu):
        return eval_full(problem, FIG1, FullState(x, lam, mu))

    for problem in (example1(), example2(), example3()):
        for _ in range(100):
            x = rng.uniform(-4.0, 4.0, problem.n)
            lam = 2.0 * rng.standard_normal(problem.m)
            mu = 2.0 * rng.standard_normal(problem.m)

            z_best = zhat(FIG1, lam, mu)
            v_best = eval_full(problem, FIG1, FullState(x, lam, mu), z=z_best)
            nxt = advance(problem, params, FullState(x, lam, mu))
            r_best = reduced(problem, nxt.x, nxt.lam, nxt.mu)
            for _ in range(20):
                u = rng.standard_normal(problem.m)
                u /= np.linalg.norm(u)
                ok = ok and v_best <= eval_full(
                    problem, FIG1, FullState(x, lam, mu), z=z_best + eps * u)
                ok = ok and r_best >= reduced(problem, nxt.x, nxt.lam + eps * u, nxt.mu)
    report(6, "sampled minimality of the closed-form z and maximality of the "
              "closed-form multiplier (100 states x 20 directions per problem)", ok)


def test_criterion_7_one_step_oracle():
    # Straight-line transcription of one iteration in plain floats, at the
    # Fig. 1 settings, independent of the library code paths.
    alpha, beta, step, delta0, r = 2000.0, 0.5, 0.002, 1.0, 0.999
    rho = alpha / (1.0 + alpha * beta)
    x = (3.0, 3.0)
    lam = (0.0, 0.0)
    mu = (0.0, 0.0)

    g = (-2.0 * (x[0] - 1.0) + 2.0 * x[0] * lam[0] + 2.0 * (x[0] - 2.0) * lam[1],
         2.0 * x[1] + 2.0 * x[1] * lam[0] + 2.0 * x[1] * lam[1])
    x_new = (min(max(x[0] - step * g[0], -3.0), 3.0),
             min(max(x[1] - step * g[1], -3.0), 3.0))
    nsq = (lam[0] - mu[0]) ** 2 + (lam[1] - mu[1]) ** 2
    gam = rho * delta0 / (nsq + 1.0)
    mu_new = (mu[0] + (gam / rho) * (lam[0] - mu[0]),
              mu[1] + (gam / rho) * (lam[1] - mu[1]))
    c = (x_new[0] ** 2 + x_new[1] ** 2 - 1.0,
         (x_new[0] - 2.0) ** 2 + x_new[1] ** 2 - 1.0)
    lam_new = (mu_new[0] + rho * c[0], mu_new[1] + rho * c[1])
    z_new = ((lam_new[0] - mu_new[0]) / alpha, (lam_new[1] - mu_new[1]) / alpha)

    problem = example1()
    params = fig1_params(max_iterations=1)
    [_, (_, nxt, _, history, _)] = islice(steps(problem, params, [3.0, 3.0]), 2)
    delta1 = history.column("delta")[1]

    gap = max(np.max(np.abs(nxt.x - np.array(x_new))),
              np.max(np.abs(nxt.mu - np.array(mu_new))),
              np.max(np.abs(nxt.lam - np.array(lam_new))),
              np.max(np.abs(zhat(params.penalty, nxt.lam, nxt.mu) - np.array(z_new))),
              abs(delta1 - delta0 * r))
    ok = gap <= 1e-14
    report(7, f"one iteration vs straight-line transcription: max component "
              f"gap {gap:.1e} <= 1e-14", ok)


def test_criterion_8_vanishing_differences(run1, run2, run3):
    worst = {}
    for label, (_, _, out, *_) in (("example1", run1), ("example2", run2),
                                  ("example3", run3)):
        assert out.status is SolveStatus.CONVERGED
        col = out.history.column  # the steps of x, lam and mu over the last 100 iterations
        worst[label] = max(col("step_x_norm")[-100:].max(),
                           np.sqrt(col("step_lambda_sq")[-100:].max()),
                           np.sqrt(col("step_mu_sq")[-100:].max()))
    ok = all(value <= 1e-5 for value in worst.values())
    report(8, "max step of x, lam, mu over the final 100 iterations: "
              + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
              + " (all <= 1e-5)", ok)
