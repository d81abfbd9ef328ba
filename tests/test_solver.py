import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from numpy.testing import assert_allclose

from callcount import calls_per_iteration, idle
from merit import eval_full
import pplad.solver
from params import RHO2, fig1_params, reproduction_params, rho2_params
from pplad import (Ball, Box, DimensionMismatch, FullState, KktReport, Problem, RunHistory,
                   SolveOutcome, SolveStatus, grad_x, kkt_report, solve, steps, validate)
from pplad.problems import BUILTIN_PROBLEMS, DEFAULT_START, example1, example2, example3
from stepping import advance


# 0.999 ** 10**6 is exactly 0.0: under the default decay, a state at this k has no dual budget
ZERO_BUDGET_K = 10**6


def state(k, x, lam, mu):
    return FullState(x, lam, mu, k=k)


def constant_constraints(c):
    """One variable, f = 0, and constraints fixed at c: the x-step never moves."""
    c = np.asarray(c, float)
    return Problem(n=1, m=c.size, objective=lambda x: 0.0,
                   objective_gradient=lambda x: np.zeros(1),
                   constraints=lambda x: c,
                   constraint_jacobian=lambda x: np.zeros((c.size, 1)),
                   projection=lambda v: v, name="const")


def first_gamma(params, lam, mu):
    """The dual step gamma from (lam, mu) at k = 0, read off the kernel's mu step.

    mu moves by (gamma/rho) d, d = lam - mu, so gamma is rho <mu_1 - mu, d> / ||d||^2.
    """
    lam, mu = np.asarray(lam, float), np.asarray(mu, float)
    d = lam - mu
    nxt = advance(constant_constraints(np.ones(d.size)), params, state(0, [0.0], lam, mu))
    return params.penalty.rho * float((nxt.mu - mu) @ d) / float(d @ d)


def logged(problem, calls):
    """``problem`` with each of its five callbacks wrapped to append its name to ``calls``."""
    def wrap(name):
        call = getattr(problem, name)

        def wrapper(x):
            calls.append(name)
            return call(x)
        return wrapper

    return dataclasses.replace(problem, **{name: wrap(name) for name in (
        "objective", "objective_gradient", "constraints", "constraint_jacobian", "projection")})


def circle_callbacks():
    """The evaluators of min ||x||^2 s.t. ||x||^2 = 1 in R^2, by field name."""
    return dict(objective=lambda x: float(x @ x),
                objective_gradient=lambda x: 2.0 * x,
                constraints=lambda x: np.array([x @ x - 1.0]),
                constraint_jacobian=lambda x: 2.0 * x.reshape(1, -1),
                projection=lambda v: v)


CONTRACT_SHAPES = {"objective": (), "objective_gradient": (2,), "constraints": (1,),
                   "constraint_jacobian": (1, 2), "projection": (2,)}


@given(callback=st.sampled_from(sorted(CONTRACT_SHAPES)),
       shape=st.lists(st.integers(0, 3), max_size=3).map(tuple))
# each callback's output reshaped, as a caller's slip would give it, and a gradient too long
@example(callback="objective", shape=(1,))
@example(callback="objective_gradient", shape=(2, 1))
@example(callback="objective_gradient", shape=(3,))
@example(callback="constraints", shape=(1, 1))
@example(callback="constraint_jacobian", shape=(2,))
@example(callback="projection", shape=(2, 1))
def test_any_wrong_output_shape_is_named_by_solve_and_validate(callback, shape):
    assume(shape != CONTRACT_SHAPES[callback])
    callbacks = circle_callbacks()
    callbacks[callback] = lambda x: np.ones(shape)
    p = Problem(n=2, m=1, name="circle", **callbacks)
    with pytest.raises(DimensionMismatch, match=callback):
        solve(p, rho2_params(max_iterations=3), [1.0, 1.0])
    check = validate(p, [1.0, 1.0]).check(callback)
    assert not check.passed and "output shape" in check.message


def raising_at_iteration_5():
    """f = x^2 in one variable, whose objective raises at its sixth call, iteration 5."""
    calls = {"n": 0}

    def objective(x):
        calls["n"] += 1  # one call per iteration, the first at k = 0
        if calls["n"] == 6:
            raise ZeroDivisionError("division by zero")
        return float(x @ x)

    return Problem(n=1, m=0, objective=objective, objective_gradient=lambda x: 2.0 * x,
                   constraints=lambda x: np.zeros(0),
                   constraint_jacobian=lambda x: np.zeros((0, 1)),
                   projection=lambda v: v, name="raises")


def unconstrained_quadratic(target):
    target = np.asarray(target, float)
    n = target.size
    return Problem(
        n=n, m=0,
        objective=lambda x: float(0.5 * (x - target) @ (x - target)),
        objective_gradient=lambda x: x - target,
        constraints=lambda x: np.zeros(0),
        constraint_jacobian=lambda x: np.zeros((0, n)),
        projection=lambda v: v, name="shifted-quadratic")


class TestSteps:
    """Each update formula, read off one call of the kernel."""

    def test_step_x_whole_space_is_plain_gradient_descent(self):
        p = unconstrained_quadratic([1.0, -1.0])
        s = state(0, [3.0, 3.0], [], [])
        params = rho2_params(step_size=0.25)
        assert_allclose(advance(p, params, s).x, [3.0 - 0.25 * 2.0, 3.0 - 0.25 * 4.0])

    def test_gamma_unit_denominator(self):
        # ||lam - mu||^2 = 2^-60 rounds away beside 1: gamma = rho delta0 / 1 exactly
        params = rho2_params(delta0=1.0)
        assert first_gamma(params, [2.0 + 2.0 ** -30], [2.0]) == 2.0

    def test_gamma_over_rho_bounded_by_delta(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            delta = float(rng.uniform(0.0, 1.0))
            params = rho2_params(delta0=delta)
            gamma = first_gamma(params, rng.standard_normal(3) * 10,
                                rng.standard_normal(3) * 10)
            assert 0.0 <= gamma / RHO2.rho <= delta <= 1.0

    def test_step_mu_no_move_cases(self):
        p = constant_constraints([0.0, 0.0])
        params = rho2_params()
        same = state(0, [0.0], [1.5, -1.0], [1.5, -1.0])
        assert_allclose(advance(p, params, same).mu, same.mu)
        frozen = state(ZERO_BUDGET_K, [0.0], [9.0, 0.0], [0.0, 0.0])
        assert_allclose(advance(p, params, frozen).mu, frozen.mu)

    def test_step_mu_moves_at_most_half_delta(self):
        rng = np.random.default_rng(4)
        p = constant_constraints([0.0, 0.0])
        for _ in range(200):
            delta = float(rng.uniform(0.0, 1.0))
            params = rho2_params(delta0=delta)
            s = state(0, [0.0], 10 * rng.standard_normal(2), 10 * rng.standard_normal(2))
            moved = np.linalg.norm(advance(p, params, s).mu - s.mu)
            assert moved <= 0.5 * delta + 1e-15

    def test_mu_moves_by_the_schedule_step_from_a_hand_built_state(self):
        # example1 from (3, 3) with d = lam - mu = (1, -1): gamma/rho = delta_k / 3,
        # so mu moves to (delta_k / 3) * d, whatever the state was built from
        p = example1()
        params = fig1_params(delta0=0.5)
        d = np.array([1.0, -1.0])
        assert params.budget(ZERO_BUDGET_K) == 0.0
        for k, delta in ((0, 0.5), (1000, 0.5 * 0.999 ** 1000), (ZERO_BUDGET_K, 0.0)):
            nxt = advance(p, params, FullState([3.0, 3.0], d, [0.0, 0.0], k=k))
            assert nxt.k == k + 1
            assert_allclose(nxt.mu, delta / 3.0 * d, rtol=1e-14, atol=0.0)

    def test_step_lambda_feasible_point(self):
        # x stays at the feasible (1, 0) because lam = (t, t); a zero budget keeps mu
        params = rho2_params()
        mu = np.array([0.7, -0.3])
        s = state(ZERO_BUDGET_K, [1.0, 0.0], [2.0, 2.0], mu)
        assert_allclose(advance(example1(), params, s).lam, mu)

    def test_step_lambda_at_qcqp_solution_any_mu(self):
        # at (0, 0, 8) the constraint gradients vanish and the objective
        # gradient (4, 2, 0) points out of the orthant, so x stays put
        params = fig1_params()
        for mu in ([0.0, 0.0], [3.0, -1.0], [100.0, 7.0]):
            s = state(0, [0.0, 0.0, 8.0], mu, mu)
            assert_allclose(advance(example2(), params, s).lam, mu, atol=1e-12)

    def test_step_lambda_direct_formula(self):
        # rho=2, mu=(1,1), c=(0.5,-1) -> (2, -1)
        params = rho2_params()
        s = state(0, [0.0], [1.0, 1.0], [1.0, 1.0])
        assert_allclose(advance(constant_constraints([0.5, -1.0]), params, s).lam,
                        [2.0, -1.0])


class TestIterate:
    def test_fixed_point_leaves_all_variables_unchanged(self):
        p = example1()
        params = fig1_params()
        lam_star = np.array([2.0, 2.0])
        s = state(3, [1.0, 0.0], lam_star, lam_star)
        nxt = advance(p, params, s)
        assert nxt.k == 4
        assert_allclose(nxt.x, s.x)
        assert_allclose(nxt.lam, lam_star)
        assert_allclose(nxt.mu, lam_star)

    def test_non_finite_iterate_ends_the_run_naming_k(self):
        # c is finite at the start x = 1 and NaN wherever the first step takes x
        p = Problem(n=1, m=1, objective=lambda x: float(x[0]),
                    objective_gradient=lambda x: np.array([1.0]),
                    constraints=lambda x: np.array([0.0 if x[0] == 1.0 else np.nan]),
                    constraint_jacobian=lambda x: np.array([[0.0]]),
                    projection=lambda v: v, name="nanc")
        params = rho2_params()
        *_, (status, state, _, history, message) = steps(p, params, [1.0])
        assert status is SolveStatus.EVALUATION_ERROR
        assert message == "non-finite iterate at k=1"
        assert state.k == 1 and len(history) == 2

    def test_wrongly_sized_state_raises(self):
        # unchecked, the length-1 mu broadcast against example1's m = 2; the
        # generator checks at its first next(), before it calls any callback
        calls = []
        run = steps(logged(example1(), calls), fig1_params(), [3.0, 3.0], lam0=[1.0, 2.0],
                    mu0=[0.5])
        with pytest.raises(DimensionMismatch, match="state.mu"):
            next(run)
        assert calls == []


class TestSolve:
    def test_zero_budget_returns_iteration_limit_with_initial_state(self):
        p = example1()
        params = fig1_params(max_iterations=0)
        out = solve(p, params, [3.0, 3.0])
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.iterations == 0
        assert_allclose(out.final_state.x, [3.0, 3.0])
        assert len(out.history) == 1

    def test_divergence_detected_on_unbounded_problem(self):
        p = Problem(n=1, m=0, objective=lambda x: float(-x[0] ** 2),
                    objective_gradient=lambda x: -2.0 * x,
                    constraints=lambda x: np.zeros(0),
                    constraint_jacobian=lambda x: np.zeros((0, 1)),
                    projection=lambda v: v, name="concave")
        params = rho2_params(step_size=0.5)
        out = solve(p, params, [1.0])
        assert out.status is SolveStatus.DIVERGED
        # x doubles each step: 2^27 is the first norm past the bound 1e8
        assert out.message == "||x|| exceeded 1e+08 at k=27"

    def test_unconstrained_degenerates_to_projected_gradient_descent(self):
        p = unconstrained_quadratic([2.0, -3.0])
        params = rho2_params(step_size=0.5, tol_optimality=1e-10, tol_feasibility=1e-10,
                             max_iterations=1000)
        out = solve(p, params, [0.0, 0.0])
        assert out.status is SolveStatus.CONVERGED
        assert_allclose(out.final_state.x, [2.0, -3.0], atol=1e-9)
        assert out.final_state.lam.size == 0
        assert out.kkt.feasibility == 0.0

    def test_nan_objective_at_a_kkt_point_is_an_evaluation_error(self):
        # both residuals vanish at the start, where f is NaN: the status alone is the verdict
        p = Problem(n=1, m=1, objective=lambda x: np.nan,
                    objective_gradient=lambda x: np.zeros(1), constraints=lambda x: x.copy(),
                    constraint_jacobian=lambda x: np.ones((1, 1)),
                    projection=lambda v: v, name="nan-objective")
        out = solve(p, fig1_params(), [0.0])
        assert out.status is SolveStatus.EVALUATION_ERROR
        assert out.iterations == 0 and out.message == "non-finite iterate at k=0"
        assert out.kkt == KktReport(0.0, 0.0)

    def test_evaluation_error_keeps_partial_trace(self):
        calls = {"n": 0}

        def objective(x):
            return float(x[0])

        def gradient(x):
            calls["n"] += 1
            if calls["n"] > 5:
                return np.array([np.nan])
            return np.array([1.0])

        p = Problem(n=1, m=0, objective=objective, objective_gradient=gradient,
                    constraints=lambda x: np.zeros(0),
                    constraint_jacobian=lambda x: np.zeros((0, 1)),
                    projection=lambda v: np.clip(v, -10, 10), name="flaky")
        params = rho2_params(max_iterations=100)
        out = solve(p, params, [0.0])
        assert out.status is SolveStatus.EVALUATION_ERROR
        assert len(out.history) >= 1
        assert "non-finite" in out.message

    def test_stationary_infeasible_start_is_not_converged(self):
        # grad f(0, 0) = 0 and J(0, 0) = 0, so x never moves from an
        # infeasible point with c = (-4, 0); zero duals must not hide that
        params = fig1_params(step_size=0.004, delta0=0.5, max_iterations=50)
        out = solve(example3(), params, [0.0, 0.0])
        assert out.status is SolveStatus.ITERATION_LIMIT
        assert out.kkt.feasibility == 4.0
        assert out.history.column("feasibility")[0] == 4.0

    @pytest.mark.parametrize("entry,callback", [
        pytest.param(entry, callback, id=f"{entry}-{callback}")
        for entry, callback in (("eval_full", "objective"), ("eval_full", "constraints"),
                                ("iterate", "projection"), ("iterate", "constraints"),
                                ("grad_x", "objective_gradient"),
                                ("grad_x", "constraint_jacobian"),
                                ("kkt_report", "constraints"),
                                ("kkt_report", "projection"))])
    def test_wrong_callback_shape_raises_at_entry(self, entry, callback):
        # the circle problem with one callback's output reshaped
        callbacks = circle_callbacks()
        params = rho2_params(max_iterations=3)
        good = callbacks[callback]
        bad_shape = {"objective": (1,), "objective_gradient": (2, 1),
                     "constraints": (1, 1), "constraint_jacobian": (2,),
                     "projection": (2, 1)}[callback]
        callbacks[callback] = lambda x: np.reshape(good(x), bad_shape)
        p = Problem(n=2, m=1, name="circle", **callbacks)
        x, duals = [1.0, 1.0], [0.5]
        state = FullState(x, duals, duals)
        call = {"eval_full": lambda: eval_full(p, RHO2, state),
                "iterate": lambda: advance(p, params, state),
                "grad_x": lambda: grad_x(p, state),
                "kkt_report": lambda: kkt_report(p, state)}[entry]
        with pytest.raises(DimensionMismatch, match=callback):
            call()

    def test_short_projection_output_raises_at_entry(self):
        # unchecked, the shape-(1,) start made example1's objective index past its end
        p = dataclasses.replace(example1(), projection=lambda v: v[:1])
        with pytest.raises(DimensionMismatch, match="projection"):
            solve(p, fig1_params(), [3.0, 3.0])

    def test_wrong_projection_shape_after_start_becomes_evaluation_error(self):
        calls = []

        def projection(v):
            calls.append(v)  # two calls at x0: the start itself and its residual
            return v if len(calls) <= 2 else v.reshape(-1, 1)

        p = dataclasses.replace(example1(), projection=projection)
        out = solve(p, fig1_params(), [3.0, 3.0])
        assert out.status is SolveStatus.EVALUATION_ERROR
        assert "DimensionMismatch raised at iteration 1: projection" in out.message
        assert out.history.column("k").tolist() == [0]

    def test_callback_exception_becomes_evaluation_error(self):
        out = solve(raising_at_iteration_5(), rho2_params(), [1.0])
        assert out.status is SolveStatus.EVALUATION_ERROR
        assert "ZeroDivisionError" in out.message and "iteration 5" in out.message
        assert out.history.column("k").tolist() == [0, 1, 2, 3, 4]
        assert out.iterations == 4
        assert out.history.column("norm_x")[-1] == np.linalg.norm(out.final_state.x)

    @pytest.mark.parametrize("name", ["x0", "lam0", "mu0"])
    def test_wrong_length_starting_value_raises(self, name):
        start = dict(x0=[3.0, 3.0], lam0=None, mu0=None)
        start[name] = [1.0, 2.0, 3.0]
        x0 = start.pop("x0")
        with pytest.raises(DimensionMismatch):
            solve(example1(), fig1_params(max_iterations=5), x0, **start)

    def test_x0_projected_before_first_iteration(self):
        p = example1()
        out = solve(p, fig1_params(max_iterations=0), [10.0, -10.0])
        assert_allclose(out.final_state.x, [3.0, -3.0])

    def test_warm_start_duals(self):
        p = example1()
        params = fig1_params(max_iterations=0)
        out = solve(p, params, [3.0, 3.0], lam0=[1.0, 2.0], mu0=[3.0, 4.0])
        assert_allclose(out.final_state.lam, [1.0, 2.0])
        assert_allclose(out.final_state.mu, [3.0, 4.0])

    def test_params_validation(self):
        with pytest.raises(ValueError):
            rho2_params(step_size=0.0)
        with pytest.raises(ValueError):
            rho2_params(delta0=1.5)
        with pytest.raises(ValueError):
            rho2_params(decay=1.0)
        with pytest.raises(ValueError):
            rho2_params(max_iterations=-1)
        # 2.5 ran 3 iterations on example1 and returned ITERATION_LIMIT
        # (True ran 1: a bool is an Integral, but not a count)
        for max_iterations in (np.nan, 2.5, 3.0, "3", True, False):
            with pytest.raises(ValueError, match="max_iterations must be an integer"):
                rho2_params(max_iterations=max_iterations)
        assert rho2_params(max_iterations=np.int64(3)).max_iterations == 3
        for step_size in (np.inf, np.nan):
            with pytest.raises(ValueError, match="step_size"):
                rho2_params(step_size=step_size)


def same_run(history, state, out):
    """Whether a history and final state equal a solve outcome's, bit for bit."""
    return (all(history.column(name).tobytes() == out.history.column(name).tobytes()
                for name in ("k", *RunHistory.COLUMNS))
            and all(getattr(state, name).tobytes() == getattr(out.final_state, name).tobytes()
                    for name in ("x", "lam", "mu")))


class TestTheLoopGenerator:
    """``steps``: the loop ``solve`` drains, seen from its consumer."""

    @pytest.mark.parametrize("j", [1, 2, 10])
    def test_a_break_after_the_jth_yield_leaves_j_rows_and_calls_nothing_more(self, j):
        calls = []
        run = steps(logged(example1(), calls), fig1_params(), [3.0, 3.0])
        for count, (status, state, _, history, _) in enumerate(run, start=1):
            assert status is None and state.k == count - 1 and len(history) == count
            if count == j:
                break
        made = len(calls)
        run.close()
        assert len(history) == j and len(calls) == made

    def test_a_callback_raising_at_iteration_5_ends_as_solve_does(self):
        params = rho2_params()
        yields = list(steps(raising_at_iteration_5(), params, [1.0]))
        assert [status for status, *_ in yields] == [None] * 5 + [SolveStatus.EVALUATION_ERROR]
        _, state, kkt, history, message = yields[-1]
        assert state.k == 4 and len(history) == 5
        assert "ZeroDivisionError raised at iteration 5" in message
        out = solve(raising_at_iteration_5(), params, [1.0])
        assert (out.status, out.kkt, out.message) == (yields[-1][0], kkt, message)
        assert same_run(history, state, out)

    def test_each_yield_is_a_solve_outcome_and_solve_returns_the_last(self, monkeypatch):
        yields = []

        def recorded(*args, real=pplad.solver.steps, **kwargs):
            for outcome in real(*args, **kwargs):
                yields.append(outcome)
                yield outcome

        monkeypatch.setattr(pplad.solver, "steps", recorded)
        out = solve(example1(), fig1_params(max_iterations=20), [3.0, 3.0])
        assert [type(y) for y in yields] == [SolveOutcome] * 21
        assert [y.status for y in yields] == [None] * 20 + [SolveStatus.ITERATION_LIMIT]
        assert out is yields[-1]

class TestEvaluationOrder:
    """solve and kkt_report ask for c before J at every point, and for J once there."""

    @staticmethod
    def recorded(problem):
        """``problem`` with its c and J wrapped to log (callback, bytes of x) per call."""
        calls = []

        def logged(name):
            call = getattr(problem, name)

            def wrapper(x):
                calls.append((name, x.tobytes()))
                return call(x)
            return wrapper

        return dataclasses.replace(problem, constraints=logged("constraints"),
                                   constraint_jacobian=logged("constraint_jacobian")), calls

    @pytest.mark.parametrize("build, x0, step_size", [(example1, [3.0, 3.0], 0.002),
                                                      (example2, [4.0, 4.0, 4.0], 0.005)])
    def test_c_then_j_once_per_point(self, build, x0, step_size):
        # example2 is a from_qcqp problem, whose one cache serves this order
        problem, calls = self.recorded(build())
        params = fig1_params(step_size=step_size, max_iterations=40)
        out = solve(problem, params, x0)
        assert len(calls) == 2 * (out.iterations + 1)  # one pair per point, k = 0 included
        for (first, x_c), (second, x_j) in zip(calls[::2], calls[1::2]):
            assert (first, second) == ("constraints", "constraint_jacobian")
            assert x_c == x_j
        calls.clear()
        kkt_report(problem, out.final_state)
        x = out.final_state.x.tobytes()
        assert calls == [("constraints", x), ("constraint_jacobian", x)]


# ---------------------------------------------------------------------------
# ownership: a value keeps copies of the arrays it is built from
# ---------------------------------------------------------------------------

def vectors(state):
    return state.x, state.lam, state.mu


def run_of_example2(x0, lam0, mu0):
    return steps(example2(), fig1_params(step_size=0.005), x0, lam0=lam0, mu0=mu0)


def start_of_a_run(x0, lam0, mu0):
    start = next(run_of_example2(x0, lam0, mu0))[1]
    return lambda: vectors(start)


def state_1_of_a_started_run(x0, lam0, mu0):
    run = run_of_example2(x0, lam0, mu0)
    next(run)  # started: the k = 1 state is made after the edits
    return lambda: vectors(next(run)[1])


def full_state(x, lam, mu):
    state = FullState(x, lam, mu, k=3)
    return lambda: vectors(state)


def box(lo, hi):
    kind = Box(lo=lo, hi=hi)
    return lambda: (kind.lo, kind.hi, kind(np.zeros(3)))


def ball(center):
    kind = Ball(center=center, radius=1.0)
    return lambda: (kind.center, kind(np.full(3, 2.0)))


def validation_report(x0):
    report = validate(example1(), x0)
    return lambda: (report.x0,)


START = ([4.0, 4.0, 4.0], [0.5, -0.5], [0.25, 0.0])  # x, lam and mu of example2's size
OWNED = {
    "full-state": (full_state, START),
    "steps-start": (start_of_a_run, START),
    "steps-state-at-k1": (state_1_of_a_started_run, START),
    "box-lo-hi": (box, ([-1.0] * 3, [1.0] * 3)),
    "ball-center": (ball, ([0.0] * 3,)),
    "validation-report-x0": (validation_report, ([3.0, 3.0],)),
}


@pytest.mark.parametrize("build, given", OWNED.values(), ids=OWNED.keys())
def test_no_later_edit_of_the_given_arrays_changes_what_a_value_keeps(build, given):
    # build returns a reader of what the value keeps, and of what it computes from that
    clean = [a.tobytes() for a in build(*(np.array(v) for v in given))()]
    arrays = [np.array(v) for v in given]
    kept = build(*arrays)
    for a in arrays:
        a[...] = 5.0
    assert [a.tobytes() for a in kept()] == clean


def test_a_solved_state_shares_no_memory_with_the_start():
    # no iteration, and a projection that returns its input: the final state is the start
    x0, lam0, mu0 = np.zeros(1), np.ones(2), np.ones(2)
    out = solve(constant_constraints([1.0, 2.0]), fig1_params(max_iterations=0), x0,
                lam0=lam0, mu0=mu0)
    assert out.iterations == 0
    assert not any(np.shares_memory(kept, given) for kept in vectors(out.final_state)
                   for given in (x0, lam0, mu0))


# profiled calls per iteration (tests/callcount.py), as measured on each builtin at
# its reproduction settings and on a problem whose evaluators do nothing
CALLS_PER_ITERATION = {"example1": 69, "example2": 72, "example3": 69, "idle": 62}


@pytest.mark.parametrize("name", sorted(CALLS_PER_ITERATION))
def test_an_iteration_makes_no_more_calls_than_measured(name):
    if name == "idle":
        calls = calls_per_iteration(idle(), fig1_params(), [0.0, 0.0])
    else:
        calls = calls_per_iteration(BUILTIN_PROBLEMS[name](), reproduction_params(name),
                                    DEFAULT_START[name])
    assert sum(calls.values()) <= CALLS_PER_ITERATION[name]
    # each call is a C function or one written in pplad or the test: none is a numpy
    # wrapper written in Python, whose calls could differ between numpy versions
    numpy_dir = str(Path(np.__file__).parent)
    assert [func for func in calls if func[0].startswith(numpy_dir)] == []
