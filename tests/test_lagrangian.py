import numpy as np
import pytest
from numpy.testing import assert_allclose

from merit import eval_full, zhat
from pplad import (DimensionMismatch, FullState, PenaltyParams, SolverParams, fd_jacobian,
                   grad_x)
from pplad.problems import example1, example2, example3
from stepping import advance

# alpha/(1 + alpha*beta) = 2 exactly
RHO2 = PenaltyParams(alpha=4.0, beta=0.25)


def random_state(problem, rng, x_scale=4.0, dual_scale=2.0):
    """A random state and a random z, drawn in the order x, z, lam, mu."""
    x = rng.uniform(-x_scale, x_scale, problem.n)
    z = dual_scale * rng.standard_normal(problem.m)
    return FullState(x=x, lam=dual_scale * rng.standard_normal(problem.m),
                     mu=dual_scale * rng.standard_normal(problem.m)), z


class TestPenaltyParams:
    def test_rho_formula(self):
        params = PenaltyParams(alpha=2000.0, beta=0.5)
        assert params.rho == 2000.0 / 1001.0

    def test_rho_bounds_and_reciprocal_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            alpha = float(10 ** rng.uniform(-1, 4))
            beta = float(rng.uniform(0.01, 0.99))
            params = PenaltyParams(alpha=alpha, beta=beta)
            assert 0.0 < params.rho < min(alpha, 1.0 / beta)
            lhs = 1.0 / (2.0 * params.rho)
            rhs = 1.0 / (2.0 * alpha) + beta / 2.0
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            PenaltyParams(alpha=0.0, beta=0.5)
        with pytest.raises(ValueError):
            PenaltyParams(alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            PenaltyParams(alpha=1.0, beta=0.0)


class TestEvalFull:
    def test_reduces_to_objective_when_coupling_vanishes(self):
        p = example1()
        params = PenaltyParams(alpha=2.0, beta=0.5)
        state = FullState(x=[2.0, -1.0], lam=[0.0, 0.0], mu=[0.0, 0.0])
        assert eval_full(p, params, state) == pytest.approx(p.objective(state.x))

    def test_zero_at_solution_with_zero_duals(self):
        p = example1()
        params = PenaltyParams(alpha=2.0, beta=0.5)
        state = FullState(x=[1.0, 0.0], lam=[0.0, 0.0], mu=[0.0, 0.0])
        assert eval_full(p, params, state) == pytest.approx(0.0)

    def test_hand_arithmetic_term_by_term(self):
        # x=(3,3), z=(1,0), lam=(1,1), mu=(0,0), alpha=2, beta=0.5:
        #   f = -(3-1)^2 + 3^2                       =  5
        #   c = (9+9-1, 1+9-1)                       = (17, 9)
        #   <lam, c - z> = 16 + 9                    = 25
        #   <mu, z>                                  =  0
        #   (alpha/2)||z||^2 = 1 * 1                 =  1
        #   -(beta/2)||lam - mu||^2 = -0.25 * 2      = -0.5
        p = example1()
        params = PenaltyParams(alpha=2.0, beta=0.5)
        x = np.array([3.0, 3.0])
        z = np.array([1.0, 0.0])
        lam = np.array([1.0, 1.0])
        mu = np.array([0.0, 0.0])

        f_term = p.objective(x)
        c = p.constraints(x)
        assert_allclose(c, [17.0, 9.0])
        coupling = lam @ (c - z)
        z_terms = mu @ z + 0.5 * params.alpha * (z @ z)
        prox = -0.5 * params.beta * ((lam - mu) @ (lam - mu))
        assert f_term == pytest.approx(5.0)
        assert coupling == pytest.approx(25.0)
        assert z_terms == pytest.approx(1.0)
        assert prox == pytest.approx(-0.5)

        total = eval_full(p, params, FullState(x=x, lam=lam, mu=mu), z=z)
        assert total == pytest.approx(30.5)
        assert total == pytest.approx(f_term + coupling + z_terms + prox)

    def test_z_defaults_to_its_closed_form(self):
        p = example1()
        params = PenaltyParams(alpha=2.0, beta=0.5)
        state = FullState(x=[3.0, 3.0], lam=[1.0, 1.0], mu=[0.5, -2.0])
        assert eval_full(p, params, state) == \
            eval_full(p, params, state, z=zhat(params, state.lam, state.mu))

    @pytest.mark.parametrize("name, value", [("lam", [1.0]), ("lam", [1.0, 1.0, 1.0]),
                                             ("mu", [0.5]), ("x", [3.0, 3.0, 3.0])],
                             ids=["lam1", "lam3", "mu1", "x3"])
    @pytest.mark.parametrize("given_z", [False, True], ids=["zhat", "given_z"])
    def test_state_of_the_wrong_size_raises(self, name, value, given_z):
        values = {"x": [3.0, 3.0], "lam": [1.0, 1.0], "mu": [0.5, -2.0], name: value}
        with pytest.raises(DimensionMismatch, match=f"state.{name} length"):
            eval_full(example1(), RHO2, FullState(**values), z=[1.0, 0.0] if given_z else None)


class TestGradX:
    def test_zero_duals_give_objective_gradient(self):
        p = example1()
        state = FullState(x=[3.0, 3.0], lam=[0.0, 0.0], mu=[0.0, 0.0])
        assert_allclose(grad_x(p, state), [-4.0, 6.0])

    def test_hand_arithmetic(self):
        # grad f(3,3) = (-4, 6); J rows (6,6), (2,6); J^T (1,1) = (8, 12)
        p = example1()
        state = FullState(x=[3.0, 3.0], lam=[1.0, 1.0], mu=[2.0, -3.0])
        assert_allclose(grad_x(p, state), [4.0, 18.0])

    def test_unconstrained_problem(self):
        from pplad import Problem
        p = Problem(n=2, m=0, objective=lambda x: float(x @ x),
                    objective_gradient=lambda x: 2.0 * x,
                    constraints=lambda x: np.zeros(0),
                    constraint_jacobian=lambda x: np.zeros((0, 2)),
                    projection=lambda v: v, name="plain")
        state = FullState(x=[1.0, -2.0], lam=[], mu=[])
        assert_allclose(grad_x(p, state), [2.0, -4.0])

    @pytest.mark.parametrize("factory", [example1, example2, example3])
    def test_matches_finite_differences_of_eval_full(self, factory):
        p = factory()
        params = PenaltyParams(alpha=2000.0, beta=0.5)
        rng = np.random.default_rng(17)
        for _ in range(10):
            state, z = random_state(p, rng)
            analytic = grad_x(p, state)
            fd = fd_jacobian(
                lambda x: eval_full(p, params, FullState(x, state.lam, state.mu), z=z),
                state.x)
            assert np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic))) <= 1e-6


class TestZhat:
    def test_equal_multipliers_give_zero(self):
        assert_allclose(zhat(RHO2, [3.0, -1.0], [3.0, -1.0]), [0.0, 0.0])

    def test_direct_formula(self):
        params = PenaltyParams(alpha=2000.0, beta=0.5)
        assert_allclose(zhat(params, [2.0, -4.0], [0.0, 0.0]), [0.001, -0.002])

    @pytest.mark.parametrize("factory", [example1, example2, example3])
    def test_minimizes_eval_full_over_z(self, factory):
        p = factory()
        params = PenaltyParams(alpha=2000.0, beta=0.5)
        rng = np.random.default_rng(5)
        for _ in range(25):
            state, _ = random_state(p, rng)
            best = zhat(params, state.lam, state.mu)
            value = eval_full(p, params, state, z=best)
            for _ in range(5):
                u = rng.standard_normal(p.m)
                u /= np.linalg.norm(u)
                perturbed = eval_full(p, params, state, z=best + 1e-3 * u)
                assert value <= perturbed


def reduced(problem, params, x, lam, mu):
    """The merit with z eliminated: eval_full at z = zhat(lam, mu)."""
    return eval_full(problem, params, FullState(x, lam, mu))


class TestEvalReduced:
    def test_zero_duals_give_objective(self):
        p = example1()
        x = np.array([2.5, -1.0])
        value = reduced(p, RHO2, x, np.zeros(2), np.zeros(2))
        assert value == pytest.approx(p.objective(x))

    def test_feasible_point_equal_multipliers(self):
        value = reduced(example1(), RHO2, [1.0, 0.0], [5.0, 7.0], [5.0, 7.0])
        assert value == pytest.approx(0.0)

    def test_concave_in_lambda_along_segments(self):
        p = example2()
        params = PenaltyParams(alpha=2000.0, beta=0.5)
        rng = np.random.default_rng(29)
        for _ in range(50):
            x = rng.uniform(0.0, 5.0, 3)
            mu = rng.standard_normal(2)
            a = 3.0 * rng.standard_normal(2)
            b = 3.0 * rng.standard_normal(2)
            va = reduced(p, params, x, a, mu)
            vb = reduced(p, params, x, b, mu)
            vmid = reduced(p, params, x, 0.5 * (a + b), mu)
            assert vmid >= 0.5 * (va + vb) - 1e-12 * (1.0 + abs(vmid))


class TestLambdaHat:
    """The lam one iteration returns is the closed-form maximizer mu + rho c(x)."""

    def test_feasible_point_returns_mu(self):
        # x = (1, 0) is feasible and, with lam = 0, stationary: x stays put and lam = mu
        p = example1()
        mu = np.array([1.5, -2.0])
        state = FullState(x=[1.0, 0.0], lam=[0.0, 0.0], mu=mu)
        nxt = advance(p, SolverParams(penalty=RHO2, step_size=0.1), state)
        assert_allclose(nxt.x, [1.0, 0.0])
        assert_allclose(nxt.lam, nxt.mu)

    def test_hand_arithmetic_on_complementarity_problem(self):
        # at (5, 5) with lam = (0, 2): grad f = (-10, -10) and J^T lam = (10, 10),
        # so x stays at (5, 5), where c = (25-25-4, 25) = (-4, 25);
        # gamma = rho/(||lam - mu||^2 + 1) = 0.4 moves mu to 0.2*(0, 2) = (0, 0.4),
        # and lam = mu + 2*c = (-8, 50.4)
        state = FullState(x=[5.0, 5.0], lam=[0.0, 2.0], mu=[0.0, 0.0])
        nxt = advance(example3(), SolverParams(penalty=RHO2, step_size=0.1), state)
        assert_allclose(nxt.x, [5.0, 5.0])
        assert_allclose(nxt.lam, [-8.0, 50.4])

    @pytest.mark.parametrize("factory", [example1, example2, example3])
    def test_maximizes_eval_reduced_over_lambda(self, factory):
        p = factory()
        params = PenaltyParams(alpha=2000.0, beta=0.5)
        solver_params = SolverParams(penalty=params, step_size=0.002)
        rng = np.random.default_rng(31)
        for _ in range(25):
            x = rng.uniform(-4.0, 4.0, p.n)
            mu = 2.0 * rng.standard_normal(p.m)
            nxt = advance(p, solver_params, FullState(x, mu, mu))
            value = reduced(p, params, nxt.x, nxt.lam, nxt.mu)
            for _ in range(4):
                u = rng.standard_normal(p.m)
                u /= np.linalg.norm(u)
                assert value >= reduced(p, params, nxt.x, nxt.lam + 1e-3 * u, nxt.mu)


def test_full_state_dimension_check():
    state = FullState(x=[1.0, 2.0], lam=[0.0], mu=[0.0])
    with pytest.raises(DimensionMismatch):
        state.check_dims(example1())


@pytest.mark.parametrize("k", [-10, -1, 2.5, 1.0, "3"])
def test_full_state_rejects_a_k_that_is_not_a_nonnegative_integer(k):
    # at k = -10 the schedule's budget would be delta0 decay^-10, outside (0, delta0]
    with pytest.raises(ValueError, match="k must be"):
        FullState([1.0, 0.0], [1.0, 0.0], [0.0, 0.0], k=k)


def test_full_state_accepts_a_numpy_integer_k():
    assert FullState([1.0], [], [], k=np.int64(3)).k == 3
