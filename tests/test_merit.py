import numpy as np
import pytest
from numpy.testing import assert_allclose

from merit import eval_full, zhat
from params import FIG1, RHO2
from pplad import DimensionMismatch, FullState, PenaltyParams, grad_x
from pplad.problems import example1, example2

RHO1 = PenaltyParams(alpha=2.0, beta=0.5)  # rho = 1


class TestPenaltyParams:
    def test_rho_formula(self):
        assert PenaltyParams(alpha=2000.0, beta=0.5).rho == 2000.0 / 1001.0

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
        for alpha in (np.inf, np.nan, -np.inf):
            with pytest.raises(ValueError, match="alpha"):
                PenaltyParams(alpha=alpha, beta=0.5)


class TestEvalFull:
    def test_reduces_to_objective_when_coupling_vanishes(self):
        p = example1()
        state = FullState(x=[2.0, -1.0], lam=[0.0, 0.0], mu=[0.0, 0.0])
        assert eval_full(p, RHO1, state) == pytest.approx(p.objective(state.x))

    def test_hand_arithmetic_term_by_term(self):
        # x=(3,3), z=(1,0), lam=(1,1), mu=(0,0), alpha=2, beta=0.5:
        #   f = -(3-1)^2 + 3^2                       =  5
        #   c = (9+9-1, 1+9-1)                       = (17, 9)
        #   <lam, c - z> = 16 + 9                    = 25
        #   <mu, z>                                  =  0
        #   (alpha/2)||z||^2 = 1 * 1                 =  1
        #   -(beta/2)||lam - mu||^2 = -0.25 * 2      = -0.5
        p = example1()
        x = np.array([3.0, 3.0])
        z = np.array([1.0, 0.0])
        lam = np.array([1.0, 1.0])
        mu = np.array([0.0, 0.0])

        f_term = p.objective(x)
        c = p.constraints(x)
        assert_allclose(c, [17.0, 9.0])
        coupling = lam @ (c - z)
        z_terms = mu @ z + 0.5 * RHO1.alpha * (z @ z)
        prox = -0.5 * RHO1.beta * ((lam - mu) @ (lam - mu))
        assert f_term == pytest.approx(5.0)
        assert coupling == pytest.approx(25.0)
        assert z_terms == pytest.approx(1.0)
        assert prox == pytest.approx(-0.5)

        total = eval_full(p, RHO1, FullState(x=x, lam=lam, mu=mu), z=z)
        assert total == pytest.approx(30.5)
        assert total == pytest.approx(f_term + coupling + z_terms + prox)

    def test_z_defaults_to_its_closed_form(self):
        p = example1()
        state = FullState(x=[3.0, 3.0], lam=[1.0, 1.0], mu=[0.5, -2.0])
        assert eval_full(p, RHO1, state) == \
            eval_full(p, RHO1, state, z=zhat(RHO1, state.lam, state.mu))

    @pytest.mark.parametrize("name, value", [("lam", [1.0]), ("lam", [1.0, 1.0, 1.0]),
                                             ("mu", [0.5]), ("x", [3.0, 3.0, 3.0])],
                             ids=["lam1", "lam3", "mu1", "x3"])
    @pytest.mark.parametrize("given_z", [False, True], ids=["zhat", "given_z"])
    def test_state_of_the_wrong_size_raises(self, name, value, given_z):
        values = {"x": [3.0, 3.0], "lam": [1.0, 1.0], "mu": [0.5, -2.0], name: value}
        with pytest.raises(DimensionMismatch, match=f"state.{name} length"):
            eval_full(example1(), RHO2, FullState(**values), z=[1.0, 0.0] if given_z else None)


class TestGradX:
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


def reduced(problem, params, x, lam, mu):
    """The merit with z eliminated: eval_full at z = zhat(lam, mu)."""
    return eval_full(problem, params, FullState(x, lam, mu))


class TestEvalReduced:
    def test_feasible_point_equal_multipliers(self):
        value = reduced(example1(), RHO2, [1.0, 0.0], [5.0, 7.0], [5.0, 7.0])
        assert value == pytest.approx(0.0)

    def test_concave_in_lambda_along_segments(self):
        p = example2()
        rng = np.random.default_rng(29)
        for _ in range(50):
            x = rng.uniform(0.0, 5.0, 3)
            mu = rng.standard_normal(2)
            a = 3.0 * rng.standard_normal(2)
            b = 3.0 * rng.standard_normal(2)
            va = reduced(p, FIG1, x, a, mu)
            vb = reduced(p, FIG1, x, b, mu)
            vmid = reduced(p, FIG1, x, 0.5 * (a + b), mu)
            assert vmid >= 0.5 * (va + vb) - 1e-12 * (1.0 + abs(vmid))


@pytest.mark.parametrize("k", [-10, -1, 2.5, 1.0, "3", True, False])
def test_full_state_rejects_a_k_that_is_not_a_nonnegative_integer(k):
    # at k = -10 the schedule's budget would be delta0 decay^-10, outside (0, delta0]
    with pytest.raises(ValueError, match="k must be"):
        FullState([1.0, 0.0], [1.0, 0.0], [0.0, 0.0], k=k)


def test_full_state_accepts_a_numpy_integer_k():
    assert FullState([1.0], [], [], k=np.int64(3)).k == 3
