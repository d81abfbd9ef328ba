import numpy as np
import pytest
from numpy.testing import assert_allclose

from pplad import compare, fd_jacobian
from pplad.problems import example1


def test_constant_function_has_zero_gradient():
    grad = fd_jacobian(lambda x: 7.25, np.array([1.0, -2.0, 0.5]))
    assert_allclose(grad, 0.0, atol=1e-8)


def test_gradient_of_half_norm_squared_is_x():
    x = np.array([3.0, -4.0])
    grad = fd_jacobian(lambda v: 0.5 * (v @ v), x)
    assert_allclose(grad, x, atol=1e-8)


def test_example1_objective_gradient_at_start():
    # f = -(x1-1)^2 + x2^2, so grad f(3, 3) = (-4, 6)
    p = example1()
    grad = fd_jacobian(p.objective, np.array([3.0, 3.0]))
    assert_allclose(grad, [-4.0, 6.0], atol=1e-8)


def test_linear_map_jacobian_recovered():
    A = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 3.0]])
    jac = fd_jacobian(lambda x: A @ x, np.array([0.3, -1.2, 2.0]))
    assert_allclose(jac, A, atol=1e-8)


def test_example1_constraint_jacobian_at_start():
    p = example1()
    jac = fd_jacobian(p.constraints, np.array([3.0, 3.0]))
    assert_allclose(jac, [[6.0, 6.0], [2.0, 6.0]], atol=1e-8)


def test_empty_output_gives_empty_jacobian():
    jac = fd_jacobian(lambda x: np.zeros(0), np.array([1.0, 2.0]))
    assert jac.shape == (0, 2)


def test_central_exact_on_quadratics_up_to_roundoff():
    # degree <= 2 polynomials have no third derivative: central differences
    # are exact up to floating-point cancellation
    rng = np.random.default_rng(7)
    for _ in range(10):
        A = rng.standard_normal((3, 3))
        A = 0.5 * (A + A.T)
        b = rng.standard_normal(3)
        c = rng.standard_normal()
        x = rng.uniform(-1.0, 1.0, 3)
        grad = fd_jacobian(lambda v: 0.5 * (v @ A @ v) + b @ v + c, x)
        assert np.max(np.abs(grad - (A @ x + b))) <= 1e-8


def test_non_finite_value_names_coordinate():
    def fn(x):
        return np.nan if x[1] > 1.0 else float(x @ x)

    with pytest.raises(ValueError, match="coordinate 1"):
        fd_jacobian(fn, np.array([0.0, 1.0]))


def test_compare_identical():
    err, ok = compare(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
    assert err == 0.0 and ok


def test_compare_arithmetic_and_fail_flag():
    # |1 - 1.1| / (1 + 1) = 0.05, far above the tolerance 1e-5
    err, ok = compare(1.0, 1.1)
    assert err == pytest.approx(0.05)
    assert not ok


def test_compare_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        compare(np.zeros(2), np.zeros(3))


def test_compare_empty_passes():
    err, ok = compare(np.zeros(0), np.zeros(0))
    assert err == 0.0 and ok


def test_builtin_gradients_pass_at_random_points():
    rng = np.random.default_rng(11)
    p = example1()
    for _ in range(10):
        x = rng.uniform(-3.0, 3.0, 2)
        err, ok = compare(p.objective_gradient(x), fd_jacobian(p.objective, x))
        assert ok, err


def test_oracle_calls_fn_twice_per_coordinate_and_never_at_x():
    p = example1()
    x = np.array([3.0, 3.0])
    points = []

    def counted(v):
        points.append(v.copy())
        return p.constraints(v)

    fd_jacobian(counted, x)
    assert len(points) == 2 * x.size
    assert not any(np.array_equal(v, x) for v in points)
