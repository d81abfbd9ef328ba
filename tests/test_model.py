import dataclasses
import re
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from params import rho2_params
from pplad import (Ball, Box, DimensionMismatch, NonnegativeOrthant, Problem, WholeSpace,
                   compare, fd_jacobian, validate)
from pplad.problems import DEFAULT_START, example1, example2, example3

KINDS = [
    WholeSpace(),
    Box(lo=[-3.0, -3.0], hi=[3.0, 3.0]),
    Box(lo=[-np.inf, 0.0], hi=[np.inf, 2.5]),
    NonnegativeOrthant(),
    Ball(center=[0.5, -0.5], radius=2.0),
]


def test_box_clamps():
    assert_allclose(Box(lo=[-3, -3], hi=[3, 3])([5.0, -1.0]), [3.0, -1.0])


def test_box_clamp_keeps_nan_and_signed_zeros():
    # np.clip's values, bit for bit, with one bound per coordinate
    v = np.array([np.nan, -0.0, 0.0, -0.0, 0.0, -5.0, 5.0, np.inf, -np.inf, -0.0])
    lo = np.array([-1.0, -1.0, -1.0, 0.0, -0.0, -1.0, -1.0, -1.0, -1.0, -np.inf])
    hi = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, np.inf])
    out = Box(lo=lo, hi=hi)(v)
    assert out.tobytes() == np.clip(v, lo, hi).tobytes()
    assert np.isnan(out[0]) and np.signbit(out[1]) and not np.signbit(out[2])


def test_whole_space_is_identity():
    assert_allclose(WholeSpace()([1.2, -7.0]), [1.2, -7.0])


def test_ball_radial_scaling():
    out = Ball(center=[0.0, 0.0], radius=1.0)([3.0, 4.0])
    assert_allclose(out, [0.6, 0.8])
    assert np.linalg.norm(out) == pytest.approx(1.0)
    # colinear with the input
    assert abs(out[0] * 4.0 - out[1] * 3.0) < 1e-12


def test_orthant_clips_negatives():
    assert_allclose(NonnegativeOrthant()([-1.0, 2.0, -0.0]), [0.0, 2.0, 0.0])


def test_unbounded_box_equals_identity():
    box = Box(lo=[-np.inf, -np.inf], hi=[np.inf, np.inf])
    v = np.array([17.0, -42.0])
    assert_allclose(box(v), v)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: type(k).__name__)
def test_projection_idempotent_and_nonexpansive(kind):
    rng = np.random.default_rng(3)
    for _ in range(100):
        u = rng.uniform(-10.0, 10.0, 2)
        v = rng.uniform(-10.0, 10.0, 2)
        pu, pv = kind(u), kind(v)
        assert np.max(np.abs(kind(pv) - pv)) <= 1e-12
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


def test_box_dimension_mismatch_names_sizes():
    # bounds of one entry have length 1, as a Ball's center has its own length
    for lo, hi in (([0.0, 0.0], [1.0, 1.0]), ([0.0], [1.0]), (0.0, 1.0)):
        with pytest.raises(DimensionMismatch) as info:
            Box(lo=lo, hi=hi)([1.0, 2.0, 3.0])
        assert (info.value.what, info.value.expected, info.value.actual) == (
            "box projection input length", np.size(lo), 3)


def test_ball_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Ball(center=[0.0, 0.0], radius=1.0)([1.0])


def test_box_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        Box(lo=[1.0], hi=[0.0])


def test_ball_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        Ball(center=[0.0], radius=0.0)


def test_problem_validation_of_dimensions():
    with pytest.raises(ValueError):
        Problem(n=0, m=0, objective=lambda x: 0.0,
                objective_gradient=lambda x: np.zeros(0),
                constraints=lambda x: np.zeros(0),
                constraint_jacobian=lambda x: np.zeros((0, 0)),
                projection=lambda v: v)


@pytest.mark.parametrize("field, value", [("n", 2.5), ("n", 2.0), ("m", 1.5), ("m", "2"),
                                          ("n", True), ("m", False)])
def test_problem_rejects_dimensions_that_are_not_integers(field, value):
    # n = 2.5 failed later in solve as "expected 2.5", and m = 1.5 inside numpy
    with pytest.raises(ValueError, match=f"{field} must be a"):
        dataclasses.replace(example1(), **{field: value})


def test_problem_rejects_negative_lipschitz_c():
    base = example1()
    with pytest.raises(ValueError, match="lipschitz_c"):
        dataclasses.replace(base, lipschitz_c=-1.0)


BAD_PARAMETERS = {
    "lipschitz_c": (lambda: dataclasses.replace(example1(), lipschitz_c=np.nan), "lipschitz_c"),
    "problem-n": (lambda: dataclasses.replace(example1(), n=np.nan), "n must be"),
    "problem-m": (lambda: dataclasses.replace(example1(), m=np.nan), "m must be"),
    "box-lo": (lambda: Box(lo=[np.nan], hi=[1.0]), "no NaN"),
    "box-lo-plus-inf": (lambda: Box(lo=[np.inf, 0.0], hi=[np.inf, 1.0]), "box is empty"),
    "box-hi-minus-inf": (lambda: Box(lo=[-np.inf], hi=[-np.inf]), "box is empty"),
    "ball-center": (lambda: Ball(center=[np.nan], radius=1.0), "ball center"),
    "box-shapes": (lambda: Box(lo=[0.0, 0.0], hi=[1.0, 1.0, 1.0]),
                   re.escape("box bounds: expected (2,), got (3,)")),
    **{f"{field}-{label}": (partial(rho2_params, **{field: value}), f"{field} must be > 0")
       for field in ("tol_optimality", "tol_feasibility")
       for label, value in (("zero", 0.0), ("negative", -1.0), ("nan", np.nan))},
}


@pytest.mark.parametrize("make,match", BAD_PARAMETERS.values(), ids=BAD_PARAMETERS.keys())
def test_nan_parameters_are_rejected(make, match):
    # NaN, a wrong shape or a bound <= 0: each check's message names what it rejects
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("factory,start", [
    (example1, DEFAULT_START["example1"]),
    (example2, DEFAULT_START["example2"]),
    (example3, DEFAULT_START["example3"]),
])
def test_validate_passes_on_builtins_at_start_points(factory, start):
    report = validate(factory(), np.array(start))
    assert report.passed, report.summary()
    assert report.check("objective_gradient_fd").max_rel_error <= 1e-6
    assert report.check("constraint_jacobian_fd").max_rel_error <= 1e-6


def test_validate_flags_non_finite_objective():
    base = example1()
    broken = Problem(n=2, m=2, objective=lambda x: np.nan,
                     objective_gradient=base.objective_gradient,
                     constraints=base.constraints,
                     constraint_jacobian=base.constraint_jacobian,
                     projection=base.projection, name="nanf")
    report = validate(broken, np.array([3.0, 3.0]))
    assert not report.check("objective").passed


@pytest.mark.parametrize("projection", [lambda v: v.reshape(-1, 1), lambda v: v[:1]],
                         ids=["column", "short"])
def test_validate_blames_a_wrongly_shaped_projection(projection):
    broken = dataclasses.replace(example1(), projection=projection)
    report = validate(broken, np.array([3.0, 3.0]))
    assert not report.passed
    check = report.check("projection")
    assert not check.passed and "projection output shape" in check.message
    for name in ("objective", "objective_gradient", "constraints", "constraint_jacobian"):
        assert report.check(name).message == "skipped: projection failed"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_validate_blames_a_non_finite_projection(bad):
    broken = dataclasses.replace(example1(), projection=lambda v: np.array([bad, 0.0]))
    report = validate(broken, np.array([3.0, 3.0]))
    check = report.check("projection")
    assert not check.passed and check.message == "non-finite entries"
    for check in report.checks[1:]:
        assert not check.passed and check.message == "skipped: projection failed"


def test_validate_skips_the_oracle_check_of_a_failed_evaluator():
    def constraints(x):
        raise RuntimeError("no c here")

    broken = dataclasses.replace(example1(), constraints=constraints)
    report = validate(broken, np.array([3.0, 3.0]))
    assert report.check("constraints").message == "RuntimeError('no c here')"
    assert not report.check("constraints").passed
    skipped = report.check("constraint_jacobian_fd")
    assert (skipped.passed, skipped.message) == (False, "skipped: evaluator failed")
    ran = report.check("objective_gradient_fd")
    assert ran.passed and ran.max_rel_error is not None


def test_validation_report_has_no_check_of_an_unknown_name():
    with pytest.raises(KeyError, match="no_such_check"):
        validate(example1(), np.array([3.0, 3.0])).check("no_such_check")


def test_validate_rejects_wrong_x0_length():
    with pytest.raises(DimensionMismatch):
        validate(example1(), np.array([1.0, 2.0, 3.0]))


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
    # are exact up to floating-point cancellation: a constant, half the squared norm and
    # example1's f = -(x1-1)^2 + x2^2 at its start, then random quadratics
    for fn, x, grad in ((lambda v: 7.25, [1.0, -2.0, 0.5], [0.0, 0.0, 0.0]),
                        (lambda v: 0.5 * (v @ v), [3.0, -4.0], [3.0, -4.0]),
                        (example1().objective, [3.0, 3.0], [-4.0, 6.0])):
        assert np.max(np.abs(fd_jacobian(fn, np.array(x)) - grad)) <= 1e-8
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
