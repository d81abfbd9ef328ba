import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pplad import (Ball, Box, DimensionMismatch, FdSettings, NonnegativeOrthant,
                   Problem, WholeSpace, validate)
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
    with pytest.raises(DimensionMismatch) as info:
        Box(lo=[0.0, 0.0], hi=[1.0, 1.0])([1.0, 2.0, 3.0])
    assert info.value.expected == 2
    assert info.value.actual == 3


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


def test_problem_rejects_negative_lipschitz_c():
    base = example1()
    with pytest.raises(ValueError, match="lipschitz_c"):
        dataclasses.replace(base, lipschitz_c=-1.0)


@pytest.mark.parametrize("make", [
    lambda: FdSettings(step=np.nan),
    lambda: FdSettings(rel_tol=np.nan),
    lambda: dataclasses.replace(example1(), lipschitz_c=np.nan),
    lambda: Box(lo=[np.nan], hi=[1.0]),
    lambda: Ball(center=[np.nan], radius=1.0),
], ids=["fd-step", "fd-rel_tol", "lipschitz_c", "box-lo", "ball-center"])
def test_nan_parameters_are_rejected(make):
    with pytest.raises(ValueError):
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


def test_validate_flags_wrong_gradient_length():
    base = example1()
    broken = Problem(n=2, m=2, objective=base.objective,
                     objective_gradient=lambda x: np.zeros(3),
                     constraints=base.constraints,
                     constraint_jacobian=base.constraint_jacobian,
                     projection=base.projection, name="broken")
    report = validate(broken, np.array([3.0, 3.0]))
    assert not report.passed
    assert not report.check("objective_gradient").passed
    assert "shape" in report.check("objective_gradient").message


def test_validate_flags_wrong_objective_shape():
    base = example1()
    broken = Problem(n=2, m=2, objective=lambda x: np.array([base.objective(x)]),
                     objective_gradient=base.objective_gradient,
                     constraints=base.constraints,
                     constraint_jacobian=base.constraint_jacobian,
                     projection=base.projection, name="vector-f")
    report = validate(broken, np.array([3.0, 3.0]))
    assert not report.check("objective").passed
    assert "shape" in report.check("objective").message


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


def test_validate_reports_a_passing_projection():
    assert validate(example1(), np.array([3.0, 3.0])).check("projection").passed


def test_validate_rejects_wrong_x0_length():
    with pytest.raises(DimensionMismatch):
        validate(example1(), np.array([1.0, 2.0, 3.0]))
