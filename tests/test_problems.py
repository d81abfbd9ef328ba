import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pplad import (Box, DimensionMismatch, QcqpSpec, WholeSpace, compare, fd_jacobian,
                   from_qcqp)
from pplad.problems import BUILTIN_PROBLEMS, DEFAULT_START, example1, example2, example3


class TestExample1:
    def test_solution_is_feasible(self):
        assert_allclose(example1().constraints([1.0, 0.0]), [0.0, 0.0])

    def test_objective_zero_at_solution(self):
        assert example1().objective([1.0, 0.0]) == 0.0

    def test_jacobian_rank_deficient_at_solution(self):
        jac = example1().constraint_jacobian(np.array([1.0, 0.0]))
        assert_allclose(jac, [[2.0, 0.0], [-2.0, 0.0]])
        assert np.linalg.matrix_rank(jac) == 1  # constraint gradients parallel

    def test_objective_and_gradient_at_start(self):
        p = example1()
        assert p.objective([3.0, 3.0]) == pytest.approx(5.0)
        assert_allclose(p.objective_gradient(np.array([3.0, 3.0])), [-4.0, 6.0])

    def test_box_projection_active(self):
        assert_allclose(example1().projection(np.array([4.0, -5.0])), [3.0, -3.0])


class TestExample2:
    def test_optimal_value(self):
        assert example2().objective(np.array([0.0, 0.0, 8.0])) == pytest.approx(224.0)

    def test_constraints_vanish_at_solution(self):
        # c1 = 0.5*4*64 - 32*8 + 128 = 0 and c2 = 0.5*64 - 8*8 + 32 = 0
        assert_allclose(example2().constraints(np.array([0.0, 0.0, 8.0])),
                        [0.0, 0.0], atol=1e-12)

    def test_constraint_gradients_vanish_at_solution(self):
        # both rows of the Jacobian are zero there: LICQ fails maximally
        jac = example2().constraint_jacobian(np.array([0.0, 0.0, 8.0]))
        assert_allclose(jac, np.zeros((2, 3)), atol=1e-12)

    def test_projection_is_three_dimensional_orthant(self):
        p = example2()
        assert p.n == 3
        assert_allclose(p.projection(np.array([-1.0, 2.0, -3.0])), [0.0, 2.0, 0.0])


class TestExample3:
    def test_solution_feasible_with_value_four(self):
        p = example3()
        assert_allclose(p.constraints([2.0, 0.0]), [0.0, 0.0])
        assert p.objective([2.0, 0.0]) == pytest.approx(4.0)

    def test_jacobian_at_solution(self):
        jac = example3().constraint_jacobian(np.array([2.0, 0.0]))
        assert_allclose(jac, [[4.0, 0.0], [0.0, 2.0]])

    def test_bounds_live_in_projection_not_constraints(self):
        p = example3()
        assert p.m == 2
        assert_allclose(p.projection(np.array([-1.0, -2.0])), [0.0, 0.0])


class TestQcqpSpec:
    def test_gradient_consistent_after_symmetrizing(self):
        # for nonsymmetric input M the correct gradient of 0.5 x'Mx is
        # 0.5(M + M')x, which is what symmetrizing delivers via Qx
        M = np.array([[1.0, 3.0], [-1.0, 2.0]])
        spec = QcqpSpec(Q=M, q=[0.0, 0.0], Qj=(), qj=(), bj=(),
                        projection=WholeSpace())
        p = from_qcqp(spec)
        x = np.array([0.7, -1.3])
        err, ok = compare(p.objective_gradient(x), fd_jacobian(p.objective, x))
        assert ok, err

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            QcqpSpec(Q=[[1.0, 0.0]], q=[0.0], Qj=(), qj=(), bj=(),
                     projection=WholeSpace())
        with pytest.raises(DimensionMismatch):
            QcqpSpec(Q=np.eye(2), q=[0.0, 0.0, 0.0], Qj=(), qj=(), bj=(),
                     projection=WholeSpace())
        with pytest.raises(DimensionMismatch):
            QcqpSpec(Q=np.eye(2), q=[0.0, 0.0], Qj=(np.eye(3),),
                     qj=([0.0, 0.0],), bj=(0.0,), projection=WholeSpace())
        with pytest.raises(DimensionMismatch):  # ragged: matrices of two sizes
            QcqpSpec(Q=np.eye(2), q=[0.0, 0.0], Qj=(np.eye(2), np.eye(3)),
                     qj=([0.0, 0.0], [0.0, 0.0]), bj=(0.0, 0.0), projection=WholeSpace())
        with pytest.raises(DimensionMismatch):
            QcqpSpec(Q=np.eye(2), q=[0.0, 0.0], Qj=(np.eye(2), np.eye(2)),
                     qj=([0.0, 0.0],), bj=(0.0, 0.0), projection=WholeSpace())
        with pytest.raises(DimensionMismatch):
            QcqpSpec(Q=np.eye(2), q=[0.0, 0.0], Qj=(np.eye(2), np.eye(2)),
                     qj=([0.0, 0.0], [0.0, 0.0]), bj=(0.0,), projection=WholeSpace())

    def test_problem_is_unchanged_by_later_edits_of_the_input_arrays(self):
        data = dict(Q=np.eye(2), q=np.zeros(2), Qj=np.ones((1, 2, 2)), qj=np.zeros((1, 2)),
                    bj=np.zeros(1))
        lo, hi = np.full(2, -3.0), np.full(2, 3.0)
        p = from_qcqp(QcqpSpec(**data, projection=Box(lo=lo, hi=hi)))
        x = np.array([1.0, -2.0])
        before = p.objective(x), p.constraints(x).tobytes(), p.project(x).tobytes()
        for value in (*data.values(), lo, hi):
            value[...] = 7.0
        assert (p.objective(x), p.constraints(x).tobytes(), p.project(x).tobytes()) == before

    @pytest.mark.parametrize("field", ["Q", "q", "Qj", "qj", "bj"])
    def test_non_finite_data_is_rejected(self, field):
        data = dict(Q=np.eye(2), q=np.zeros(2), Qj=np.ones((1, 2, 2)), qj=np.zeros((1, 2)),
                    bj=np.zeros(1))
        data[field] = data[field].copy()
        data[field].flat[-1] = np.nan if field in ("Q", "qj") else -np.inf
        with pytest.raises(ValueError, match=f"field {field} has NaN or infinite"):
            QcqpSpec(**data, projection=WholeSpace())

    @pytest.mark.parametrize("field", ["Q", "Qj"])
    def test_data_whose_symmetrization_overflows_is_rejected(self, field):
        # finite and not symmetric, and the mirrored pair sums past the float range
        data = dict(Q=np.eye(2), q=np.zeros(2), Qj=np.ones((1, 2, 2)), qj=np.zeros((1, 2)),
                    bj=np.zeros(1))
        data[field] = data[field].copy()
        data[field].flat[1], data[field].flat[2] = 1.7e308, 1.6e308  # (0, 1) and (1, 0)
        with pytest.raises(ValueError, match=f"field {field} overflows when symmetrized"):
            QcqpSpec(**data, projection=WholeSpace())

    def test_symmetric_data_is_stored_as_given_and_cannot_overflow(self):
        # 1e308 + 1e308 overflows, but a symmetric matrix is never summed with its mirror
        spec = QcqpSpec(Q=[[1e308]], q=[0.0], Qj=(), qj=(), bj=(), projection=WholeSpace())
        assert_bitwise([spec.Q], [np.array([[1e308]])])

    def test_fortran_ordered_input_gives_owned_c_ordered_fields(self):
        A = np.random.default_rng(3).standard_normal((3, 3))
        M = np.asfortranarray(A + A.T)
        Qj = np.asfortranarray(np.stack([M, 0.5 * M, -M]))
        spec = QcqpSpec(Q=M, q=np.zeros(3), Qj=Qj, qj=np.zeros((3, 3)), bj=np.zeros(3),
                        projection=WholeSpace())
        assert_bitwise([spec.Q, spec.Qj], [M, Qj])
        for field, given in (("Q", M), ("Qj", Qj)):
            value = getattr(spec, field)
            assert value.flags.c_contiguous and not np.shares_memory(value, given)

    def test_symmetrization_near_the_float_range_is_exact(self):
        M = np.array([[8.9e307, 1.7e308], [-1.7e308, 5e-324]])  # every M + M' stays finite
        spec = QcqpSpec(Q=M, q=np.zeros(2), Qj=M[None], qj=np.zeros((1, 2)), bj=np.zeros(1),
                        projection=WholeSpace())
        assert_bitwise([spec.Q, spec.Qj], [(M + M.T) * 0.5, ((M + M.T) * 0.5)[None]])

    def test_tuples_and_stacked_arrays_give_equal_fields(self):
        from_tuples = dense_spec(n=6, m=3)
        rng = np.random.default_rng(5)  # dense_spec's draws, stacked
        stacked = QcqpSpec(Q=rng.standard_normal((6, 6)), q=rng.standard_normal(6),
                           Qj=np.stack([rng.standard_normal((6, 6)) for _ in range(3)]),
                           qj=np.stack([rng.standard_normal(6) for _ in range(3)]),
                           bj=rng.standard_normal(3), projection=WholeSpace())
        for field in ("Q", "q", "Qj", "qj", "bj"):
            assert_bitwise([getattr(stacked, field)], [getattr(from_tuples, field)])
        assert stacked.Qj.shape == (3, 6, 6) and stacked.Qj.flags.c_contiguous


def dense_spec(n=200, m=20, seed=5):
    rng = np.random.default_rng(seed)
    return QcqpSpec(Q=rng.standard_normal((n, n)), q=rng.standard_normal(n),
                    Qj=tuple(rng.standard_normal((n, n)) for _ in range(m)),
                    qj=tuple(rng.standard_normal(n) for _ in range(m)),
                    bj=tuple(rng.standard_normal(m)), projection=WholeSpace())


def fresh(spec, x):
    """c and J at x, each from a Problem that has evaluated nothing before."""
    return from_qcqp(spec).constraints(x), from_qcqp(spec).constraint_jacobian(x)


def c_and_J(p, x, jacobian_first=False):
    """c and J of p at x, asked for in either order: the first call fills the cache."""
    if jacobian_first:
        J = p.constraint_jacobian(x)
        return p.constraints(x), J
    c = p.constraints(x)
    return c, p.constraint_jacobian(x)


def assert_bitwise(actual, expected):
    for a, e in zip(actual, expected):
        assert a.dtype == e.dtype and a.shape == e.shape
        assert a.tobytes() == e.tobytes()  # also tells -0.0 from 0.0


class TestFromQcqp:
    def test_zero_data_gives_zero_objective(self):
        spec = QcqpSpec(Q=np.zeros((3, 3)), q=np.zeros(3), Qj=(), qj=(), bj=(),
                        projection=WholeSpace())
        assert (spec.Qj.shape, spec.qj.shape, spec.bj.shape) == ((0, 3, 3), (0, 3), (0,))
        p = from_qcqp(spec)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(3)
        assert p.objective(x) == 0.0
        assert_allclose(p.objective_gradient(x), np.zeros(3))
        assert_bitwise(c_and_J(p, x), (np.zeros(0), np.zeros((0, 3))))

    def test_random_specs_match_finite_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n, m = 4, 3
            def sym():
                M = rng.standard_normal((n, n))
                return 0.5 * (M + M.T)
            spec = QcqpSpec(Q=sym(), q=rng.standard_normal(n),
                            Qj=tuple(sym() for _ in range(m)),
                            qj=tuple(rng.standard_normal(n) for _ in range(m)),
                            bj=tuple(rng.standard_normal(m)),
                            projection=WholeSpace())
            p = from_qcqp(spec)
            x = rng.uniform(-2.0, 2.0, n)
            err, _ = compare(p.objective_gradient(x), fd_jacobian(p.objective, x))
            assert err <= 1e-6
            err, _ = compare(p.constraint_jacobian(x), fd_jacobian(p.constraints, x))
            assert err <= 1e-6


class TestStackedConstraints:
    """c and J of from_qcqp share one stacked product per point."""

    def test_matches_the_per_matrix_formulas(self):
        spec = dense_spec()
        p = from_qcqp(spec)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, spec.n)
            c_ref = np.array([0.5 * (x @ M @ x) + v @ x + b
                              for M, v, b in zip(spec.Qj, spec.qj, spec.bj)])
            J_ref = np.vstack([M @ x + v for M, v in zip(spec.Qj, spec.qj)])
            c, J = p.constraints(x), p.constraint_jacobian(x)
            assert_array_equal(J, J_ref)
            assert np.linalg.norm(c - c_ref) <= 1e-13 * np.linalg.norm(c_ref)

    def test_problem_copies_no_constraint_data(self):
        spec = dense_spec()  # 6.4 MB of Qj
        tracemalloc.start()
        try:
            from_qcqp(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_point_mutated_in_place_is_a_new_point(self):
        spec = dense_spec()
        p = from_qcqp(spec)
        x = np.linspace(-1.0, 1.0, spec.n)
        p.constraints(x)
        x[3] += 0.5
        assert_bitwise(c_and_J(p, x), fresh(spec, x))
        x[7] = -x[7]
        assert_bitwise(c_and_J(p, x, jacobian_first=True), fresh(spec, x))

    def test_signed_zeros_are_different_points(self):
        spec = dense_spec(n=3, m=2)
        p = from_qcqp(spec)
        plus = np.array([0.0, 1.0, 0.0])
        minus = np.array([-0.0, 1.0, -0.0])
        for x in (plus, minus, plus):
            assert_bitwise(c_and_J(p, x), fresh(spec, x))
            assert_bitwise(c_and_J(p, x, jacobian_first=True), fresh(spec, x))

    def test_list_input(self):
        spec = dense_spec(n=4, m=3)
        p = from_qcqp(spec)
        x = [0.5, -1.0, 2.0, 0.25]
        assert_bitwise(c_and_J(p, x), fresh(spec, np.array(x)))

    def test_jacobian_at_the_parked_point_copies_no_key(self):
        # J compares the parked bits with x's own buffer: at the point c parked, it
        # adds less than one n * 8-byte copy of x to what c left, J's m * n * 8 bytes
        spec = dense_spec()
        p = from_qcqp(spec)
        x = np.linspace(-1.0, 1.0, spec.n)
        tracemalloc.start()
        try:
            p.constraints(x)
            parked = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            J = p.constraint_jacobian(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert J.nbytes == spec.m * spec.n * 8 <= parked
        assert peak - parked < spec.n * 8
        assert_bitwise([J], [fresh(spec, x)[1]])

    def test_two_threads_at_different_points(self):
        spec = dense_spec()
        p = from_qcqp(spec)
        rng = np.random.default_rng(10)
        points = [rng.standard_normal(spec.n) for _ in range(2)]
        expected = [fresh(spec, x) for x in points]
        start = threading.Barrier(2)
        wrong = []

        def work(i):
            start.wait()
            for _ in range(200):
                got = c_and_J(p, points[i])
                if any(a.tobytes() != e.tobytes() for a, e in zip(got, expected[i])):
                    wrong.append(i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert wrong == []


class TestOwnership:
    """c and J are a fresh Problem's in any call order, and each caller owns what it gets.

    A sequence names calls at two points: "c1" is c at x1, "J2" is J at x2.
    """

    SEQUENCES = ["c1 J1", "J1 c1", "J1 J1", "c1 c1",
                 "c1 J2 J1 c2 c1 J1 J2 J2 c2 c1 c1 J1"]

    @staticmethod
    def run(sequence, edit=False):
        """Per call, its result and what a Problem that evaluated nothing gives there.

        With ``edit``, every result is overwritten after a copy of it is kept.
        """
        spec = dense_spec(n=30, m=5, seed=12)
        rng = np.random.default_rng(13)
        points = {"1": rng.standard_normal(spec.n), "2": rng.standard_normal(spec.n)}
        p = from_qcqp(spec)
        results = []
        for kind, point in sequence.split():
            call = {"c": "constraints", "J": "constraint_jacobian"}[kind]
            got = getattr(p, call)(points[point])
            results.append((got.copy() if edit else got,
                            getattr(from_qcqp(spec), call)(points[point])))
            if edit:
                got[...] = 7.0
        return spec, results

    @pytest.mark.parametrize("sequence", SEQUENCES)
    def test_every_call_order_matches_a_fresh_problem(self, sequence):
        for got, expected in self.run(sequence)[1]:
            assert_bitwise([got], [expected])

    @pytest.mark.parametrize("sequence", SEQUENCES)
    def test_editing_a_result_changes_no_later_result(self, sequence):
        for got, expected in self.run(sequence, edit=True)[1]:
            assert_bitwise([got], [expected])

    def test_no_returned_array_shares_memory(self):
        spec, results = self.run(self.SEQUENCES[-1])
        returned = [got for got, _ in results]
        for i, a in enumerate(returned):
            for b in (*returned[i + 1:], spec.Qj, spec.qj, spec.bj):
                assert not np.shares_memory(a, b)

    def test_threads_taking_the_jacobian_at_one_point_get_their_own(self):
        spec = dense_spec(n=60, m=8, seed=14)
        p = from_qcqp(spec)
        rng = np.random.default_rng(15)
        x, other = rng.standard_normal(spec.n), rng.standard_normal(spec.n)
        expected = from_qcqp(spec).constraint_jacobian(x)
        workers = 4  # more than the cores, with frequent switches between them
        start = threading.Barrier(workers + 1)
        results = [None] * workers

        def work(i):
            start.wait(timeout=10)
            results[i] = p.constraint_jacobian(x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                p.constraints(other)
                p.constraints(x)  # the cache now holds the product at x for one taker
                threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
                for t in threads:
                    t.start()
                start.wait(timeout=10)
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                for i, a in enumerate(results):
                    assert_bitwise([a], [expected])
                    assert not any(np.shares_memory(a, b) for b in results[i + 1:])
        finally:
            sys.setswitchinterval(interval)


def test_builtins_registry_and_start_points():
    assert set(BUILTIN_PROBLEMS) == {"example1", "example2", "example3"}
    for name, factory in BUILTIN_PROBLEMS.items():
        p = factory()
        assert p.name == name
        assert len(DEFAULT_START[name]) == p.n
