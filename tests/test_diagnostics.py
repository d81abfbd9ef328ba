import dataclasses
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from params import fig1_params, reproduction_params, rho2_params
from pplad import (Box, DimensionMismatch, FullState, Problem, QcqpSpec, RunHistory,
                   SolveStatus, check_trace, from_qcqp, kkt_report, solve, steps,
                   write_trace_csv)
from pplad.problems import BUILTIN_PROBLEMS, DEFAULT_START, example1, example3

DEMO_OUTPUT = Path(__file__).resolve().parents[1] / "demos" / "output"

# the float columns of a history row, in the order ``append`` takes them after k
COLUMNS = RunHistory.COLUMNS


def replay(problem, params, x0):
    """Every state of the run from x0, read off ``steps``."""
    return [state for _, state, *_ in steps(problem, params, x0)]


def box_qcqp(n, m, seed):
    """A seeded QCQP over [-1, 1]^n, feasible by construction at a random point of the box."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    Qj = [rng.standard_normal((n, n)) / np.sqrt(n) for _ in range(m)]
    qj = [rng.standard_normal(n) for _ in range(m)]
    x_feasible = rng.uniform(-0.5, 0.5, n)
    bj = [-(0.5 * x_feasible @ M @ x_feasible + v @ x_feasible) for M, v in zip(Qj, qj)]
    spec = QcqpSpec(Q=A @ A.T + np.eye(n), q=rng.standard_normal(n), Qj=tuple(Qj),
                    qj=tuple(qj), bj=tuple(bj), projection=Box(-np.ones(n), np.ones(n)))
    return from_qcqp(spec, name=f"box-{n}-{m}")


class TestResiduals:
    def test_interior_stationary_point_has_zero_optimality(self):
        p = example1()
        # grad f(1,0) = 0 and the two constraint gradients cancel for lam=(t,t)
        s = FullState(x=[1.0, 0.0], lam=[4.0, 4.0], mu=[4.0, 4.0])
        assert kkt_report(p, s).optimality == 0.0

    def test_whole_space_residual_is_gradient_norm(self):
        p = Problem(n=2, m=0, objective=lambda x: float(x @ x),
                    objective_gradient=lambda x: 2.0 * x,
                    constraints=lambda x: np.zeros(0),
                    constraint_jacobian=lambda x: np.zeros((0, 2)),
                    projection=lambda v: v, name="quad")
        s = FullState(x=[3.0, 4.0], lam=[], mu=[])
        assert kkt_report(p, s).optimality == pytest.approx(10.0)
        assert kkt_report(p, s).feasibility == 0.0

    def test_feasibility_zero_at_feasible_point_whatever_the_multipliers(self):
        s = FullState(x=[1.0, 0.0], lam=[2.0, -1.0], mu=[0.0, 5.0])
        assert kkt_report(example1(), s).feasibility == 0.0

    def test_feasibility_direct_arithmetic(self):
        # c(5, 5) = (-4, 25), whatever the multipliers: lam = mu here
        s = FullState(x=[5.0, 5.0], lam=[1.0, 1.0], mu=[1.0, 1.0])
        assert kkt_report(example3(), s).feasibility == pytest.approx(np.hypot(4.0, 25.0))

    def test_feasibility_equals_constraint_norm_along_trace(self, run1):
        p, params, out, _ = run1
        feas = out.history.column("feasibility")
        states = replay(p, params, [3.0, 3.0])
        assert len(states) == len(feas)
        for k, s in enumerate(states):
            assert feas[k] == np.linalg.norm(p.constraints(s.x))


class TestKktReport:
    def test_converged_run_is_satisfied(self, run1):
        _, _, out, _ = run1
        assert out.status is SolveStatus.CONVERGED
        assert_allclose(out.final_state.x, [1.0, 0.0], atol=1e-3)

    def test_solve_report_matches_a_fresh_evaluation(self, run1):
        p, _, out, _ = run1
        fresh = kkt_report(p, out.final_state)
        assert fresh == out.kkt

    def test_wrong_projection_shape_names_the_projection(self):
        p = dataclasses.replace(example1(), projection=lambda v: np.reshape(v, (-1, 1)))
        s = FullState(x=[3.0, 3.0], lam=[0.0, 0.0], mu=[0.0, 0.0])
        with pytest.raises(DimensionMismatch, match="projection"):
            kkt_report(p, s)

    @pytest.mark.parametrize("name, value", [("lam", [1.0]), ("lam", [1.0, 1.0, 1.0]),
                                             ("x", [3.0, 3.0, 3.0])], ids=["lam1", "lam3", "x3"])
    def test_state_of_the_wrong_size_raises(self, name, value):
        values = {"x": [3.0, 3.0], "lam": [1.0, 1.0], "mu": [0.5, -2.0], name: value}
        with pytest.raises(DimensionMismatch, match=f"state.{name} length"):
            kkt_report(example1(), FullState(**values))

    def test_initial_state_of_example1_not_satisfied(self):
        p = example1()
        s = FullState(x=[3.0, 3.0], lam=[0.0, 0.0], mu=[0.0, 0.0])
        report = kkt_report(p, s)
        # infeasible start: c(3,3) = (17, 9) shows up even though lam = mu
        assert report.feasibility == pytest.approx(np.hypot(17.0, 9.0))
        assert report.optimality > 1e-6

    def test_feasible_but_nonstationary_state(self):
        p = example3()
        # (2, 0) is feasible; a wrong multiplier leaves the gradient nonzero
        s = FullState(x=[2.0, 0.0], lam=[5.0, 5.0], mu=[5.0, 5.0])
        report = kkt_report(p, s)
        assert report.feasibility == 0.0
        assert report.optimality > 1e-6


class TestCheckTrace:
    def test_correct_run_has_no_violations(self, run1):
        p, params, out, _ = run1
        assert p.lipschitz_c is not None  # so the lam step is checked too
        assert check_trace(p, out.history, params) == []

    def test_perturbed_mu_trips_the_bound(self, run1):
        p, params, _, _ = run1
        hist = solve(p, params, [3.0, 3.0]).history  # fresh history to mutate
        hist.column("norm_mu")[200] += 600.0  # beyond ||mu_0|| + delta0/(2(1-r)) = 500
        violations = check_trace(p, hist, params)
        assert [(v.name, v.k) for v in violations] == [("mu_bound", 200)]

    def test_violation_carries_positive_margin(self, run1):
        p, params, _, _ = run1
        out = solve(p, params, [3.0, 3.0])
        out.history.column("norm_mu")[150] += 600.0
        violations = check_trace(p, out.history, params)
        assert violations
        for v in violations:
            assert v.margin > 0.0
            assert v.lhs > v.rhs

    @pytest.mark.parametrize("column,row,check,k", [
        # a term of the step into row k + 1 is reported at k, where the step starts
        ("step_mu_sq", 150, "mu_step", 149),
        ("mu_prev_lambda_norm", 150, "mu_lam_contraction", 149),
        ("gap_lambda_mu", 150, "identity_lam_mu", 150),
        ("step_lambda_sq", 150, "lam_step", 149),     # example1 has L_c
        ("lagrangian", 200, "merit_decrease", 199),
    ])
    def test_corrupted_term_trips_its_check_by_name(self, run1, column, row, check, k):
        p, params, _, _ = run1
        hist = solve(p, params, [3.0, 3.0]).history
        hist.column(column)[row] += 600.0
        violations = check_trace(p, hist, params)
        assert [(v.name, v.k) for v in violations] == [(check, k)]

    @pytest.mark.parametrize("column,expected", [
        ("norm_mu", [("mu_bound", 20)]),
        ("step_mu_sq", [("mu_step", 19)]),
        ("lagrangian", [("merit_decrease", 19), ("merit_decrease", 20)]),
        ("gap_lambda_mu", [("identity_lam_mu", 20)]),
        ("feasibility", [("identity_lam_mu", 20)]),
        ("mu_prev_lambda_norm", [("mu_lam_contraction", 19)]),
        ("step_lambda_sq", [("lam_step", 19)]),
        ("step_x_norm", [("lam_step", 19)]),
        ("lambda_mu_sq", [("lambda_mu_sq_nonnegative", 20), ("mu_lam_contraction", 20),
                          ("mu_step", 20), ("mu_step_budget", 20)]),
        ("gamma", [("mu_lam_contraction", 19), ("mu_step", 19), ("mu_step_budget", 19)]),
        ("delta", [("lam_step", 20), ("merit_decrease", 20), ("mu_step_budget", 20)]
         + [("mu_bound", k) for k in range(21, 51)]),  # the bound sums the budgets before k
    ])
    def test_nan_term_trips_every_check_that_reads_it(self, run1, column, expected):
        # lhs > rhs is False for a NaN, so a check that only asked that would pass it
        p, params, _, _ = run1
        params = dataclasses.replace(params, max_iterations=50)
        hist = solve(p, params, [3.0, 3.0]).history
        hist.column(column)[20] = np.nan
        assert [(v.name, v.k) for v in check_trace(p, hist, params)] == expected

    def test_a_run_ending_in_a_nan_constraint_value_is_not_clean(self):
        # c(x) is NaN for x < 0, where the first step lands from x0 = 0.5
        p = Problem(n=1, m=1, objective=lambda x: float(x @ x),
                    objective_gradient=lambda x: 2.0 * x,
                    constraints=lambda x: np.array([np.nan if x[0] < 0 else x[0] - 0.25]),
                    constraint_jacobian=lambda x: np.ones((1, 1)),
                    projection=lambda v: v, name="nan-c")
        params = rho2_params(step_size=1.0)
        out = solve(p, params, [0.5])
        assert out.status is SolveStatus.EVALUATION_ERROR
        assert_array_equal(out.history.column("feasibility"), [0.25, np.nan])
        assert [(v.name, v.k) for v in check_trace(p, out.history, params)] == [
            ("identity_lam_mu", 1), ("lambda_mu_sq_nonnegative", 1)]

    def test_negative_lambda_mu_sq_is_a_violation_at_its_k(self, run1):
        # a squared norm below zero is reported before its root is taken,
        # where np.sqrt would warn (an error under this repo's warning filter)
        p, params, _, _ = run1
        hist = solve(p, params, [3.0, 3.0]).history
        hist.column("lambda_mu_sq")[100] = -1.0
        violations = check_trace(p, hist, params)
        # the steps out of k = 100 read the negative square (its root as 0) too
        assert [(v.name, v.k) for v in violations] == [
            ("lambda_mu_sq_nonnegative", 100), ("mu_lam_contraction", 100), ("mu_step", 100)]
        assert (violations[0].lhs, violations[0].rhs, violations[0].margin) == (0.0, -1.0, 1.0)

    def test_mu_bound_reads_the_recorded_budgets(self, run1):
        # budgets recorded 10 larger before k = 200 leave room for ||mu_200|| 1,000 larger
        p, params, _, _ = run1
        hist = solve(p, params, [3.0, 3.0]).history
        hist.column("norm_mu")[200] += 600.0
        hist.column("delta")[:200] += 10.0
        assert check_trace(p, hist, params) == []

    def test_reads_only_rho_and_the_lipschitz_constant(self, run1):
        p, params, _, _ = run1
        hist = solve(p, params, [3.0, 3.0]).history
        hist.column("norm_mu")[200] += 600.0
        hist.column("step_lambda_sq")[150] += 600.0
        bare = check_trace(SimpleNamespace(lipschitz_c=p.lipschitz_c), hist,
                           SimpleNamespace(penalty=SimpleNamespace(rho=params.penalty.rho)))
        assert bare == check_trace(p, hist, params)
        assert [(v.name, v.k) for v in bare] == [("lam_step", 149), ("mu_bound", 200)]

    def test_makes_no_constraint_calls(self, run1):
        _, params, _, _ = run1
        calls = []
        base = example1()

        def constraints(x):
            calls.append(1)
            return base.constraints(x)

        p = dataclasses.replace(base, constraints=constraints)
        out = solve(p, params, [3.0, 3.0])
        calls.clear()
        assert check_trace(p, out.history, params) == []
        assert calls == []

    def test_empty_trace_is_rejected(self, run1):
        p, params, _, _ = run1
        with pytest.raises(ValueError, match="^empty trace: nothing to check$"):
            check_trace(p, RunHistory(), params)

    def test_single_record_trace_is_vacuously_clean(self):
        p = example1()
        params = fig1_params(max_iterations=0)
        out = solve(p, params, [3.0, 3.0])
        assert len(out.history) == 1
        assert check_trace(p, out.history, params) == []

    def test_two_record_trace_checks_its_one_step_only(self):
        # one transition, from k = 0: the step checks apply, the merit decrease
        # (from k >= 1) and the lam step have nothing to compare
        p = example1()
        params = fig1_params(max_iterations=1)
        hist = solve(p, params, [3.0, 3.0]).history
        assert len(hist) == 2
        assert check_trace(p, hist, params) == []
        hist.column("step_mu_sq")[1] += 600.0
        hist.column("lagrangian")[1] += 600.0
        hist.column("step_lambda_sq")[1] += 1e12
        assert [(v.name, v.k) for v in check_trace(p, hist, params)] == [("mu_step", 0)]

    def test_unconstrained_history_checks_cleanly(self):
        p = Problem(n=1, m=0, objective=lambda x: float((x[0] - 1.0) ** 2),
                    objective_gradient=lambda x: 2.0 * (x - 1.0),
                    constraints=lambda x: np.zeros(0),
                    constraint_jacobian=lambda x: np.zeros((0, 1)),
                    projection=lambda v: v, name="scalar")
        params = rho2_params(max_iterations=200, tol_optimality=1e-8, tol_feasibility=1e-8)
        out = solve(p, params, [5.0])
        assert check_trace(p, out.history, params) == []


class TestRunHistory:
    def test_append_takes_a_row_in_column_order_and_k_is_its_index(self):
        hist = RunHistory()
        hist.append([float(i) for i in range(len(COLUMNS))])
        assert hist.column("k").tolist() == [0] and hist.column("k").dtype == np.int64
        assert [hist.column(name)[0] for name in COLUMNS] == list(range(len(COLUMNS)))
        ks, objective = hist.column("k"), hist.column("objective")
        hist.append([-1.0] * len(COLUMNS))
        assert ks.tolist() == [0] and objective.tolist() == [0.0]
        assert hist.column("objective").tolist() == [0.0, -1.0]
        assert hist.column("k").tolist() == [0, 1] and len(hist) == 2

    @pytest.mark.parametrize("size", [len(COLUMNS) - 1, len(COLUMNS) + 1])
    def test_append_rejects_a_row_of_the_wrong_length(self, size):
        hist = RunHistory()
        hist.append([0.0] * len(COLUMNS))
        with pytest.raises(ValueError, match="row"):
            hist.append([1.0] * size)
        assert len(hist) == 1
        assert hist.column("k").tolist() == [0]
        assert [hist.column(name)[0] for name in COLUMNS] == [0.0] * len(COLUMNS)

    @pytest.mark.parametrize("view", ["k", "objective"])
    def test_append_stores_the_whole_row_while_one_view_is_alive(self, view):
        # a live view pins the table it reads (k is the row index, read from no
        # buffer): the row must still be stored whole, and a bad row not at all
        hist = RunHistory()
        hist.append([0.0] * len(COLUMNS))
        held = hist.column(view)
        hist.append([1.0] * len(COLUMNS))
        assert held.tolist() == [0]
        assert len(hist) == 2 and hist.column("k").tolist() == [0, 1]
        assert [hist.column(name).tolist() for name in COLUMNS] == [[0.0, 1.0]] * len(COLUMNS)
        with pytest.raises(ValueError, match="row"):
            hist.append([2.0] * (len(COLUMNS) + 1))
        with pytest.raises(TypeError):
            hist.append([2.0] * (len(COLUMNS) - 1) + ["2"])
        assert hist.column("k").tolist() == [0, 1]
        assert [hist.column(name).tolist() for name in COLUMNS] == [[0.0, 1.0]] * len(COLUMNS)

    @pytest.mark.parametrize("rows, error", [
        (np.zeros((2, len(COLUMNS) - 1)), ValueError),
        (np.zeros((2, len(COLUMNS) + 1)), ValueError),
        (np.zeros(len(COLUMNS)), ValueError),
        (np.zeros((1, 2, len(COLUMNS))), ValueError),
        ([[0.0] * len(COLUMNS), [0.0] * (len(COLUMNS) - 1)], ValueError),
        ([[0.0] * (len(COLUMNS) - 1) + ["2"]], TypeError),
    ], ids=["width-14", "width-16", "1-d-row", "3-d", "ragged", "string-entry"])
    def test_rows_are_refused_whole_as_append_refuses_a_row(self, rows, error):
        # the constructor raises, so no history holds any of the rows
        with pytest.raises(error):
            RunHistory(rows)

    def test_no_rows_make_an_empty_history_that_check_trace_refuses(self, run1):
        p, params, _, _ = run1
        for hist in (RunHistory(), RunHistory(())):
            assert len(hist) == 0
            assert all(len(hist.column(name)) == 0 for name in ("k", *COLUMNS))
            with pytest.raises(ValueError, match="^empty trace: nothing to check$"):
                check_trace(p, hist, params)

    def test_rows_are_copied_from_a_table_slice(self):
        # a trace table's columns after k, as README passes them: a strided slice
        table = np.arange(2.0 * (1 + len(COLUMNS))).reshape(2, -1)
        hist = RunHistory(table[:, 1:])
        table[:] = -1.0
        assert len(hist) == 2 and hist.column("k").tolist() == [0, 1]
        assert [hist.column(name).tolist() for name in COLUMNS] == [
            [1.0 + j, 2.0 + len(COLUMNS) + j] for j in range(len(COLUMNS))]

    def test_views_kept_across_appends_keep_their_rows_and_do_not_copy_each_time(self):
        # a reader that keeps a view while rows are appended, as a consumer of ``steps``
        # may: every view still reads its rows, a fresh column reads every row, and
        # the table is replaced a logarithmic number of times, not once per view
        def row(k):
            return [k + j / 100 for j in range(len(COLUMNS))]

        hist, held, replaced = RunHistory(), [], 0
        for k in range(11000):
            table = hist._table
            hist.append(row(k))
            replaced += hist._table is not table
            if k in (0, 1, 63, 64, 999) or k % 64 == 0:
                view = hist.column(COLUMNS[-1])
                held.append((view, view.copy()))
        assert replaced <= np.log2(11000 * len(COLUMNS)) + 1
        for view, seen in held:
            assert view.tobytes() == seen.tobytes()
        assert hist.column("objective").tolist() == list(range(11000))
        assert hist.column(COLUMNS[-1]).tolist() == [k + 0.14 for k in range(11000)]

    def test_reading_every_column_copies_no_row(self):
        # the columns are views of the stored rows: reading them all copies none
        rows = 5000
        tracemalloc.start()
        try:
            hist = RunHistory()
            for k in range(rows):
                hist.append([float(k)] * len(COLUMNS))
            stored = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            views = [hist.column(name) for name in COLUMNS]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stored > len(COLUMNS) * rows * 8
        assert peak < stored + stored / len(COLUMNS)
        assert [len(view) for view in views] == [rows] * len(COLUMNS)
        hist.column("objective")[3] = -1.0
        assert hist.column("objective")[3] == -1.0

    def test_solve_memory_does_not_grow_with_iterations_times_n(self):
        # m = 3 and 200 iterations: storing x at every iteration would add
        # 200 * (400 - 50) * 8 B = 560 kB between the two sizes
        params = fig1_params(step_size=0.1, max_iterations=200)
        peaks, iterations = {}, {}
        for n in (50, 400):
            problem = box_qcqp(n, 3, seed=n)
            tracemalloc.start()
            try:
                out = solve(problem, params, np.zeros(n))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            iterations[n] = out.iterations
        assert min(iterations.values()) >= 100
        working_set = 3 * (400 - 50) * 8  # the growth of one m x n array
        assert peaks[400] - peaks[50] < 8 * working_set

    def test_solve_holds_one_m_by_n_array_at_a_time(self):
        # from_qcqp hands the cached product Mx over as J instead of copying it,
        # so besides its history a solve holds one m x n array and O(n + m) vectors
        n, m = 200, 20
        problem = box_qcqp(n, m, seed=7)
        params = fig1_params(step_size=0.1, max_iterations=300)
        x0 = np.zeros(n)
        # one solve first: the interpreter's free lists it fills outlive it
        solve(problem, params, x0)
        tracemalloc.start()
        try:
            out = solve(problem, params, x0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.iterations >= 50
        history_bytes = sys.getsizeof(out.history._table)  # the array the rows are kept in
        assert peak - history_bytes < 1.5 * m * n * 8


class TestRecordedTerms:
    """Every recorded column against a replay of the states with fresh callback calls."""

    @staticmethod
    def unconstrained():
        # the minimizer (0.5, 2) is interior in x_1 and clamped to the box in x_2
        target = np.array([0.5, 2.0])
        return Problem(n=2, m=0, objective=lambda x: float((x - target) @ (x - target)),
                       objective_gradient=lambda x: 2.0 * (x - target),
                       constraints=lambda x: np.zeros(0),
                       constraint_jacobian=lambda x: np.zeros((0, 2)),
                       projection=Box([-1.0, -1.0], [1.0, 1.0]), name="m0")

    @pytest.mark.parametrize("name", ["example1", "example2", "example3", "qcqp-box", "m0"])
    def test_terms_match_a_replay_of_iterate(self, name):
        if name in BUILTIN_PROBLEMS:
            p, x0 = BUILTIN_PROBLEMS[name](), DEFAULT_START[name]
            params = fig1_params(delta0=0.5, max_iterations=150)
        else:
            p = box_qcqp(6, 2, seed=3) if name == "qcqp-box" else self.unconstrained()
            x0 = np.zeros(p.n)
            params = fig1_params(step_size=0.05, max_iterations=150)
        hist = solve(p, params, x0).history
        states = replay(p, params, x0)
        assert len(states) == len(hist)
        rho, delta0, decay = params.penalty.rho, params.delta0, params.decay

        def norm_sq(v):
            return v @ v

        expected = {name: [] for name in ("k", *COLUMNS)}
        prev = None
        for s in states:
            c = p.constraints(s.x)
            d = s.lam - s.mu
            report = kkt_report(p, s)
            row = dict(k=s.k, gamma=0.0, delta=delta0 * decay ** s.k, objective=p.objective(s.x),
                       feasibility=report.feasibility, optimality=report.optimality,
                       lagrangian=p.objective(s.x) + s.lam @ c - norm_sq(d) / (2.0 * rho),
                       norm_x=np.linalg.norm(s.x), norm_lambda=np.linalg.norm(s.lam),
                       norm_mu=np.linalg.norm(s.mu),
                       lambda_mu_sq=norm_sq(d), gap_lambda_mu=np.linalg.norm(d - rho * c),
                       step_x_norm=0.0, step_lambda_sq=0.0, step_mu_sq=0.0,
                       mu_prev_lambda_norm=0.0)
            if prev is not None:
                row.update(step_x_norm=np.linalg.norm(s.x - prev.x),
                           gamma=rho * (delta0 * decay ** prev.k) / (norm_sq(prev_d) + 1.0),
                           step_lambda_sq=norm_sq(s.lam - prev.lam),
                           step_mu_sq=norm_sq(s.mu - prev.mu),
                           mu_prev_lambda_norm=np.linalg.norm(s.mu - prev.lam))
            for key, value in row.items():
                expected[key].append(value)
            prev, prev_d = s, d
        for key, values in expected.items():
            assert_array_equal(hist.column(key), values, err_msg=key)


class TestTraceCsv:
    def test_round_trip(self, run1, tmp_path):
        # the README's reader; ndmin=2 keeps a one-row trace, from max_iterations=0, a
        # table (a whole run's round trip is a property in test_properties.py)
        p, params, _, _ = run1
        history = solve(p, dataclasses.replace(params, max_iterations=0), [3.0, 3.0]).history
        path = tmp_path / "trace.csv"
        write_trace_csv(history, path)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert table.shape == (1, 1 + len(COLUMNS))
        for j, name in enumerate(("k", *COLUMNS)):
            # %.17e is lossless for doubles, and k comes back as its float value
            assert_array_equal(table[:, j], history.column(name))

    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    def test_demo_traces_reproduced_byte_for_byte(self, name, tmp_path):
        # the settings of demos/02_builtin_runs.py, which wrote the committed CSVs
        out = solve(BUILTIN_PROBLEMS[name](), reproduction_params(name), DEFAULT_START[name])
        path = tmp_path / "trace.csv"
        write_trace_csv(out.history, path)
        assert path.read_bytes() == (DEMO_OUTPUT / f"{name}_trace.csv").read_bytes()

    @pytest.mark.parametrize("name", ["example1", "example2", "example3", "least_norm"])
    def test_committed_traces_rebuild_and_write_back_byte_for_byte(self, name, tmp_path):
        committed = DEMO_OUTPUT / f"{name}_trace.csv"
        table = np.loadtxt(committed, delimiter=",", skiprows=1, ndmin=2)
        history = RunHistory(table[:, 1:])
        assert history.column("k").tolist() == table[:, 0].tolist()
        path = tmp_path / "trace.csv"
        write_trace_csv(history, path)
        assert path.read_bytes() == committed.read_bytes()

    def test_header_contract(self, run1, tmp_path):
        _, _, out, _ = run1
        path = tmp_path / "trace.csv"
        write_trace_csv(out.history, path)
        header = path.read_text().splitlines()[0]
        assert header == ("k,objective,feasibility,optimality,lagrangian,"
                          "norm_x,norm_lambda,norm_mu,step_x_norm,gamma,delta,"
                          "lambda_mu_sq,gap_lambda_mu,step_lambda_sq,step_mu_sq,"
                          "mu_prev_lambda_norm")

    def test_empty_history_round_trips_to_empty_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(RunHistory(), path)
        assert path.read_text() == ",".join(("k", *COLUMNS)) + "\n"

    def test_a_gz_name_writes_and_reads_plain_text(self, run1, tmp_path):
        _, _, out, _ = run1
        plain, gz = tmp_path / "t.csv", tmp_path / "t.csv.gz"
        write_trace_csv(out.history, plain)
        write_trace_csv(out.history, gz)
        assert gz.read_bytes() == plain.read_bytes()
        # opened here: np.loadtxt given the .gz path itself would gunzip it
        with open(gz, encoding="utf-8") as fh:
            table = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
        assert_array_equal(table[:, 0], out.history.column("k"))
        for j, name in enumerate(COLUMNS, start=1):
            assert table[:, j].tobytes() == out.history.column(name).tobytes(), name
