import dataclasses
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from identities import kernel_violations
from params import fig1_params, rho2_params
from pplad import (Box, DimensionMismatch, FullState, Problem, QcqpSpec, RunHistory,
                   SolveStatus, check_trace, from_qcqp, kkt_report, solve, steps,
                   write_trace_csv)
from pplad.problems import example1, example3

DEMO_OUTPUT = Path(__file__).resolve().parents[1] / "demos" / "output"

# the float columns of a history row, in the order ``append`` takes them after k
COLUMNS = RunHistory.COLUMNS


def copy_of(history, rows=None):
    """A history of the same rows, or of the first ``rows``, to mutate without touching the
    shared run's."""
    return RunHistory(np.column_stack([history.column(name) for name in COLUMNS])[:rows])


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


class TestKktReport:
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
    def test_perturbed_mu_trips_the_bound(self, run1):
        p, params, out, *_ = run1
        hist = copy_of(out.history)
        hist.column("norm_mu")[200] += 600.0  # beyond ||mu_0|| + delta0/(2(1-r)) = 500
        [v] = check_trace(p, hist, params)
        assert (v.name, v.k) == ("mu_bound", 200) and v.lhs > v.rhs

    @pytest.mark.parametrize("column,row,check,k", [
        # a term of the step into row k + 1 is reported at k, where the step starts
        ("step_lambda_sq", 150, "lam_step", 149),     # example1 has L_c
        ("lagrangian", 200, "merit_decrease", 199),
    ])
    def test_corrupted_term_trips_its_check_by_name(self, run1, column, row, check, k):
        p, params, out, *_ = run1
        hist = copy_of(out.history)
        hist.column(column)[row] += 600.0
        violations = check_trace(p, hist, params)
        assert [(v.name, v.k) for v in violations] == [(check, k)]

    @pytest.mark.parametrize("column,expected", [
        ("norm_mu", [("finite_terms", 20), ("mu_bound", 20)]),
        ("delta", [("finite_terms", 20), ("lam_step", 20), ("merit_decrease", 20)]
         + [("mu_bound", k) for k in range(21, 51)]),  # the bound sums the budgets before k
        ("lagrangian", [("merit_decrease", 19), ("finite_terms", 20), ("merit_decrease", 20)]),
        ("step_lambda_sq", [("lam_step", 19), ("finite_terms", 20)]),
        ("step_x_norm", [("lam_step", 19), ("finite_terms", 20)]),
        ("step_mu_sq", [("finite_terms", 20)]),
        ("feasibility", [("finite_terms", 20)]),
    ])
    def test_nan_term_trips_every_check_that_reads_it(self, run1, column, expected):
        # lhs > rhs is False for a NaN, so a check that only asked that would pass it;
        # the first 51 rows of run1 are a 50-iteration run's whole history
        p, params, out, *_ = run1
        hist = copy_of(out.history, rows=51)
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
        # no inequality reads the last row of a two-row trace: its NaN terms are reported
        violations = check_trace(p, out.history, params)
        assert [(v.name, v.k) for v in violations] == [("finite_terms", 1)]
        assert np.isnan(out.history.column("lagrangian")[1])
        assert violations[0].lhs > 0.0 and violations[0].rhs == 0.0

    def test_mu_bound_reads_the_recorded_budgets(self, run1):
        # budgets recorded 10 larger before k = 200 leave room for ||mu_200|| 1,000 larger
        p, params, out, *_ = run1
        hist = copy_of(out.history)
        hist.column("norm_mu")[200] += 600.0
        hist.column("delta")[:200] += 10.0
        assert check_trace(p, hist, params) == []

    def test_reads_only_rho_and_the_lipschitz_constant(self, run1):
        p, params, out, *_ = run1
        hist = copy_of(out.history)
        hist.column("norm_mu")[200] += 600.0
        hist.column("step_lambda_sq")[150] += 600.0
        bare = check_trace(SimpleNamespace(lipschitz_c=p.lipschitz_c), hist,
                           SimpleNamespace(penalty=SimpleNamespace(rho=params.penalty.rho)))
        assert bare == check_trace(p, hist, params)
        assert [(v.name, v.k) for v in bare] == [("lam_step", 149), ("mu_bound", 200)]

    def test_makes_no_constraint_calls(self, run1):
        base, params, out, *_ = run1
        calls = []

        def constraints(x):
            calls.append(1)
            return base.constraints(x)

        p = dataclasses.replace(base, constraints=constraints)
        assert check_trace(p, out.history, params) == []
        assert calls == []

    def test_empty_trace_is_rejected(self, run1):
        p, params, *_ = run1
        with pytest.raises(ValueError, match="^empty trace: nothing to check$"):
            check_trace(p, RunHistory(), params)

    def test_single_record_trace_is_vacuously_clean(self):
        p = example1()
        params = fig1_params(max_iterations=0)
        out = solve(p, params, [3.0, 3.0])
        assert len(out.history) == 1
        assert check_trace(p, out.history, params) == []

    def test_two_record_trace_checks_its_one_step_only(self):
        # one transition, from k = 0: only the dual bound and finiteness apply, as
        # the merit decrease (from k >= 1) and the lam step have nothing to compare
        p = example1()
        params = fig1_params(max_iterations=1)
        hist = solve(p, params, [3.0, 3.0]).history
        assert len(hist) == 2
        assert check_trace(p, hist, params) == []
        hist.column("lagrangian")[1] += 600.0
        hist.column("step_lambda_sq")[1] += 1e12
        assert check_trace(p, hist, params) == []
        hist.column("norm_mu")[1] += 600.0
        assert [(v.name, v.k) for v in check_trace(p, hist, params)] == [("mu_bound", 1)]
        hist.column("lagrangian")[1] = np.inf     # infinite, not only NaN, is reported
        assert [(v.name, v.k, v.lhs) for v in check_trace(p, hist, params)] == [
            ("finite_terms", 1, 1.0), ("mu_bound", 1, hist.column("norm_mu")[1])]

    def test_unconstrained_history_checks_cleanly(self):
        p = Problem(n=1, m=0, objective=lambda x: float((x[0] - 1.0) ** 2),
                    objective_gradient=lambda x: 2.0 * (x - 1.0),
                    constraints=lambda x: np.zeros(0),
                    constraint_jacobian=lambda x: np.zeros((0, 1)),
                    projection=lambda v: v, name="scalar")
        params = rho2_params(max_iterations=200, tol_optimality=1e-8, tol_feasibility=1e-8)
        out = solve(p, params, [5.0])
        assert check_trace(p, out.history, params) == []


class TestKernelIdentities:
    """The tests' oracle for the kernel's identities names each one that a broken state breaks."""

    @staticmethod
    def run():
        # 30 iterations of example1: each state, and the merit recorded there
        p, params = example1(), fig1_params(max_iterations=30)
        outcomes = list(steps(p, params, [3.0, 3.0]))
        states = [outcome.final_state for outcome in outcomes]
        return p, params, states, outcomes[-1].history.column("lagrangian").copy()

    # each way of breaking state 20 or 21, and the identities reported at k = 20 for it
    BROKEN = {
        "merit-adds-the-square": ["lambda_mu_sq_nonnegative"],
        "lam-off-mu-plus-rho-c": ["identity_lam_mu", "mu_lam_contraction", "mu_step_budget"],
        "mu-steps-to-lam": ["mu_lam_contraction", "mu_step", "mu_step_budget"],
        "mu-steps-away-from-lam": ["mu_lam_contraction"],
        "mu-nan": ["mu_lam_contraction", "mu_step", "mu_step_budget"],
    }

    @pytest.mark.parametrize("broken", BROKEN)
    def test_a_broken_state_trips_its_identity(self, broken):
        p, params, states, merits = self.run()
        s, nxt = states[20], states[21]
        if broken == "merit-adds-the-square":   # f + <lam, c> + ||d||^2/(2 rho)
            total = p.f(s.x) + s.lam @ p.c(s.x)
            merits[20] = 2.0 * total - merits[20]
        elif broken == "lam-off-mu-plus-rho-c":
            states[20] = FullState(s.x, s.lam + [1.0, 0.0], s.mu, k=20)
        else:
            mu = {"mu-steps-to-lam": s.lam, "mu-steps-away-from-lam": 2.0 * s.mu - nxt.mu,
                  "mu-nan": [np.nan, 0.0]}[broken]
            states[21] = FullState(nxt.x, nxt.lam, mu, k=21)
        found = kernel_violations(p, params, states, merits)
        assert [name for name, k in found if k == 20] == self.BROKEN[broken]


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
        (np.zeros((2, 15)), ValueError),   # the rows of a trace written with 15 columns
        (np.zeros((2, 16)), ValueError),   # such a trace whole, k included
        (np.zeros(len(COLUMNS)), ValueError),
        (np.zeros((1, 2, len(COLUMNS))), ValueError),
        ([[0.0] * len(COLUMNS), [0.0] * (len(COLUMNS) - 1)], ValueError),
        ([[0.0] * (len(COLUMNS) - 1) + ["2"]], TypeError),
    ], ids=["width-10", "width-12", "width-15", "width-16", "1-d-row", "3-d", "ragged",
            "string-entry"])
    def test_rows_are_refused_whole_as_append_refuses_a_row(self, rows, error):
        # the constructor raises, so no history holds any of the rows
        with pytest.raises(error):
            RunHistory(rows)

    def test_no_rows_make_an_empty_history_that_check_trace_refuses(self, run1):
        p, params, *_ = run1
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
        last = (len(COLUMNS) - 1) / 100
        assert hist.column(COLUMNS[-1]).tolist() == [k + last for k in range(11000)]

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


class TestTraceCsv:
    def test_round_trip(self, run1, tmp_path):
        # the README's reader; ndmin=2 keeps a one-row trace, from max_iterations=0, a
        # table (a whole run's round trip is a property in test_properties.py)
        p, params, *_ = run1
        history = solve(p, dataclasses.replace(params, max_iterations=0), [3.0, 3.0]).history
        path = tmp_path / "trace.csv"
        write_trace_csv(history, path)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert table.shape == (1, 1 + len(COLUMNS))
        for j, name in enumerate(("k", *COLUMNS)):
            # %.17e is lossless for doubles, and k comes back as its float value
            assert_array_equal(table[:, j], history.column(name))

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
        _, _, out, *_ = run1
        path = tmp_path / "trace.csv"
        write_trace_csv(out.history, path)
        header = path.read_text().splitlines()[0]
        assert header == ("k,objective,feasibility,optimality,lagrangian,"
                          "norm_x,norm_lambda,norm_mu,step_x_norm,delta,"
                          "step_lambda_sq,step_mu_sq")

    def test_empty_history_round_trips_to_empty_columns(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(RunHistory(), path)
        assert path.read_text() == ",".join(("k", *COLUMNS)) + "\n"

    def test_a_gz_name_writes_and_reads_plain_text(self, run1, tmp_path):
        _, _, out, *_ = run1
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
