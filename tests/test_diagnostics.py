import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pplad import (DimensionMismatch, FullState, LipschitzHints, PenaltyParams, Problem, RunHistory,
                   SolverParams, TRACE_COLUMNS, check_trace, kkt_report,
                   perturbation_ratio, read_trace_csv, solve, tail_step_maxima,
                   write_trace_csv)
from pplad.problems import BUILTIN_PROBLEMS, DEFAULT_START, example1, example3

DEMO_OUTPUT = Path(__file__).resolve().parents[1] / "demos" / "output"

# the scalar row that solve's loop builds; gamma and delta come from the state
ROW_COLUMNS = TRACE_COLUMNS[1:-2]

RHO2 = PenaltyParams(alpha=4.0, beta=0.25)


@pytest.fixture(scope="module")
def run1():
    params = SolverParams(penalty=PenaltyParams(alpha=2000.0, beta=0.5),
                          step_size=0.002, delta0=1.0, decay=0.999,
                          tol_optimality=1e-7, tol_feasibility=1e-7)
    return example1(), params, solve(example1(), params, [3.0, 3.0])


def kkt(problem, state, tol=1e-6):
    return kkt_report(problem, state, tol_optimality=tol, tol_feasibility=tol)


class TestResiduals:
    def test_interior_stationary_point_has_zero_optimality(self):
        p = example1()
        # grad f(1,0) = 0 and the two constraint gradients cancel for lam=(t,t)
        s = FullState(x=[1.0, 0.0], z=[0.0, 0.0], lam=[4.0, 4.0], mu=[4.0, 4.0])
        assert kkt(p, s).optimality == 0.0

    def test_whole_space_residual_is_gradient_norm(self):
        p = Problem(n=2, m=0, objective=lambda x: float(x @ x),
                    objective_gradient=lambda x: 2.0 * x,
                    constraints=lambda x: np.zeros(0),
                    constraint_jacobian=lambda x: np.zeros((0, 2)),
                    projection=lambda v: v, name="quad")
        s = FullState(x=[3.0, 4.0], z=[], lam=[], mu=[])
        assert kkt(p, s).optimality == pytest.approx(10.0)
        assert kkt(p, s).feasibility == 0.0

    def test_feasibility_zero_at_feasible_point_whatever_the_multipliers(self):
        s = FullState(x=[1.0, 0.0], z=[0.0, 0.0], lam=[2.0, -1.0], mu=[0.0, 5.0])
        assert kkt(example1(), s).feasibility == 0.0

    def test_feasibility_direct_arithmetic(self):
        # c(5, 5) = (-4, 25), whatever the multipliers: lam = mu here
        s = FullState(x=[5.0, 5.0], z=[0.0, 0.0], lam=[1.0, 1.0], mu=[1.0, 1.0])
        assert kkt(example3(), s).feasibility == pytest.approx(np.hypot(4.0, 25.0))

    def test_feasibility_equals_constraint_norm_along_trace(self, run1):
        p, params, out = run1
        feas = out.history.column("feasibility")
        X = out.history.X
        for k in range(len(out.history)):
            assert feas[k] == np.linalg.norm(p.constraints(X[k]))


class TestKktReport:
    def test_converged_run_is_satisfied(self, run1):
        _, _, out = run1
        assert out.kkt.satisfied
        assert_allclose(out.final_state.x, [1.0, 0.0], atol=1e-3)

    def test_solve_report_matches_a_fresh_evaluation(self, run1):
        p, params, out = run1
        fresh = kkt_report(p, out.final_state, tol_optimality=params.tol_optimality,
                           tol_feasibility=params.tol_feasibility)
        assert fresh == out.kkt

    def test_wrong_projection_shape_names_the_projection(self):
        p = dataclasses.replace(example1(), projection=lambda v: np.reshape(v, (-1, 1)))
        s = FullState(x=[3.0, 3.0], z=[0.0, 0.0], lam=[0.0, 0.0], mu=[0.0, 0.0])
        with pytest.raises(DimensionMismatch, match="projection"):
            kkt(p, s)

    def test_initial_state_of_example1_not_satisfied(self):
        p = example1()
        s = FullState(x=[3.0, 3.0], z=[0.0, 0.0], lam=[0.0, 0.0], mu=[0.0, 0.0])
        report = kkt(p, s)
        assert not report.satisfied
        # infeasible start: c(3,3) = (17, 9) shows up even though lam = mu
        assert report.feasibility == pytest.approx(np.hypot(17.0, 9.0))
        assert report.optimality > 1e-6

    def test_feasible_but_nonstationary_state(self):
        p = example3()
        # (2, 0) is feasible; a wrong multiplier leaves the gradient nonzero
        s = FullState(x=[2.0, 0.0], z=[0.0, 0.0], lam=[5.0, 5.0], mu=[5.0, 5.0])
        report = kkt(p, s)
        assert report.feasibility == 0.0
        assert not report.satisfied

    def test_satisfied_monotone_in_tolerances(self, run1):
        p, params, out = run1
        s = out.final_state
        tight = kkt(p, s)
        for factor in (10.0, 1e3, 1e6):
            loose = kkt(p, s, tol=1e-6 * factor)
            assert loose.satisfied or not tight.satisfied


class TestCheckTrace:
    def test_correct_run_has_no_violations(self, run1):
        p, params, out = run1
        assert check_trace(p, out.history, params) == []

    def test_perturbed_mu_trips_the_bound(self, run1):
        p, params, out = run1
        out2 = solve(p, params, [3.0, 3.0])  # fresh history to mutate
        hist = out2.history
        hist.Mu[200] += 600.0  # way beyond ||mu_0|| + delta0/(2(1-r)) = 500
        names = {v.name for v in check_trace(p, hist, params)}
        assert "mu_bound" in names

    def test_violation_carries_positive_margin(self, run1):
        p, params, _ = run1
        out = solve(p, params, [3.0, 3.0])
        out.history.Mu[150] += 600.0
        violations = check_trace(p, out.history, params)
        assert violations
        for v in violations:
            assert v.margin > 0.0
            assert v.lhs > v.rhs

    def test_single_record_trace_is_vacuously_clean(self):
        p = example1()
        params = SolverParams(penalty=PenaltyParams(alpha=2000.0, beta=0.5),
                              step_size=0.002, max_iterations=0)
        out = solve(p, params, [3.0, 3.0])
        assert len(out.history) == 1
        assert check_trace(p, out.history, params) == []

    def test_strided_trace_rejected(self):
        # solve records every iteration, but a hand-built history can skip some
        p = example1()
        params = SolverParams(penalty=PenaltyParams(alpha=2000.0, beta=0.5),
                              step_size=0.002, max_iterations=50)
        hist = RunHistory()
        for k in (0, 5, 10):
            hist.append(FullState([3.0, 3.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], k=k),
                        dict.fromkeys(ROW_COLUMNS, 0.0))
        with pytest.raises(ValueError, match="stride-1"):
            check_trace(p, hist, params)

    def test_certified_decrease_with_generous_constants_passes(self):
        # Honest global constants for a well-conditioned run: small convex
        # quadratic with one affine constraint, eta far above the threshold.
        Q = np.diag([1.0, 2.0])
        a = np.array([1.0, 1.0])

        p = Problem(n=2, m=1,
                    objective=lambda x: float(0.5 * x @ Q @ x),
                    objective_gradient=lambda x: Q @ x,
                    constraints=lambda x: np.array([a @ x - 1.0]),
                    constraint_jacobian=lambda x: a.reshape(1, 2),
                    projection=lambda v: v,
                    lipschitz_hints=LipschitzHints(L_c=np.sqrt(2.0)),
                    name="affine-eq")
        params = SolverParams(penalty=PenaltyParams(alpha=100.0, beta=0.5),
                              step_size=1e-3, delta0=0.5, decay=0.999,
                              max_iterations=2000, tol_optimality=1e-5,
                              tol_feasibility=1e-5)
        out = solve(p, params, [2.0, -1.0])
        # certification threshold: eta = 1000 > L_p + 2 rho Lc^2
        # with L_p <= ||Q|| + 0 (affine constraints add no curvature in x)
        violations = check_trace(p, out.history, params, grad_lipschitz=2.0)
        assert violations == []

    def test_lam_step_check_runs_when_hints_present(self, run1):
        p, params, out = run1
        assert p.lipschitz_hints.L_c is not None
        assert check_trace(p, out.history, params, hints=p.lipschitz_hints) == []

    def test_unconstrained_history_checks_cleanly(self):
        p = Problem(n=1, m=0, objective=lambda x: float((x[0] - 1.0) ** 2),
                    objective_gradient=lambda x: 2.0 * (x - 1.0),
                    constraints=lambda x: np.zeros(0),
                    constraint_jacobian=lambda x: np.zeros((0, 1)),
                    projection=lambda v: v, name="scalar")
        params = SolverParams(penalty=RHO2, step_size=0.1, max_iterations=200,
                              tol_optimality=1e-8, tol_feasibility=1e-8)
        out = solve(p, params, [5.0])
        assert check_trace(p, out.history, params) == []


class TestTailAndRatio:
    def test_tail_step_maxima_small_after_convergence(self, run1):
        _, _, out = run1
        maxima = tail_step_maxima(out.history, window=100)
        for key in ("x", "z", "lambda", "mu"):
            assert maxima[key] <= 1e-5

    def test_tail_step_maxima_on_tiny_history(self):
        p = example1()
        params = SolverParams(penalty=PenaltyParams(alpha=2000.0, beta=0.5),
                              step_size=0.002, max_iterations=0)
        out = solve(p, params, [3.0, 3.0])
        assert tail_step_maxima(out.history) == {"x": 0.0, "z": 0.0,
                                                 "lambda": 0.0, "mu": 0.0}

    def test_perturbation_ratio_shape(self, run1):
        _, _, out = run1
        ratio = perturbation_ratio(out.history)
        assert ratio.shape == (len(out.history) - 1,)
        assert np.all(ratio >= 0.0)


class TestRunHistory:
    def test_append_takes_state_and_row(self):
        hist = RunHistory()
        state = FullState([1.0, 2.0], [0.5], [3.0], [4.0], k=7, delta=0.25, gamma=0.125)
        hist.append(state, {name: float(i) for i, name in enumerate(ROW_COLUMNS)})
        assert hist.ks.tolist() == [7]
        assert_array_equal(hist.X, [[1.0, 2.0]])
        assert_array_equal(hist.Mu, [[4.0]])
        assert hist.column("gamma").tolist() == [0.125]
        assert hist.column("delta").tolist() == [0.25]
        assert [hist.column(name)[0] for name in ROW_COLUMNS] == list(range(len(ROW_COLUMNS)))
        with pytest.raises(RuntimeError, match="frozen"):
            hist.append(state, dict.fromkeys(ROW_COLUMNS, 0.0))

    def test_freeze_holds_at_most_one_column_twice(self):
        # n = m = 200: the four vector columns are the same size, so stacking
        # them all while every row is alive would double the history's memory
        n = rows = 200
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            hist = RunHistory()
            for k in range(rows):
                vectors = [rng.standard_normal(n) for _ in range(4)]  # no shared base
                hist.append(FullState(*vectors, k=k),
                            dict.fromkeys(ROW_COLUMNS, 0.0))
            stored = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            hist.freeze()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stored > 4 * rows * n * 8
        assert peak < 1.5 * stored


class TestTraceCsv:
    def test_round_trip(self, run1, tmp_path):
        _, _, out = run1
        path = tmp_path / "trace.csv"
        write_trace_csv(out.history, path)
        back = read_trace_csv(path)
        assert list(back) == list(TRACE_COLUMNS)
        assert back["k"].dtype.kind == "i"
        for name in TRACE_COLUMNS:
            # %.17e is lossless for doubles
            assert_array_equal(back[name], out.history.column(name))

    def test_stride_keeps_multiples_plus_last_row(self, tmp_path):
        p = example1()
        params = SolverParams(penalty=PenaltyParams(alpha=2000.0, beta=0.5),
                              step_size=0.002, max_iterations=47)
        out = solve(p, params, [3.0, 3.0])
        assert_array_equal(out.history.ks, np.arange(48))
        path = tmp_path / "trace.csv"
        write_trace_csv(out.history, path, stride=10)
        back = read_trace_csv(path)
        assert back["k"].tolist() == [0, 10, 20, 30, 40, 47]
        for name in TRACE_COLUMNS:
            assert_array_equal(back[name], out.history.column(name)[back["k"]])

    @pytest.mark.parametrize("stride", [0, -3])
    def test_nonpositive_stride_rejected(self, run1, tmp_path, stride):
        _, _, out = run1
        with pytest.raises(ValueError, match="stride"):
            write_trace_csv(out.history, tmp_path / "trace.csv", stride=stride)

    @pytest.mark.parametrize("name", ["example1", "example2", "example3"])
    def test_demo_traces_reproduced_byte_for_byte(self, name, tmp_path):
        # the settings of demos/02_builtin_runs.py, which wrote the committed CSVs
        settings = {"example1": (0.002, 1.0), "example2": (0.005, 0.5),
                    "example3": (0.004, 0.5)}
        step_size, delta0 = settings[name]
        params = SolverParams(penalty=PenaltyParams(alpha=2000.0, beta=0.5), decay=0.999,
                              step_size=step_size, delta0=delta0)
        out = solve(BUILTIN_PROBLEMS[name](), params, DEFAULT_START[name])
        path = tmp_path / "trace.csv"
        write_trace_csv(out.history, path)
        assert path.read_bytes() == (DEMO_OUTPUT / f"{name}_trace.csv").read_bytes()

    def test_header_contract(self, run1, tmp_path):
        _, _, out = run1
        path = tmp_path / "trace.csv"
        write_trace_csv(out.history, path)
        header = path.read_text().splitlines()[0]
        assert header == ("k,objective,feasibility,optimality,lagrangian,"
                          "norm_x,norm_lambda,norm_mu,step_x_norm,gamma,delta")

    def test_reader_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_trace_csv(path)

    def test_reader_rejects_ragged_row(self, run1, tmp_path):
        _, _, out = run1
        path = tmp_path / "trace.csv"
        write_trace_csv(out.history, path)
        with open(path, "a") as fh:
            fh.write("1,2,3\n")
        with pytest.raises(ValueError, match="malformed"):
            read_trace_csv(path)
