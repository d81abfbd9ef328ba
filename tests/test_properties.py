"""Properties of the solver, the oracle check, the trace CSV and the command line.

Each instance is feasible by construction: the constraint offsets are
chosen so that a random point of X satisfies every constraint.  The
examples are drawn under conftest.py's ``repeatable`` hypothesis profile,
so every run draws the same cases.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, strategies as st

from identities import kernel_violations
from merit import eval_full, zhat
from pplad import (Ball, Box, PenaltyParams, QcqpSpec, RunHistory, SolveStatus,
                   SolverParams, check_trace, from_qcqp, kkt_report, solve, steps, validate,
                   write_trace_csv)
from pplad.cli import main
from pplad.problems import BUILTIN_PROBLEMS, example1

ITERATIONS = 80


def _symmetric(rng, n):
    M = rng.standard_normal((n, n))
    return 0.5 * (M + M.T)


@st.composite
def qcqps(draw):
    """A QCQP with n <= 6, m <= 3 and X the unit box or ball, feasible by construction."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        projection = Box(lo=-np.ones(n), hi=np.ones(n))
        feasible = rng.uniform(-1.0, 1.0, n)
    else:
        projection = Ball(center=np.zeros(n), radius=1.0)
        feasible = rng.standard_normal(n)
        feasible *= rng.uniform(0.0, 1.0) / np.linalg.norm(feasible)
    Qj = np.array([_symmetric(rng, n) for _ in range(m)]).reshape(m, n, n)
    qj = rng.standard_normal((m, n))
    bj = -(0.5 * np.einsum("jik,i,k->j", Qj, feasible, feasible) + qj @ feasible)
    return from_qcqp(QcqpSpec(Q=_symmetric(rng, n), q=rng.standard_normal(n),
                              Qj=Qj, qj=qj, bj=bj, projection=projection))


def vectors(size, scale):
    return st.lists(st.floats(-scale, scale), min_size=size, max_size=size)


solver_params = st.builds(
    lambda alpha, beta, delta0, decay, step: SolverParams(
        penalty=PenaltyParams(alpha=alpha, beta=beta), step_size=step, delta0=delta0,
        decay=decay, max_iterations=ITERATIONS),
    alpha=st.floats(1.0, 1e4), beta=st.floats(0.01, 0.99), delta0=st.floats(1e-3, 1.0),
    decay=st.floats(0.5, 0.9999), step=st.floats(1e-4, 2.0))


# a drawn QCQP or one of the builtins
qcqps_or_builtins = st.one_of(qcqps(), st.sampled_from(sorted(BUILTIN_PROBLEMS)).map(
    lambda name: BUILTIN_PROBLEMS[name]()))


@st.composite
def starts(draw, problems=qcqps()):
    """A drawn problem, parameters (non-converging steps included) and start (x0, lam0, mu0)."""
    problem, params = draw(problems), draw(solver_params)
    x0 = draw(vectors(problem.n, 2.0))
    lam0, mu0 = draw(vectors(problem.m, 1e3)), draw(vectors(problem.m, 1e3))
    return problem, params, dict(x0=x0, lam0=lam0, mu0=mu0)


@st.composite
def runs(draw, problems=qcqps()):
    """A solve of a drawn problem from a drawn start."""
    problem, params, start = draw(starts(problems))
    return problem, params, solve(problem, params, **start)


@st.composite
def nan_beyond(draw, problems=qcqps()):
    """A drawn QCQP whose objective is NaN where x[0] exceeds a drawn level.

    A run that reaches such a point records its NaN row and stops with
    EVALUATION_ERROR.
    """
    problem, level = draw(problems), draw(st.floats(-1.0, 1.0))
    f = problem.objective
    return dataclasses.replace(problem, objective=lambda x: np.nan if x[0] > level else f(x))


@given(drawn=starts())
def test_dual_invariants_hold_for_any_valid_parameters(drawn):
    # whatever the step size: the dual bound over the history, and the kernel's
    # five identities over every state that steps yields
    problem, params, start = drawn
    outcomes = list(steps(problem, params, **start))
    states, history = [outcome.final_state for outcome in outcomes], outcomes[-1].history
    assert kernel_violations(problem, params, states, history.column("lagrangian")) == []
    violations = check_trace(problem, history, params)
    assert not [v for v in violations if v.name == "mu_bound"]


@given(run=runs())
def test_status_is_converged_exactly_when_the_last_row_is_within_tolerance(run):
    problem, params, outcome = run
    last = {name: outcome.history.column(name)[-1]
            for name in ("objective", "optimality", "feasibility", "lagrangian")}
    within = (last["optimality"] <= params.tol_optimality
              and last["feasibility"] <= params.tol_feasibility
              and all(np.isfinite(value) for value in last.values()))
    assert (outcome.status is SolveStatus.CONVERGED) == within


@given(problem=qcqps(), data=st.data())
def test_validate_passes_on_a_correct_qcqp(problem, data):
    x = data.draw(vectors(problem.n, 3.0))
    report = validate(problem, x)
    assert report.passed, report.summary()
    errors = [check.max_rel_error for check in report.checks if check.name.endswith("_fd")]
    assert len(errors) == 2 and max(errors) <= 1e-6, report.summary()


# each builtin's X as per-coordinate bounds: example1's box, and a box of the
# nonnegative orthant around the other two's solutions and default starts
BUILTIN_BOUNDS = {"example1": (-3.0, 3.0), "example2": (0.0, 10.0), "example3": (0.0, 10.0)}


@given(name=st.sampled_from(sorted(BUILTIN_PROBLEMS)), data=st.data())
def test_validate_passes_on_the_builtins_at_points_of_x(name, data):
    problem = BUILTIN_PROBLEMS[name]()
    n, m = problem.n, problem.m
    x = np.array(data.draw(st.lists(st.floats(*BUILTIN_BOUNDS[name]), min_size=n, max_size=n)))
    assert np.array_equal(problem.project(x), x)
    report = validate(problem, x)
    assert report.passed, report.summary()
    shapes = [np.shape(problem.f(x)), problem.grad_f(x).shape, problem.c(x).shape,
              problem.jac(x).shape, problem.project(x).shape]
    assert shapes == [(), (n,), (m,), (m, n), (n,)]


def listed(violations):
    """Each violation's fields, its two sides as their repr, so that NaN sides compare."""
    return [(v.name, v.k, repr(v.lhs), repr(v.rhs)) for v in violations]


@given(run=st.one_of(runs(), runs(nan_beyond())),
       extra=st.lists(vectors(len(RunHistory.COLUMNS), 1e6), max_size=5))
def test_a_written_trace_rebuilds_its_history_in_one_call(run, extra):
    # every row is kept, NaN rows included: a run of a nan_beyond problem may
    # stop on a NaN objective
    problem, params, outcome = run
    history = outcome.history
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace_csv(history, path)
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    # k comes back as float: its values are compared, every other column bitwise
    assert table.shape == (len(history), 1 + len(RunHistory.COLUMNS))
    assert table[:, 0].tolist() == history.column("k").tolist()
    rows = table[:, 1:]
    rebuilt = RunHistory(rows)
    for name in RunHistory.COLUMNS:
        assert rebuilt.column(name).tobytes() == history.column(name).tobytes(), name
    assert listed(check_trace(problem, rebuilt, params)) == listed(
        check_trace(problem, history, params))
    # rows appended after the one call: as if every row had been appended, and
    # views taken before those appends keep their rows
    views = [(name, rebuilt.column(name), rebuilt.column(name).copy())
             for name in RunHistory.COLUMNS]
    appended = RunHistory()
    for row in rows.tolist():
        appended.append(row)
    for row in extra:
        rebuilt.append(row)
        appended.append(row)
    for name, view, seen in views:
        assert view.tobytes() == seen.tobytes(), name
        assert rebuilt.column(name).tobytes() == appended.column(name).tobytes(), name


@given(ops=st.lists(st.one_of(st.integers(1, 12),
                              st.sampled_from(("k", *RunHistory.COLUMNS))), max_size=40))
def test_interleaved_appends_and_reads_see_the_rows_stored_so_far(ops):
    # an integer appends that many rows, a name reads that column; every value
    # names its row and column, and each read view stays alive to the end
    width = len(RunHistory.COLUMNS)
    history, reads = RunHistory(), []
    for op in ops:
        if isinstance(op, int):
            for _ in range(op):
                row = len(history)
                history.append([row * width + j + 0.5 for j in range(width)])
        else:
            view = history.column(op)
            reads.append((op, view, view.copy()))
    rows = np.arange(len(history))
    ks = history.column("k")
    assert ks.dtype == np.int64 and ks.tolist() == rows.tolist()
    for j, name in enumerate(RunHistory.COLUMNS):
        assert history.column(name).tolist() == (rows * width + j + 0.5).tolist()
    for name, view, seen in reads:
        assert view.dtype == seen.dtype and view.tobytes() == seen.tobytes()
        assert np.array_equal(view, history.column(name)[:len(view)])


@given(drawn=starts(qcqps_or_builtins))
def test_stepping_iterate_retraces_solve_and_its_history(drawn):
    problem, params, start = drawn
    outcome = solve(problem, params, **start)
    # K steps, K the solve's iteration count: its budget, or fewer when it stops early
    states = [state for _, state, *_ in steps(problem, params, **start)]
    assert len(states) == outcome.iterations + 1
    final = outcome.final_state
    for name in ("x", "lam", "mu"):
        assert getattr(states[-1], name).tobytes() == getattr(final, name).tobytes(), name

    # every column by its RunHistory definition, from the iterates alone
    rho, delta0, decay = params.penalty.rho, params.delta0, params.decay
    expected = {name: [] for name in ("k", *RunHistory.COLUMNS)}
    for k, s in enumerate(states):
        c = problem.constraints(s.x)
        d = s.lam - s.mu
        grad = problem.objective_gradient(s.x) + problem.constraint_jacobian(s.x).T @ s.lam
        row = dict(k=k, objective=problem.objective(s.x), feasibility=np.linalg.norm(c),
                   optimality=np.linalg.norm(s.x - problem.projection(s.x - grad)),
                   lagrangian=problem.objective(s.x) + s.lam @ c - (d @ d) / (2.0 * rho),
                   norm_x=np.linalg.norm(s.x), norm_lambda=np.linalg.norm(s.lam),
                   norm_mu=np.linalg.norm(s.mu), delta=delta0 * decay ** k,
                   step_x_norm=0.0, step_lambda_sq=0.0, step_mu_sq=0.0)
        if k > 0:
            p = states[k - 1]
            row.update(step_x_norm=np.linalg.norm(s.x - p.x),
                       step_lambda_sq=(s.lam - p.lam) @ (s.lam - p.lam),
                       step_mu_sq=(s.mu - p.mu) @ (s.mu - p.mu))
        for name, value in row.items():
            expected[name].append(value)
    for name, values in expected.items():
        recorded = outcome.history.column(name)
        assert recorded.tobytes() == np.array(values, dtype=recorded.dtype).tobytes(), name


@given(drawn=starts(qcqps_or_builtins))
def test_the_recorded_reduced_merit_is_eval_full_at_zhat(drawn):
    # at k = 0 the multipliers are the drawn ones, unrelated to x
    problem, params, start = drawn
    once = dataclasses.replace(params, max_iterations=0)
    recorded = solve(problem, once, **start).history.column("lagrangian")[0]
    _, s, *_ = next(steps(problem, once, **start))
    penalty = params.penalty
    z, d = zhat(penalty, s.lam, s.mu), s.lam - s.mu
    terms = (problem.objective(s.x), s.lam @ (problem.constraints(s.x) - z), s.mu @ z,
             0.5 * penalty.alpha * (z @ z), -0.5 * penalty.beta * (d @ d))
    tol = 16 * np.finfo(float).eps * sum(abs(t) for t in terms)
    assert abs(recorded - eval_full(problem, penalty, s)) <= tol


@given(run=runs(qcqps_or_builtins))
def test_the_outcome_kkt_is_kkt_report_at_the_final_state(run):
    problem, params, outcome = run
    report = kkt_report(problem, outcome.final_state)
    assert dataclasses.astuple(outcome.kkt) == dataclasses.astuple(report)


@given(x0=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2))
@example(x0=[-1.0, 2.0])
@example(x0=[-0.5, 1.0])
@example(x0=[2.5, -1.0])
def test_x0_flag_text_reaches_the_report_as_its_projection_bitwise(x0):
    # a value may start with '-', and repr may write an exponent or a subnormal
    text = ",".join(map(repr, x0))
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        for args in (["--x0", text], ["--x0=" + text]):
            report = Path(tmp) / f"r{len(reports)}.txt"
            code = main(["solve", "--problem", "example1", "--step-size", "0.002", *args,
                         "--max-iters", "0", "--trace", str(Path(tmp) / "t.csv"),
                         "--report", str(report)])
            assert code == 1
            reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    x = example1().projection(np.array(x0))
    assert ("\nx = " + ",".join(map(repr, x.tolist())) + "\n").encode() in reports[0]
