"""The benchmark's own correctness checks accept right answers and reject wrong ones."""

import numpy as np
import pytest

import reference as ref
from pplad import SolveStatus, solve
from pplad.cli import load_qcqp
from pplad.problems import BUILTIN_PROBLEMS
from workloads import qcqp_params, repro_params


def builtin_failures(run, outcome, x=None):
    state = outcome.final_state
    return ref.builtin_failures(run, outcome.status is SolveStatus.CONVERGED,
                                state.x if x is None else x, state.mu)


@pytest.fixture(scope="module")
def reproductions():
    return [(run, solve(BUILTIN_PROBLEMS[run.name](), repro_params(run), run.x0))
            for run in ref.BUILTINS]


def test_accepts_the_three_reproduction_results(reproductions):
    for run, outcome in reproductions:
        assert builtin_failures(run, outcome) == [], run.name


def test_rejects_false_convergence_of_example3_from_the_origin():
    # x0 = (0, 0) is stationary for f and the duals start at 0, so the solver's
    # own feasibility measure ||lam - mu|| / rho reads 0 at an infeasible point.
    run = ref.BUILTINS[2]
    outcome = solve(BUILTIN_PROBLEMS[run.name](), repro_params(run), (0.0, 0.0))
    assert builtin_failures(run, outcome)


def test_rejects_a_perturbed_reproduction_result(reproductions):
    for run, outcome in reproductions:
        x = outcome.final_state.x + 1e-3
        assert builtin_failures(run, outcome, x), run.name


@pytest.mark.parametrize("kind", ["box", "ball"])
def test_kkt_check_accepts_a_solve_and_rejects_a_perturbed_x(kind, tmp_path):
    inst = ref.make_instance(np.random.default_rng(5), 20, 3, kind, kind)
    path = tmp_path / f"{kind}.qcqp"
    ref.write_qcqp(inst, path)
    outcome = solve(load_qcqp(str(path)), qcqp_params(), np.zeros(inst.n))
    assert outcome.status is SolveStatus.CONVERGED
    state = outcome.final_state
    assert ref.qcqp_failures(inst, state.x, state.lam, state.mu) == []
    assert ref.qcqp_failures(inst, state.x, state.lam) == []

    direction = np.random.default_rng(6).standard_normal(inst.n)
    moved = inst.project(state.x + 1e-3 * direction / np.linalg.norm(direction))
    assert ref.qcqp_failures(inst, moved, state.lam, state.mu)
    assert ref.qcqp_failures(inst, moved, state.lam)
