import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

import pplad
from params import fig1_params
from pplad import (FullState, KktReport, RunHistory, check_trace, example1, example2_spec,
                   from_qcqp, kkt_report, solve, write_trace_csv)

REMOVED = ("step_x", "step_mu", "step_lambda", "step_z", "gamma", "IterateState",
           "optimality_residual", "feasibility_residual", "TraceRecord",
           "project", "projector", "lambda_hat", "eval_reduced", "LipschitzHints",
           "FdSettings", "CompareResult", "fd_gradient", "perturbation_ratio",
           "zhat", "eval_full", "read_trace_csv", "iterate", "initial_state",
           "EvaluationError")


def test_every_exported_name_resolves_once():
    assert len(pplad.__all__) == len(set(pplad.__all__))
    for name in pplad.__all__:
        assert hasattr(pplad, name), name


def test_removed_names_are_not_exported():
    assert not set(REMOVED) & set(pplad.__all__)
    assert not [name for name in REMOVED if hasattr(pplad, name)]


def test_the_lagrangian_module_is_gone():
    # its parameters, state and gradient live in pplad.solver; the z-form merit in the tests
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("pplad.lagrangian")


def test_the_derivative_oracle_lives_in_the_model_module():
    # validate is its only caller in the package; no pplad.numcheck shim is left
    assert importlib.util.find_spec("pplad.numcheck") is None
    assert pplad.fd_jacobian.__module__ == pplad.compare.__module__ == "pplad.model"


def test_the_replay_layer_imports_nothing_from_the_package():
    # importing pplad.diagnostics runs pplad/__init__ first, so only its source can show this
    source = Path(pplad.__file__).with_name("diagnostics.py").read_text(encoding="utf-8")
    relative = [node.module for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.level >= 1]
    assert relative == []


def test_a_violation_derives_its_margin_from_its_sides():
    fields = [f.name for f in dataclasses.fields(pplad.InvariantViolation)]
    assert fields == ["name", "k", "lhs", "rhs"]
    violation = pplad.InvariantViolation("mu_bound", 3, 2.0, 0.5)
    assert violation.margin == violation.lhs - violation.rhs == 1.5
    with pytest.raises(TypeError):
        pplad.InvariantViolation("mu_bound", 3, 2.0, 1.0, 5.0)


def test_solve_takes_no_trace_stride():
    # solve records every iteration; only write_trace_csv strides
    with pytest.raises(TypeError, match="trace_stride"):
        solve(example1(), fig1_params(), [3.0, 3.0], trace_stride=5)


@pytest.mark.parametrize("keyword,call", [
    ("hints", lambda: check_trace(example1(), RunHistory(), None, hints=None)),
    ("grad_lipschitz", lambda: check_trace(example1(), RunHistory(), fig1_params(),
                                           grad_lipschitz=1.0)),
    ("lipschitz_hints", lambda: from_qcqp(example2_spec(), lipschitz_hints=None)),
    ("z0", lambda: solve(example1(), fig1_params(), [3.0, 3.0], z0=[0.0, 0.0])),
    ("delta", lambda: FullState([3.0, 3.0], [0.0, 0.0], [0.0, 0.0], delta=0.5)),
    ("gamma", lambda: FullState([3.0, 3.0], [0.0, 0.0], [0.0, 0.0], gamma=0.25)),
    ("stride", lambda: write_trace_csv(RunHistory(), "unwritten.csv", stride=1)),
    ("divergence_bound", lambda: fig1_params(divergence_bound=1e8)),
    ("tol_optimality", lambda: kkt_report(example1(), None, tol_optimality=1e-6)),
    ("satisfied", lambda: KktReport(0.0, 0.0, satisfied=True)),
], ids=["check_trace-hints", "check_trace-grad_lipschitz", "from_qcqp-lipschitz_hints",
        "solve-z0", "FullState-delta", "FullState-gamma", "write_trace_csv-stride",
        "SolverParams-divergence_bound", "kkt_report-tol_optimality", "KktReport-satisfied"])
def test_removed_keywords_raise_type_error(keyword, call):
    # each raises before it writes a file
    with pytest.raises(TypeError, match=keyword):
        call()


def test_full_state_takes_no_z():
    # z is the closed form (lam - mu)/alpha, not state: an old (x, z, lam, mu)
    # call fails instead of binding z to lam, lam to mu and mu to k
    x, z, lam, mu = [3.0, 3.0], [0.0, 0.0], [1.0, 2.0], [0.5, 0.5]
    with pytest.raises(TypeError):
        FullState(x, z, lam, mu)
    with pytest.raises(TypeError, match="z"):
        FullState(x=x, z=z, lam=lam, mu=mu)
    state = FullState(x, lam, mu, k=4)
    assert not hasattr(state, "z")
    assert [f.name for f in dataclasses.fields(state)] == ["x", "lam", "mu", "k"]
    assert state.k == 4
