"""The public surface of pplad, pinned positively.

``SIGNATURES`` and ``UNPINNED`` are the whole surface: the names ``pplad``
exports, each callable's module and parameter names, the functions that the
command line and the benchmark call by module, and the package's modules.  A
name, keyword or module that is not in these tables does not exist: a call
with a keyword that is not pinned raises TypeError when Python binds its
arguments, before anything runs.  An API change edits these tables; no list
of removed names is kept.
"""

import ast
import inspect
import pkgutil
import typing
from pathlib import Path

import pplad
import pplad.cli

# each callable of the surface, by its path under pplad: its module and its parameter
# names in order, '*' before the keyword-only ones
SIGNATURES = {
    "Ball": ("model", "(center, radius)"),
    "Box": ("model", "(lo, hi)"),
    "DimensionMismatch": ("model", "(what, expected, actual)"),
    "FullState": ("solver", "(x, lam, mu, *, k)"),
    "InvariantViolation": ("diagnostics", "(name, k, lhs, rhs)"),
    "KktReport": ("solver", "(optimality, feasibility)"),
    "NonnegativeOrthant": ("model", "()"),
    "PenaltyParams": ("solver", "(alpha, beta)"),
    "Problem": ("model", "(n, m, objective, objective_gradient, constraints, "
                         "constraint_jacobian, projection, lipschitz_c, name)"),
    "QcqpSpec": ("problems", "(Q, q, Qj, qj, bj, projection)"),
    "RunHistory": ("diagnostics", "(rows)"),
    "SolveOutcome": ("solver", "(status, final_state, kkt, history, message)"),
    "SolverParams": ("solver", "(penalty, step_size, delta0, decay, tol_optimality, "
                               "tol_feasibility, max_iterations)"),
    "ValidationCheck": ("model", "(name, passed, max_rel_error, message)"),
    "ValidationReport": ("model", "(problem_name, x0, checks)"),
    "WholeSpace": ("model", "()"),
    "check_trace": ("diagnostics", "(problem, history, params)"),
    "compare": ("model", "(analytic, numeric)"),
    "example1": ("problems", "()"),
    "example2": ("problems", "()"),
    "example2_spec": ("problems", "()"),
    "example3": ("problems", "()"),
    "fd_jacobian": ("model", "(fn, x)"),
    "from_qcqp": ("problems", "(spec, name)"),
    "grad_x": ("solver", "(problem, state)"),
    "kkt_report": ("solver", "(problem, state)"),
    "solve": ("solver", "(problem, params, x0, *, lam0, mu0)"),
    "steps": ("solver", "(problem, params, x0, *, lam0, mu0)"),
    "validate": ("model", "(problem, x0)"),
    "write_trace_csv": ("diagnostics", "(history, path)"),
    "problems.load_qcqp": ("problems", "(path, name)"),
    "problems.load_qcqp_spec": ("problems", "(path)"),
    "problems.save_qcqp": ("problems", "(spec, path)"),
    "cli.main": ("cli", "(argv)"),
    "cli.run": ("cli", "(settings)"),
}

# the exports whose signatures are not pinned: two dicts, an Enum and a Union, whose
# signatures differ between Python versions; their values are pinned instead
UNPINNED = ("BUILTIN_PROBLEMS", "DEFAULT_START", "SolveStatus", "ProjectionKind")


def parameters(obj):
    """obj's parameter names in order, with '*' before the keyword-only ones."""
    signature = inspect.signature(obj)
    bare = [p.replace(default=p.empty, annotation=p.empty)
            for p in signature.parameters.values()]
    return str(signature.replace(parameters=bare, return_annotation=signature.empty))


def test_the_public_surface_is_exactly_the_pinned_one():
    exported = [path for path in SIGNATURES if "." not in path] + list(UNPINNED)
    assert sorted(pplad.__all__) == sorted(exported)
    public = {name for name, value in vars(pplad).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(exported)
    for path, (module, expected) in SIGNATURES.items():
        obj = pplad
        for part in path.split("."):
            obj = getattr(obj, part)
        assert (obj.__module__, parameters(obj)) == (f"pplad.{module}", expected), path
    assert [status.value for status in pplad.SolveStatus] == [
        "converged", "iteration_limit", "diverged", "evaluation_error"]
    assert typing.get_args(pplad.ProjectionKind) == (
        pplad.WholeSpace, pplad.Box, pplad.NonnegativeOrthant, pplad.Ball)
    assert [module.name for module in pkgutil.iter_modules(pplad.__path__)] == [
        "__main__", "cli", "diagnostics", "model", "problems", "solver"]


def test_the_replay_layer_imports_nothing_from_the_package():
    # importing pplad.diagnostics runs pplad/__init__ first, so only its source can show this
    source = Path(pplad.__file__).with_name("diagnostics.py").read_text(encoding="utf-8")
    relative = [node.module for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.level >= 1]
    assert relative == []


def test_a_violation_derives_its_margin_from_its_sides():
    violation = pplad.InvariantViolation("mu_bound", 3, 2.0, 0.5)
    assert violation.margin == violation.lhs - violation.rhs == 1.5
