"""Command-line runner: load a problem, solve, write trace CSV and a report.

Usage:

    pplad solve --problem example1 --step-size 0.002 --trace out.csv
    pplad solve --problem model.qcqp --x0 1,1 --check-invariants

``SETTINGS`` is the one list of settings: each key, with its flag (the key
with '-' for '_'), the kind of text it takes and its help.  Flags are the
only way to give a setting: vectors are comma-separated, and
``--check-invariants`` takes no value.  The solver records every iteration:
``stride`` thins only the trace CSV, so ``check_invariants`` always checks
the whole run.  Problem files are read by ``pplad.problems.load_qcqp``.

Exit codes: 0 converged (and no invariant violations when checked),
1 iteration limit, 2 diverged or evaluation error, 3 converged but
invariant violations found, 4 unwritable output path, 5 usage/setting error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import numpy as np

from .diagnostics import check_trace, write_trace_csv
from .lagrangian import PenaltyParams
from .model import Problem
from .problems import BUILTIN_PROBLEMS, DEFAULT_START, load_qcqp
from .solver import SolveStatus, SolverParams, solve


class ConfigError(ValueError):
    """A bad setting; carries the offending key."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        super().__init__(message)


@dataclass
class RunConfig:
    """One validated run: the problem, the solver's parameters and the outputs."""

    problem: str
    params: SolverParams
    x0: Optional[np.ndarray] = None
    trace_path: str = "trace.csv"
    report_path: str = "report.txt"
    trace_stride: int = 1
    check_invariants: bool = False

    def __post_init__(self):
        if not self.trace_stride >= 1:
            raise ConfigError(f"stride must be >= 1, got {self.trace_stride}", key="stride")


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

def _vector(text: str) -> np.ndarray:
    values = np.array([float(part) for part in text.split(",")])
    if not np.all(np.isfinite(values)):
        raise ValueError(text)
    return values


# kind of value -> parser of its text, which raises ValueError on malformed text;
# a boolean is a bare flag and has no text
_PARSERS = {"text": str, "number": float, "integer": int, "vector": _vector}

# key -> (kind of value, field of RunConfig, SolverParams or PenaltyParams, help)
SETTINGS = {
    "problem": ("text", "problem",
                "builtin name (example1|example2|example3) or path to a QCQP file"),
    "x0": ("vector", "x0", "starting point, comma-separated"),
    "step_size": ("number", "step_size", "primal step size (required; no default)"),
    "alpha": ("number", "alpha", "penalty weight"),
    "beta": ("number", "beta", "proximal weight in (0,1)"),
    "delta0": ("number", "delta0", "initial dual budget"),
    "decay": ("number", "decay", "budget decay ratio"),
    "tol_opt": ("number", "tol_optimality", "optimality tolerance"),
    "tol_feas": ("number", "tol_feasibility", "feasibility tolerance"),
    "max_iters": ("integer", "max_iterations", "iteration budget"),
    "divergence_bound": ("number", "divergence_bound", "abort when ||x|| exceeds this"),
    "trace": ("text", "trace_path", "trace CSV output path"),
    "report": ("text", "report_path", "report output path"),
    "stride": ("integer", "trace_stride",
               "write every k-th row of the CSV; invariants are still checked on "
               "every iteration"),
    "check_invariants": ("boolean", "check_invariants",
                         "re-check the per-iteration inequalities on the trace"),
}

# PenaltyParams has no defaults of its own; every other default is its dataclass's
_PENALTY_DEFAULTS = {"alpha": 2000.0, "beta": 0.5}
_DEFAULTS = {f.name: f.default for cls in (RunConfig, SolverParams) for f in fields(cls)
             if f.default not in (MISSING, None)} | _PENALTY_DEFAULTS

# the flags that take a value: every setting that is not a boolean
_VALUE_FLAGS = {"--" + key.replace("_", "-")
                for key, (kind, *_) in SETTINGS.items() if kind != "boolean"}


def _parse(key: str, text: str):
    """The value of setting ``key`` from its flag's text."""
    kind = SETTINGS[key][0]
    if kind == "boolean":
        raise ConfigError(f"key {key!r} is a bare flag and takes no value", key=key)
    text = text.strip()
    try:
        return _PARSERS[kind](text)
    except ValueError:
        raise ConfigError(f"malformed {kind} for key {key!r}: {text!r}", key=key) from None


def _take(cls, values: dict) -> dict:
    """Remove from ``values`` the entries that are fields of ``cls`` and return them."""
    return {f.name: values.pop(f.name) for f in fields(cls) if f.name in values}


def parse_config(settings: dict) -> RunConfig:
    """A RunConfig from the given settings, keyed by key, over the defaults.

    A text value is parsed as its flag's text is.  ``problem`` and
    ``step_size`` have no defaults and must be given.  The solver's
    parameters are validated here, before any problem is loaded.
    """
    values: dict = {}
    for key, value in settings.items():
        if key not in SETTINGS:
            raise ConfigError(f"unknown key {key!r}", key=key)
        values[key] = _parse(key, value) if isinstance(value, str) else value

    for key in ("problem", "step_size"):
        if key not in values:
            raise ConfigError(f"missing required key {key!r}", key=key)
    by_field = {SETTINGS[key][1]: value for key, value in values.items()}
    penalty = PenaltyParams(**(_PENALTY_DEFAULTS | _take(PenaltyParams, by_field)))
    params = SolverParams(penalty=penalty, **_take(SolverParams, by_field))
    return RunConfig(params=params, **by_field)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _load_problem(config: RunConfig) -> Problem:
    builder = BUILTIN_PROBLEMS.get(config.problem)
    if builder is not None:
        return builder()
    try:
        return load_qcqp(config.problem)
    except OSError as exc:
        raise ConfigError(f"cannot read problem file {config.problem!r}: {exc}",
                          key="problem") from None


def _write_report(path: str, outcome, problem, violations) -> None:
    lines = [
        f"problem = {problem.name}",
        f"status = {outcome.status.value}",
        f"iterations = {outcome.iterations}",
        f"objective = {float(outcome.history.column('objective')[-1])!r}",
        f"optimality = {outcome.kkt.optimality!r}",
        f"feasibility = {outcome.kkt.feasibility!r}",
        f"satisfied = {str(outcome.kkt.satisfied).lower()}",
        "x = " + ",".join(repr(float(v)) for v in outcome.final_state.x),
        "lambda = " + ",".join(repr(float(v)) for v in outcome.final_state.lam),
    ]
    if outcome.message:
        lines.append(f"message = {outcome.message}")
    if violations is not None:
        lines.append(f"invariant_violations = {len(violations)}")
        for i, v in enumerate(violations):
            lines.append(f"violation.{i} = {v.name} k={v.k} lhs={v.lhs!r} "
                         f"rhs={v.rhs!r} margin={v.margin!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run(config: RunConfig) -> int:
    """Execute one solve per the config; write trace and report; return exit code."""
    problem = _load_problem(config)

    x0 = config.x0
    if x0 is None:
        start = DEFAULT_START.get(config.problem)
        if start is None:
            raise ConfigError("x0 is required for problems loaded from files", key="x0")
        x0 = np.array(start)
    if x0.shape != (problem.n,):
        raise ConfigError(f"x0 has length {x0.size}, problem {problem.name!r} "
                          f"needs {problem.n}", key="x0")

    params = config.params
    if params.decay < 0.9:
        print(f"warning: decay = {params.decay} is far from 1; the dual budget "
              "shrinks fast, which can stop mu before lam reaches a valid "
              "multiplier. Values like 0.999 are recommended.", file=sys.stderr)

    outcome = solve(problem, params, x0)

    violations = None
    if config.check_invariants:
        violations = check_trace(problem, outcome.history, params)

    try:
        write_trace_csv(outcome.history, config.trace_path, config.trace_stride)
        _write_report(config.report_path, outcome, problem, violations)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4

    print(f"{problem.name}: {outcome.status.value} after {outcome.iterations} "
          f"iterations; optimality {outcome.kkt.optimality:.3e}, "
          f"feasibility {outcome.kkt.feasibility:.3e}")
    if violations:
        print(f"invariant violations: {len(violations)} (see {config.report_path})",
              file=sys.stderr)

    if outcome.status is SolveStatus.CONVERGED:
        return 3 if violations else 0
    if outcome.status is SolveStatus.ITERATION_LIMIT:
        return 1
    return 2


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 5 on usage errors, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(5, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pplad",
                     description="Equality-constrained nonconvex solver with bounded dual "
                                 "iterates.",
                     argument_default=argparse.SUPPRESS, allow_abbrev=False)
    parser.add_argument("command", choices=["solve"], help="run the solver on a problem")
    for key, (kind, field, text) in SETTINGS.items():
        if field in _DEFAULTS:
            text = f"{text} (default {_DEFAULTS[field]})"
        action = "store_true" if kind == "boolean" else "store"
        parser.add_argument("--" + key.replace("_", "-"), dest=key, action=action, help=text)
    return parser


def main(argv=None) -> int:
    # argparse reads a token that starts with '-' and is not a plain negative number as a
    # flag, so each value is attached to its unabbreviated flag: --x0=-1,2, not --x0 -1,2
    tokens, argv = iter(sys.argv[1:] if argv is None else argv), []
    for token in tokens:
        value = next(tokens, None) if token in _VALUE_FLAGS else None
        argv.append(token if value is None else f"{token}={value}")
    args = vars(_build_parser().parse_args(argv))
    del args["command"]
    try:
        return run(parse_config(args))
    except ValueError as exc:
        print(f"pplad: error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"pplad: error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
