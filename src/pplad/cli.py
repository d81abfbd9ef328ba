"""Command-line runner: load a problem, solve, check, write trace CSV and a report.

Usage:

    pplad solve --problem example1 --step-size 0.002 --trace out.csv
    pplad solve --problem model.qcqp --x0 1,1

``SETTINGS`` is the one list of settings: each key, with its flag (the key
with '-' for '_'), the parser of its text and its help.  argparse parses
every flag, through that parser: vectors are comma-separated.  A flag never
takes ``-h``, or a token that starts with '--', as its value.  A malformed
value, a missing ``--problem`` or ``--step-size`` and an unknown flag are
usage errors.  ``run`` then checks every setting before it loads the
problem.  Every run's history, which the trace CSV holds whole, is
replayed by ``check_trace``, and the report lists each violation.  Problem
files are read by ``pplad.problems.load_qcqp``.

Exit codes: 0 converged with no invariant violations, 1 iteration limit,
2 diverged or evaluation error, 3 converged but invariant violations found,
4 unwritable output path (found before the solve), 5 usage/setting error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields

import numpy as np

from .diagnostics import check_trace, write_trace_csv
from .model import Problem
from .problems import BUILTIN_PROBLEMS, DEFAULT_START, load_qcqp
from .solver import PenaltyParams, SolveStatus, SolverParams, solve


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

def vector(text: str) -> np.ndarray:
    """The finite numbers of comma-separated text; raises ValueError otherwise."""
    values = np.array([float(part) for part in text.split(",")])
    if not np.all(np.isfinite(values)):
        raise ValueError(text)
    return values


# key -> (parser of the flag's text; field of SolverParams or PenaltyParams, or the key
# itself; help)
SETTINGS = {
    "problem": (str, "problem",
                "builtin name (example1|example2|example3) or path to a QCQP file"),
    "x0": (vector, "x0", "starting point, comma-separated"),
    "step_size": (float, "step_size", "primal step size (required; no default)"),
    "alpha": (float, "alpha", "penalty weight"),
    "beta": (float, "beta", "proximal weight in (0,1)"),
    "delta0": (float, "delta0", "initial dual budget"),
    "decay": (float, "decay", "budget decay ratio"),
    "tol_opt": (float, "tol_optimality", "optimality tolerance"),
    "tol_feas": (float, "tol_feasibility", "feasibility tolerance"),
    "max_iters": (int, "max_iterations", "iteration budget"),
    "trace": (str, "trace", "trace CSV output path"),
    "report": (str, "report", "report output path"),
}

# field -> default; PenaltyParams has none of its own, SolverParams' are its dataclass's
_DEFAULTS = ({f.name: f.default for f in fields(SolverParams) if f.default is not MISSING}
             | {"alpha": 2000.0, "beta": 0.5, "trace": "trace.csv", "report": "report.txt"})

# the flags that take a value, and every flag (for --check-invariants, see _build_parser)
_VALUE_FLAGS = {"--" + key.replace("_", "-") for key in SETTINGS}
_FLAGS = {"-h", "--help", "--check-invariants"} | _VALUE_FLAGS


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _load_problem(name: str) -> Problem:
    builder = BUILTIN_PROBLEMS.get(name)
    if builder is not None:
        return builder()
    try:
        return load_qcqp(name)
    except OSError as exc:
        raise ValueError(f"cannot read problem file {name!r}: {exc}") from None


def _write_report(path: str, outcome, problem, violations) -> None:
    lines = [
        f"problem = {problem.name}",
        f"status = {outcome.status.value}",
        f"iterations = {outcome.iterations}",
        f"objective = {float(outcome.history.column('objective')[-1])!r}",
        f"optimality = {outcome.kkt.optimality!r}",
        f"feasibility = {outcome.kkt.feasibility!r}",
        "x = " + ",".join(repr(float(v)) for v in outcome.final_state.x),
        "lambda = " + ",".join(repr(float(v)) for v in outcome.final_state.lam),
    ]
    if outcome.message:
        lines.append(f"message = {outcome.message}")
    lines.append(f"invariant_violations = {len(violations)}")
    for i, v in enumerate(violations):
        lines.append(f"violation.{i} = {v.name} k={v.k} lhs={v.lhs!r} "
                     f"rhs={v.rhs!r} margin={v.margin!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def run(settings: dict) -> int:
    """Solve with the settings, keyed by key, over the defaults; return the exit code.

    ``problem`` and ``step_size`` have no defaults.  A key not in ``SETTINGS``, or a
    bad setting, raises ValueError before the problem is loaded.  Writes the trace CSV
    and the report, and an unwritable path raises OSError before the solve.
    """
    if unknown := sorted(settings.keys() - SETTINGS.keys()):
        raise ValueError("unknown settings: " + ", ".join(unknown))
    values = _DEFAULTS | {SETTINGS[key][1]: value for key, value in settings.items()}
    penalty = PenaltyParams(values["alpha"], values["beta"])
    params = SolverParams(penalty, **{f.name: values[f.name]
                                      for f in fields(SolverParams) if f.name in values})

    problem = _load_problem(values["problem"])
    x0 = values.get("x0")
    if x0 is None:
        start = DEFAULT_START.get(values["problem"])
        if start is None:
            raise ValueError("x0 is required for problems loaded from files")
        x0 = np.array(start)
    if x0.shape != (problem.n,):
        raise ValueError(f"x0 has length {x0.size}, problem {problem.name!r} "
                         f"needs {problem.n}")
    # an unwritable output fails here, before the solve; "a" creates but truncates nothing
    for path in (values["trace"], values["report"]):
        open(path, "a", encoding="utf-8").close()

    if params.decay < 0.9:
        print(f"warning: decay = {params.decay} is far from 1; the dual budget "
              "shrinks fast, which can stop mu before lam reaches a valid "
              "multiplier. Values like 0.999 are recommended.", file=sys.stderr)

    outcome = solve(problem, params, x0)
    violations = check_trace(problem, outcome.history, params)

    write_trace_csv(outcome.history, values["trace"])
    _write_report(values["report"], outcome, problem, violations)

    print(f"{problem.name}: {outcome.status.value} after {outcome.iterations} "
          f"iterations; optimality {outcome.kkt.optimality:.3e}, "
          f"feasibility {outcome.kkt.feasibility:.3e}")
    if violations:
        print(f"invariant violations: {len(violations)} (see {values['report']})",
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
    for key, (parse, field, text) in SETTINGS.items():
        if field in _DEFAULTS:
            text = f"{text} (default {_DEFAULTS[field]})"
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=parse, help=text,
                            required=key in ("problem", "step_size"))
    # every run is checked: this flag is accepted and ignored while the benchmark's
    # cli-file command (bench/workloads.py), its last user, still passes it
    parser.add_argument("--check-invariants", action="store_true", help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    # argparse reads a value that starts with '-' (--x0 -1,2) as a flag, so each value is
    # attached to its flag (--x0=-1,2), unless it is -h or starts with '--': a misspelt
    # flag is then named as unrecognized, not taken as the value
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] in _VALUE_FLAGS and not token.startswith("--") and token != "-h":
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    # argparse names a missing required flag before an unknown one, so --step in place of
    # --step-size would read as a missing --step-size.  Every value is attached by now:
    # a token that is no flag, other than the command, is unrecognized.
    parser = _build_parser()
    unknown = [token for token in tokens if token.split("=")[0] not in _FLAGS]
    commands = [token for token in unknown if not token.startswith("-")]
    if commands:
        unknown.remove(commands[0])
    if unknown:
        parser.error("unrecognized arguments: " + " ".join(unknown))
    args = vars(parser.parse_args(tokens))
    try:
        return run({key: value for key, value in args.items() if key in SETTINGS})
    except ValueError as exc:
        print(f"pplad: error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"pplad: error: {exc}", file=sys.stderr)
        return 4
