"""Command-line runner: load a problem, solve, write trace CSV and a report.

Usage:

    pplad solve --problem example1 --step-size 0.002 --trace out.csv
    pplad solve --problem model.qcqp --config run.cfg --check-invariants

Config files are flat ``key = value`` text ('#' comments allowed); vectors
are comma-separated.  Recognized keys: problem, x0, step_size, alpha, beta,
delta0, decay, tol_opt, tol_feas, max_iters, divergence_bound, trace,
report, stride, check_invariants.  Command-line flags override file values.
The solver records every iteration: ``stride`` thins only the trace CSV,
so ``check_invariants`` always checks the whole run.

QCQP problem files are line-oriented and whitespace-separated: a ``dim n m``
line, section ``Q`` (n rows of n numbers), section ``q`` (n numbers), then
``Q1``/``q1``/``b1`` .. ``Qm``/``qm``/``bm``, and finally a ``projection``
line (``whole`` | ``nonneg`` | ``box`` with lo and hi rows | ``ball`` with
center row and radius).  '#' starts a comment anywhere.

Exit codes: 0 converged (and no invariant violations when checked),
1 iteration limit, 2 diverged or evaluation error, 3 converged but
invariant violations found, 4 unwritable output path, 5 usage/config error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import check_trace, write_trace_csv
from .lagrangian import PenaltyParams
from .model import Ball, Box, NonnegativeOrthant, Problem, WholeSpace
from .problems import BUILTIN_PROBLEMS, DEFAULT_START, QcqpSpec, from_qcqp
from .solver import SolveStatus, SolverParams, solve


class ConfigError(ValueError):
    """Bad configuration input; carries the offending key and line number."""

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        self.key = key
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class QcqpParseError(ValueError):
    """Bad QCQP problem file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"{message} (line {line})")


@dataclass
class RunConfig:
    problem: str
    step_size: float
    x0: Optional[np.ndarray] = None
    alpha: float = 2000.0
    beta: float = 0.5
    delta0: float = 1.0
    decay: float = 0.999
    tol_optimality: float = 1e-6
    tol_feasibility: float = 1e-6
    max_iterations: int = 200000
    divergence_bound: float = 1e8
    trace_path: str = "trace.csv"
    report_path: str = "report.txt"
    trace_stride: int = 1
    check_invariants: bool = False

    def __post_init__(self):
        if self.trace_stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.trace_stride}", key="stride")

    def solver_params(self) -> SolverParams:
        return SolverParams(
            penalty=PenaltyParams(alpha=self.alpha, beta=self.beta),
            step_size=self.step_size,
            delta0=self.delta0, decay=self.decay,
            tol_optimality=self.tol_optimality,
            tol_feasibility=self.tol_feasibility,
            max_iterations=self.max_iterations,
            divergence_bound=self.divergence_bound)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

_FLOAT_KEYS = {"step_size", "alpha", "beta", "delta0", "decay",
               "tol_opt", "tol_feas", "divergence_bound"}
_INT_KEYS = {"max_iters", "stride"}
_KEY_TO_FIELD = {
    "problem": "problem", "x0": "x0", "step_size": "step_size",
    "alpha": "alpha", "beta": "beta", "delta0": "delta0", "decay": "decay",
    "tol_opt": "tol_optimality", "tol_feas": "tol_feasibility",
    "max_iters": "max_iterations", "divergence_bound": "divergence_bound",
    "trace": "trace_path", "report": "report_path", "stride": "trace_stride",
    "check_invariants": "check_invariants",
}


def _parse_vector(text: str, key: str, line: int | None = None) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",") if part.strip() != ""])
    except ValueError:
        raise ConfigError(f"malformed vector for key {key!r}: {text!r}",
                          key=key, line=line) from None


def _convert(key: str, text: str, line: int | None = None):
    text = text.strip()
    if key == "x0":
        return _parse_vector(text, key, line)
    if key in _FLOAT_KEYS:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"malformed number for key {key!r}: {text!r}",
                              key=key, line=line) from None
    if key in _INT_KEYS:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"malformed integer for key {key!r}: {text!r}",
                              key=key, line=line) from None
    if key == "check_invariants":
        lowered = text.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"malformed boolean for key {key!r}: {text!r}",
                          key=key, line=line)
    return text  # problem, trace, report


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"expected 'key = value', got {text!r}", line=lineno)
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"unknown config key {key!r}", key=key, line=lineno)
        values[_KEY_TO_FIELD[key]] = _convert(key, value, lineno)
    return values


def parse_config(config_path: str | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Merge defaults, an optional config file, and flag overrides into a RunConfig.

    Overrides (from command-line flags) win over file values.  ``problem``
    and ``step_size`` have no defaults and must come from one of the two
    sources.
    """
    values: dict = {}
    if config_path is not None:
        values.update(_read_config_file(config_path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        field = _KEY_TO_FIELD.get(key, key)
        if field not in RunConfig.__dataclass_fields__:
            raise ConfigError(f"unknown config key {key!r}", key=key)
        values[field] = _convert(key, value) if isinstance(value, str) else value

    if "problem" not in values:
        raise ConfigError("missing required key 'problem'", key="problem")
    if "step_size" not in values:
        raise ConfigError("missing required key 'step_size'", key="step_size")
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# QCQP file format
# ---------------------------------------------------------------------------

def _qcqp_lines(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield lineno, text


def _parse_numbers(text: str, count: int, lineno: int, what: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != count:
        raise QcqpParseError(f"{what}: expected {count} numbers, got {len(parts)}", lineno)
    try:
        return np.array([float(p) for p in parts])
    except ValueError:
        raise QcqpParseError(f"{what}: non-numeric token in {text!r}", lineno) from None


def load_qcqp_spec(path: str) -> QcqpSpec:
    """Parse the plain-text QCQP format into a QcqpSpec."""
    lines = list(_qcqp_lines(path))
    pos = 0

    def next_line(expect: str):
        nonlocal pos
        if pos >= len(lines):
            lastno = lines[-1][0] if lines else 0
            raise QcqpParseError(f"unexpected end of file, expected {expect}", lastno)
        item = lines[pos]
        pos += 1
        return item

    lineno, text = next_line("'dim n m'")
    parts = text.split()
    if len(parts) != 3 or parts[0] != "dim":
        raise QcqpParseError(f"expected 'dim n m', got {text!r}", lineno)
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise QcqpParseError(f"non-integer dimensions in {text!r}", lineno) from None
    if n < 1 or m < 0:
        raise QcqpParseError(f"invalid dimensions n={n}, m={m}", lineno)

    def read_matrix(tag: str) -> np.ndarray:
        lineno, text = next_line(f"section {tag!r}")
        if text != tag:
            raise QcqpParseError(f"expected section {tag!r}, got {text!r}", lineno)
        rows = []
        for _ in range(n):
            lineno, text = next_line(f"a row of {tag}")
            rows.append(_parse_numbers(text, n, lineno, f"row of {tag}"))
        return np.vstack(rows)

    def read_vector(tag: str) -> np.ndarray:
        lineno, text = next_line(f"section {tag!r}")
        if text != tag:
            raise QcqpParseError(f"expected section {tag!r}, got {text!r}", lineno)
        lineno, text = next_line(f"the entries of {tag}")
        return _parse_numbers(text, n, lineno, tag)

    def read_scalar(tag: str) -> float:
        lineno, text = next_line(f"section {tag!r}")
        if text != tag:
            raise QcqpParseError(f"expected section {tag!r}, got {text!r}", lineno)
        lineno, text = next_line(f"the value of {tag}")
        return float(_parse_numbers(text, 1, lineno, tag)[0])

    Q = read_matrix("Q")
    q = read_vector("q")
    Qj, qj, bj = [], [], []
    for j in range(1, m + 1):
        Qj.append(read_matrix(f"Q{j}"))
        qj.append(read_vector(f"q{j}"))
        bj.append(read_scalar(f"b{j}"))

    lineno, text = next_line("'projection <kind>'")
    parts = text.split()
    if parts[0] != "projection" or len(parts) != 2:
        raise QcqpParseError(f"expected 'projection <kind>', got {text!r}", lineno)
    kind_name = parts[1]
    if kind_name == "whole":
        kind = WholeSpace()
    elif kind_name == "nonneg":
        kind = NonnegativeOrthant()
    elif kind_name == "box":
        lineno, text = next_line("box lower bounds")
        lo = _parse_numbers(text, n, lineno, "box lower bounds")
        lineno, text = next_line("box upper bounds")
        hi = _parse_numbers(text, n, lineno, "box upper bounds")
        kind = Box(lo=lo, hi=hi)
    elif kind_name == "ball":
        lineno, text = next_line("ball center")
        center = _parse_numbers(text, n, lineno, "ball center")
        lineno, text = next_line("ball radius")
        kind = Ball(center=center, radius=float(_parse_numbers(text, 1, lineno, "radius")[0]))
    else:
        raise QcqpParseError(f"unknown projection kind {kind_name!r}", lineno)

    if pos < len(lines):
        lineno, text = lines[pos]
        raise QcqpParseError(f"trailing content {text!r}", lineno)
    return QcqpSpec(Q=Q, q=q, Qj=tuple(Qj), qj=tuple(qj), bj=tuple(bj), projection=kind)


def load_qcqp(path: str, name: str | None = None) -> Problem:
    """Load a QCQP problem file and construct the Problem."""
    return from_qcqp(load_qcqp_spec(path), name=name or str(path))


def save_qcqp(spec: QcqpSpec, path: str) -> None:
    """Serialize a QcqpSpec in the plain-text format read by ``load_qcqp``."""
    def fmt(values) -> str:
        return " ".join("%.17g" % v for v in np.atleast_1d(values))

    lines = [f"dim {spec.n} {spec.m}", "Q"]
    lines += [fmt(row) for row in spec.Q]
    lines += ["q", fmt(spec.q)]
    for j, (M, v, b) in enumerate(zip(spec.Qj, spec.qj, spec.bj), start=1):
        lines.append(f"Q{j}")
        lines += [fmt(row) for row in M]
        lines += [f"q{j}", fmt(v), f"b{j}", fmt(b)]
    kind = spec.projection
    if isinstance(kind, WholeSpace):
        lines.append("projection whole")
    elif isinstance(kind, NonnegativeOrthant):
        lines.append("projection nonneg")
    elif isinstance(kind, Box):
        lo = np.broadcast_to(kind.lo, (spec.n,))
        hi = np.broadcast_to(kind.hi, (spec.n,))
        lines += ["projection box", fmt(lo), fmt(hi)]
    elif isinstance(kind, Ball):
        lines += ["projection ball", fmt(kind.center), fmt(kind.radius)]
    else:
        raise TypeError(f"unknown projection kind: {type(kind).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
        "x = " + ",".join(repr(float(v)) for v in outcome.kkt.x_final),
        "lambda = " + ",".join(repr(float(v)) for v in outcome.kkt.multiplier),
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

    if config.decay < 0.9:
        print(f"warning: decay = {config.decay} is far from 1; the dual budget "
              "shrinks fast, which can freeze mu before lam reaches a valid "
              "multiplier. Values like 0.999 are recommended.", file=sys.stderr)

    params = config.solver_params()
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
                     description="Equality-constrained nonconvex solver with "
                                 "bounded dual iterates.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("solve", help="run the solver on a problem",
                          description="Run the solver; flags override config-file "
                                      "values.")
    runp.add_argument("--problem", help="builtin name (example1|example2|example3) "
                                        "or path to a QCQP file")
    runp.add_argument("--config", help="path to a 'key = value' config file")
    runp.add_argument("--x0", help="starting point, comma-separated")
    runp.add_argument("--step-size", type=float, dest="step_size",
                      help="primal step size (required; no default)")
    runp.add_argument("--alpha", type=float, help="penalty weight (default 2000)")
    runp.add_argument("--beta", type=float, help="proximal weight in (0,1) (default 0.5)")
    runp.add_argument("--delta0", type=float, help="initial dual budget (default 1)")
    runp.add_argument("--decay", type=float, help="budget decay ratio (default 0.999)")
    runp.add_argument("--tol-opt", type=float, dest="tol_opt",
                      help="optimality tolerance (default 1e-6)")
    runp.add_argument("--tol-feas", type=float, dest="tol_feas",
                      help="feasibility tolerance (default 1e-6)")
    runp.add_argument("--max-iters", type=int, dest="max_iters",
                      help="iteration budget (default 200000)")
    runp.add_argument("--divergence-bound", type=float, dest="divergence_bound",
                      help="abort when ||x|| exceeds this (default 1e8)")
    runp.add_argument("--trace", help="trace CSV output path (default trace.csv)")
    runp.add_argument("--report", help="report output path (default report.txt)")
    runp.add_argument("--stride", type=int,
                      help="write every k-th row of the CSV; invariants are still "
                           "checked on every iteration (default 1)")
    runp.add_argument("--check-invariants", action="store_true", default=None,
                      dest="check_invariants",
                      help="re-check the per-iteration inequalities on the trace")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {key: value for key, value in vars(args).items()
                 if key not in ("command", "config") and value is not None}
    try:
        config = parse_config(args.config, overrides)
        return run(config)
    except (ConfigError, QcqpParseError, ValueError) as exc:
        print(f"pplad: error: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"pplad: error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
