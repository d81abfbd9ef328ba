"""The three workloads: their inputs, one operation, its check, set-up and memory pass.

Each workload is a closed loop with one client: ``run.py`` calls
``operation`` again only after the previous one returned.  One operation is
one full pass over the workload's inputs.  ``operation`` does the package's
work only; ``check`` then judges its outputs with ``reference`` alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from pplad import PenaltyParams, SolveStatus, SolverParams, check_trace, solve
from pplad.cli import load_qcqp
from pplad.problems import BUILTIN_PROBLEMS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 120.0


@dataclass
class OpResult:
    iterations: int
    solve_s: float | None          # None where the solve is not timed apart from the rest
    outputs: list
    counts: dict = field(default_factory=dict)


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_child(cmd, workdir):
    """Run cmd to completion in workdir, with src/ on the import path."""
    return subprocess.run(cmd, capture_output=True, text=True, env=_child_env(), cwd=workdir,
                          timeout=CHILD_TIMEOUT_S)


def _timed_child(code, workdir, *args):
    """Seconds a fresh interpreter reports for its own set-up snippet."""
    proc = run_child([sys.executable, "-c", code, *args], workdir)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _solve_peak_mib(problem, params, x0):
    """tracemalloc peak of the allocations made during one solve."""
    tracemalloc.start()
    try:
        solve(problem, params, x0)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def repro_params(run):
    """The acceptance-suite settings of one reproduction run."""
    return SolverParams(penalty=PenaltyParams(alpha=ref.REPRO_ALPHA, beta=ref.REPRO_BETA),
                        step_size=run.step_size, delta0=run.delta0, decay=ref.REPRO_DECAY,
                        tol_optimality=ref.REPRO_TOL, tol_feasibility=ref.REPRO_TOL)


def qcqp_params():
    """The command line's default settings with step size 0.1."""
    return SolverParams(penalty=PenaltyParams(alpha=ref.QCQP_ALPHA, beta=ref.QCQP_BETA),
                        step_size=ref.QCQP_STEP, delta0=ref.QCQP_DELTA0,
                        decay=ref.QCQP_DECAY, tol_optimality=ref.QCQP_TOL,
                        tol_feasibility=ref.QCQP_TOL)


class BuiltinRepro:
    """example1/2/3 at the acceptance-suite settings, each solve followed by check_trace."""

    name = "builtin-repro"
    setups = 7
    _SETUP = ("import time; t = time.perf_counter(); import pplad.problems as p; "
              "[p.example1(), p.example2(), p.example3()]; print(time.perf_counter() - t)")

    def __init__(self, seed, workdir):
        # The reproduction inputs are the paper's; the seed does not change them.
        self.workdir = workdir
        self.runs = [(run, BUILTIN_PROBLEMS[run.name](), repro_params(run))
                     for run in ref.BUILTINS]

    def setup(self, tracer):
        return _timed_child(self._SETUP, self.workdir)

    def operation(self, tracer):
        iterations, solve_s, outputs = 0, 0.0, []
        for run, problem, params in self.runs:
            problem = tracer.instrument(problem)
            with tracer.span("solver.solve"):
                start = time.perf_counter()
                outcome = solve(problem, params, run.x0)
                solve_s += time.perf_counter() - start
            with tracer.span("diagnostics.check_trace"):
                violations = check_trace(problem, outcome.history, params)
            iterations += outcome.iterations
            outputs.append((run, outcome, violations))
        return OpResult(iterations, solve_s, outputs, counts={"solver.iterations": iterations})

    def check(self, outputs):
        failures = []
        for run, outcome, violations in outputs:
            failures += ref.builtin_failures(run, outcome.status is SolveStatus.CONVERGED,
                                             outcome.final_state.x, outcome.final_state.mu)
            if violations:
                failures.append(f"{run.name}: {len(violations)} invariant violations")
        return failures

    def peak_mib(self):
        return max(_solve_peak_mib(problem, params, run.x0) for run, problem, params in self.runs)


class QcqpDense:
    """A seeded family of dense QCQPs (n=200, m=20) read with load_qcqp and solved from 0."""

    name = "qcqp-dense"
    setups = 3

    def __init__(self, seed, workdir):
        self.instances = ref.dense_family(seed)
        self.paths = [workdir / f"{inst.name}.qcqp" for inst in self.instances]
        for inst, path in zip(self.instances, self.paths):
            ref.write_qcqp(inst, path)
        self.params = qcqp_params()
        self.problems = None

    def setup(self, tracer):
        start = time.perf_counter()
        problems = []
        for path in self.paths:
            with tracer.span("cli.load_qcqp"):
                problems.append(load_qcqp(str(path)))
        elapsed = time.perf_counter() - start
        tracer.count("cli.load_qcqp.bytes", sum(p.stat().st_size for p in self.paths))
        self.problems = problems
        return elapsed

    def operation(self, tracer):
        iterations, solve_s, outputs = 0, 0.0, []
        for inst, problem in zip(self.instances, self.problems):
            problem = tracer.instrument(problem)
            with tracer.span("solver.solve"):
                start = time.perf_counter()
                outcome = solve(problem, self.params, np.zeros(inst.n))
                solve_s += time.perf_counter() - start
            iterations += outcome.iterations
            outputs.append((inst, outcome))
        return OpResult(iterations, solve_s, outputs, counts={"solver.iterations": iterations})

    def check(self, outputs):
        failures = []
        for inst, outcome in outputs:
            if outcome.status is not SolveStatus.CONVERGED:
                failures.append(f"{inst.name}: status {outcome.status.value}")
            state = outcome.final_state
            failures += ref.qcqp_failures(inst, state.x, state.lam, state.mu)
        return failures

    def peak_mib(self):
        return max(_solve_peak_mib(problem, self.params, np.zeros(inst.n))
                   for inst, problem in zip(self.instances, self.problems))


class CliFile:
    """``pplad solve`` in a fresh interpreter on one QCQP file (n=100, m=10)."""

    name = "cli-file"
    setups = 7
    _SETUP = ("import sys, time; t = time.perf_counter(); import pplad.cli; "
              "pplad.cli.load_qcqp(sys.argv[1]); print(time.perf_counter() - t)")

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.instance = ref.cli_instance(seed)
        self.path = workdir / "cli.qcqp"
        ref.write_qcqp(self.instance, self.path)
        self.trace_csv = workdir / "cli-trace.csv"
        self.report = workdir / "cli-report.txt"
        self.spans = workdir / "cli-spans.npz"
        self.args = ["solve", "--problem", str(self.path),
                     "--x0", ",".join(["0"] * self.instance.n),
                     "--step-size", repr(ref.QCQP_STEP),
                     "--trace", str(self.trace_csv), "--report", str(self.report),
                     "--check-invariants"]

    def setup(self, tracer):
        return _timed_child(self._SETUP, self.workdir, str(self.path))

    def operation(self, tracer):
        for stale in (self.trace_csv, self.report, self.spans):
            stale.unlink(missing_ok=True)
        if tracer.enabled:
            cmd = [sys.executable, str(BENCH / "cli_child.py"), str(self.spans), *self.args]
        else:
            cmd = [sys.executable, "-m", "pplad", *self.args]
        proc = run_child(cmd, self.workdir)
        report = {}
        if self.report.exists():
            for line in self.report.read_text().splitlines():
                key, _, value = line.partition(" = ")
                report[key] = value
        rows = len(self.trace_csv.read_text().splitlines()) if self.trace_csv.exists() else 0
        iterations = int(report.get("iterations", 0))
        counts = {}
        if tracer.enabled and self.spans.exists():
            tracer.absorb(self.spans)
            counts = {"solver.iterations": iterations,
                      "diagnostics.write_trace_csv.bytes": self.trace_csv.stat().st_size,
                      "cli.load_qcqp.bytes": self.path.stat().st_size}
        return OpResult(iterations, None, [(proc.returncode, proc.stderr, report, rows)],
                        counts=counts)

    def check(self, outputs):
        (rc, err, report, rows), = outputs
        if rc != 0:
            return [f"pplad solve exited {rc}: {err.strip()[-300:]}"]
        failures = []
        if report.get("status") != "converged":
            failures.append(f"report status {report.get('status')}")
        if report.get("invariant_violations") != "0":
            failures.append(f"invariant_violations = {report.get('invariant_violations')}")
        if rows != int(report.get("iterations", -2)) + 2:
            failures.append(f"trace CSV has {rows} lines for {report.get('iterations')} "
                            "iterations")
        try:
            x = [float(v) for v in report["x"].split(",")]
            lam = [float(v) for v in report["lambda"].split(",")]
        except (KeyError, ValueError) as exc:
            return failures + [f"unreadable report: {exc!r}"]
        return failures + ref.qcqp_failures(self.instance, x, lam)

    def peak_mib(self):
        """The CLI's solve replayed in this process, since tracemalloc cannot see the child."""
        return _solve_peak_mib(load_qcqp(str(self.path)), qcqp_params(),
                               np.zeros(self.instance.n))


WORKLOADS = {w.name: w for w in (BuiltinRepro, QcqpDense, CliFile)}
