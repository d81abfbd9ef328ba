import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from params import rho2_params
from pplad import (Problem, QcqpSpec, RunHistory, WholeSpace, check_trace, example1,
                   solve as real_solve, write_trace_csv)
from pplad.cli import SETTINGS, main, run
from pplad.problems import example2, load_qcqp, save_qcqp

EXAMPLE2_FILE = """\
# three-variable indefinite QCQP
dim 3 2
Q
-2 10 2
10 4 1
2 1 -7
q
-12 -6 56
Q1
1 0 0
0 -1 0
0 0 4
q1
0 0 -32
b1
128
Q2
1 0 0
0 1 0
0 0 1
q2
0 0 -8
b2
32
projection nonneg
"""


def solve_argv(tmp_path, *flags):
    """main's argv for one solve with these flags, writing under tmp_path."""
    return ["solve", *flags, "--trace", str(tmp_path / "t.csv"),
            "--report", str(tmp_path / "r.txt")]


def solve_params(monkeypatch, argv):
    """The SolverParams and x0 that main hands to the (real) solve for argv."""
    import pplad.cli as cli_module
    seen = []
    monkeypatch.setattr(cli_module, "solve",
                        lambda problem, params, x0: seen.append((params, x0))
                        or real_solve(problem, params, x0))
    main(argv)
    [(params, x0)] = seen
    return params, x0


class TestSettings:
    """The settings as main parses them from its flags, over the defaults."""

    def test_standard_values_given_as_flag_text(self, tmp_path, monkeypatch):
        params, x0 = solve_params(monkeypatch, solve_argv(
            tmp_path, "--problem", "example1", "--x0", "3,3", "--step-size", "0.002",
            "--alpha", "2000", "--beta", "0.5", "--delta0", "1", "--decay", "0.999"))
        assert_allclose(x0, [3.0, 3.0])
        assert params.penalty.rho == 2000.0 / 1001.0
        assert params.step_size == 0.002
        assert params.max_iterations == 200000  # default

    def test_an_unknown_setting_fails_before_the_problem_is_loaded(self, tmp_path):
        # the trace CSV holds every row: stride is no setting of run, as it is no flag
        with pytest.raises(ValueError) as info:
            run({"problem": str(tmp_path / "missing.qcqp"), "step_size": 0.002,
                 "x0": np.ones(1), "stride": 2.5, "trace": str(tmp_path / "t.csv")})
        assert str(info.value) == "unknown settings: stride"
        assert not (tmp_path / "t.csv").exists()

    def test_defaults_match_documented_values(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        params, _ = solve_params(monkeypatch, ["solve", "--problem", "example1",
                                               "--step-size", "0.002"])
        assert (params.penalty.alpha, params.penalty.beta, params.decay, params.delta0) == \
            (2000.0, 0.5, 0.999, 1.0)
        assert params.tol_optimality == params.tol_feasibility == 1e-6
        assert params.max_iterations == 200000
        # trace.csv holds every row; report.txt the invariant check of every run
        text = (tmp_path / "report.txt").read_text()
        report = dict(line.split(" = ", 1) for line in text.splitlines())
        trace = np.loadtxt(tmp_path / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
        assert trace[:, 0].tolist() == list(range(int(report["iterations"]) + 1))
        assert report["status"] == "converged" and text.endswith("\ninvariant_violations = 0\n")
        x = np.array(report["x"].split(","), dtype=float)
        assert np.linalg.norm(x - [1.0, 0.0]) <= 1e-3
        assert report["objective"] == repr(example1().objective(x))

    def test_readme_settings_table_lists_exactly_the_settings(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| key | value | default |\n|---|---|---|\n", 1)[1]
        rows = table.split("\n\n", 1)[0].splitlines()
        keys = [row.split("`")[1] for row in rows]
        assert keys == list(SETTINGS)


class TestQcqpFormat:
    def test_loaded_file_matches_builtin(self, tmp_path):
        path = tmp_path / "ex2.qcqp"
        path.write_text(EXAMPLE2_FILE)
        loaded = load_qcqp(str(path))
        builtin = example2()
        assert loaded.n == 3 and loaded.m == 2
        x = np.array([4.0, 4.0, 4.0])
        assert abs(loaded.objective(x) - builtin.objective(x)) <= 1e-12
        assert np.max(np.abs(loaded.constraints(x) - builtin.constraints(x))) <= 1e-12

    def test_loading_holds_less_than_the_file_at_once(self, tmp_path):
        # the text is read line by line: the peak is the arrays, not the file's lines
        n, m = 100, 10
        rng = np.random.default_rng(5)
        spec = QcqpSpec(Q=rng.standard_normal((n, n)), q=rng.standard_normal(n),
                        Qj=rng.standard_normal((m, n, n)), qj=rng.standard_normal((m, n)),
                        bj=rng.standard_normal(m), projection=WholeSpace())
        path = tmp_path / "big.qcqp"
        save_qcqp(spec, str(path))
        del spec
        tracemalloc.start()
        try:
            load_qcqp(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size


class TestRun:
    def test_divergence_exit_two(self, tmp_path):
        # unconstrained concave QCQP: projected gradient descent runs away past 1e8
        path = tmp_path / "runaway.qcqp"
        path.write_text("dim 1 0\nQ\n-1\nq\n0\nprojection whole\n")
        assert main(solve_argv(tmp_path, "--problem", str(path), "--step-size", "0.5",
                               "--x0", "1")) == 2
        report = (tmp_path / "r.txt").read_text()
        assert "status = diverged" in report
        assert "message = ||x|| exceeded 1e+08 at k=" in report

    @staticmethod
    def assert_unwritable_exit_four(capsys, trace, report, unwritable):
        # an unwritable output fails through main's one OSError path, with no summary line
        assert main(["solve", "--problem", "example1", "--step-size", "0.002",
                     "--max-iters", "5", "--trace", str(trace),
                     "--report", str(report)]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"pplad: error: [Errno 2] No such file or directory: '{unwritable}'\n"

    def test_unwritable_trace_path_exit_four(self, tmp_path, capsys):
        trace = tmp_path / "missing" / "t.csv"
        self.assert_unwritable_exit_four(capsys, trace, tmp_path / "r.txt", trace)
        assert not (tmp_path / "r.txt").exists()

    def test_unwritable_report_path_exit_four(self, tmp_path, capsys):
        report = tmp_path / "missing" / "r.txt"
        self.assert_unwritable_exit_four(capsys, tmp_path / "t.csv", report, report)
        assert (tmp_path / "t.csv").exists()  # the trace is written first

    def test_problem_files_are_read_through_the_module_level_load_qcqp(self, tmp_path,
                                                                       monkeypatch):
        # the benchmark times file loading by replacing this name
        import pplad.cli as cli_module
        seen = []
        monkeypatch.setattr(cli_module, "load_qcqp",
                            lambda path: seen.append(path) or example2())
        assert main(solve_argv(tmp_path, "--problem", "model.qcqp", "--step-size", "0.005",
                               "--x0", "4,4,4", "--max-iters", "2")) == 1
        assert seen == ["model.qcqp"]

    def test_small_decay_emits_warning(self, tmp_path, capsys):
        assert main(solve_argv(tmp_path, "--problem", "example1", "--step-size", "0.002",
                               "--max-iters", "2", "--decay", "0.5")) == 1
        assert "decay" in capsys.readouterr().err

    def test_violations_on_converged_run_exit_three(self, tmp_path, monkeypatch):
        # a correct run produces no violations, so force one to pin the
        # exit-code mapping; every run is checked
        from pplad import InvariantViolation
        import pplad.cli as cli_module
        fake = InvariantViolation("mu_bound", 3, 2.0, 1.0)
        monkeypatch.setattr(cli_module, "check_trace",
                            lambda *args, **kw: [fake])
        assert main(solve_argv(tmp_path, "--problem", "example1", "--step-size", "0.002")) == 3
        report = (tmp_path / "r.txt").read_text()
        assert "invariant_violations = 1" in report
        assert "violation.0 = mu_bound" in report

    def test_check_invariants_flag_is_accepted_ignored_and_hidden(self, tmp_path, capsys,
                                                                  monkeypatch):
        # every run is checked; the flag stays only for commands that still pass it
        outputs = []
        for name, check in (("plain", []), ("flagged", ["--check-invariants"])):
            (tmp_path / name).mkdir()
            assert main(solve_argv(tmp_path / name, "--problem", "example2",
                                   "--step-size", "0.005", *check)) == 0
            outputs.append([(tmp_path / name / f).read_bytes() for f in ("r.txt", "t.csv")])
        assert outputs[0] == outputs[1]
        assert b"\ninvariant_violations = 0\n" in outputs[0][0]
        capsys.readouterr()
        # hidden from --help (see test_help_lists_every_flag_with_its_default), and a bare
        # flag: it takes no value, and is no file name for --trace
        (tmp_path / "usage").mkdir()
        monkeypatch.chdir(tmp_path / "usage")
        for flags, message in (
                (["--check-invariants=true"],
                 "argument --check-invariants: ignored explicit argument 'true'"),
                (["--report", "r.txt", "--trace", "--check-invariants"],
                 "argument --trace: expected one argument")):
            with pytest.raises(SystemExit) as info:
                main(["solve", "--problem", "missing.qcqp", "--step-size", "0.002", *flags])
            assert info.value.code == 5
            err = capsys.readouterr().err
            assert err.startswith("usage: pplad ") and err.endswith(f"pplad: error: {message}\n")
        assert os.listdir() == []


def read_back(path):
    """README's recipe: a trace CSV as a table, and the history its rows after k rebuild."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table, RunHistory(table[:, 1:])


def listed(violations):
    """Each violation's fields, its two sides as their repr, so that NaN sides compare."""
    return [(v.name, v.k, repr(v.lhs), repr(v.rhs)) for v in violations]


class TestTraceReplay:
    """A written trace rebuilds the run's history bit for bit, and replays to its violations."""

    @staticmethod
    def replayed(path, problem, params, history):
        table, rebuilt = read_back(path)
        assert table.shape == (len(history), 1 + len(RunHistory.COLUMNS))
        assert table[:, 0].tolist() == history.column("k").tolist()
        for name in RunHistory.COLUMNS:
            assert rebuilt.column(name).tobytes() == history.column(name).tobytes(), name
        violations = check_trace(problem, rebuilt, params)
        assert listed(violations) == listed(check_trace(problem, history, params))
        return violations

    @pytest.mark.parametrize("flags, code, count", [
        (("--step-size", "0.002"), 0, 0),
        # the merit rises past its allowance from k = 1 on, at every other step
        (("--step-size", "0.02", "--max-iters", "2000"), 1, 1000),
    ], ids=["converged", "step-0.02"])
    def test_a_pplad_solve_trace_replays_to_its_report(self, tmp_path, monkeypatch, flags,
                                                         code, count):
        import pplad.cli as cli_module
        runs = []
        monkeypatch.setattr(cli_module, "solve", lambda problem, params, x0: runs.append(
            (problem, params, real_solve(problem, params, x0))) or runs[-1][2])
        assert main(solve_argv(tmp_path, "--problem", "example1", *flags)) == code
        [(problem, params, outcome)] = runs
        violations = self.replayed(tmp_path / "t.csv", problem, params, outcome.history)
        assert len(violations) == count
        if count:
            assert (violations[0].name, violations[0].k) == ("merit_decrease", 1)
        # the report lists the same violations, with their sides at full precision
        report = (tmp_path / "r.txt").read_text().splitlines()
        assert f"invariant_violations = {count}" in report
        assert [line for line in report if line.startswith("violation.")] == [
            f"violation.{i} = {v.name} k={v.k} lhs={v.lhs!r} rhs={v.rhs!r} margin={v.margin!r}"
            for i, v in enumerate(violations)]

    def test_a_trace_with_a_nan_row_replays_to_the_same_violations(self, tmp_path):
        # c(x) is NaN for x < 0, where the first step lands from x0 = 0.5
        problem = Problem(n=1, m=1, objective=lambda x: float(x @ x),
                          objective_gradient=lambda x: 2.0 * x,
                          constraints=lambda x: np.array([np.nan if x[0] < 0 else x[0] - 0.25]),
                          constraint_jacobian=lambda x: np.ones((1, 1)),
                          projection=lambda v: v, name="nan-c")
        params = rho2_params(step_size=1.0)
        history = real_solve(problem, params, [0.5]).history
        write_trace_csv(history, tmp_path / "t.csv")
        violations = self.replayed(tmp_path / "t.csv", problem, params, history)
        assert [(v.name, v.k) for v in violations] == [("finite_terms", 1)]


class TestMain:
    @pytest.mark.parametrize("flags, text, message", [
        # FILE holds text, or does not exist when text is None: a bad setting is refused
        # before the problem is read
        (["--problem", "FILE", "--step-size", "0"], None,
         "step_size must be finite and > 0, got 0.0"),
        # alpha = inf made rho NaN and step_size = inf ran to the iteration limit
        (["--problem", "FILE", "--step-size", "0.002", "--alpha", "inf"], None,
         "alpha must be finite and > 0, got inf"),
        (["--problem", "FILE", "--step-size", "inf"], None,
         "step_size must be finite and > 0, got inf"),
        (["--problem", "FILE", "--step-size", "-inf"], None,  # a value may start with '-'
         "step_size must be finite and > 0, got -inf"),
        (["--problem", "FILE", "--step-size", "0.01"], None,
         "cannot read problem file '{path}': [Errno 2] No such file or directory: '{path}'"),
        (["--problem", "FILE", "--step-size", "0.1"], "dim 1 0\nQ\n1\nq\n0\nprojection whole\n",
         "x0 is required for problems loaded from files"),
        # lo = +inf in the first coordinate: no point lies in the box
        (["--problem", "FILE", "--x0", "1,1", "--step-size", "0.1"],
         "dim 2 0\nQ\n1 0\n0 1\nq\n0 0\nprojection box\ninf 0\ninf 1\n",
         "projection box: box is empty: lo = +inf or hi = -inf in a coordinate (line 7)"),
        (["--problem", "example1", "--step-size", "0.002", "--x0", "1,2,3"], None,
         "x0 has length 3, problem 'example1' needs 2"),
        (["--problem", "FILE", "--step-size", "0.005"],
         EXAMPLE2_FILE.replace("10 4 1", "10 nan 1"), "QCQP field Q has NaN or infinite entries"),
        # Q's mirrored pair (0, 1) and (1, 0) differs, and its sum overflows
        (["--problem", "FILE", "--step-size", "0.005"],
         EXAMPLE2_FILE.replace("-2 10 2\n10 4 1", "-2 1.7e308 2\n1.6e308 4 1"),
         "QCQP field Q overflows when symmetrized as (M + M') / 2"),
    ], ids=["step_size-zero", "alpha-inf", "step_size-inf", "step_size-minus-inf",
            "missing-file", "file-without-x0", "empty-box", "wrong-x0-length",
            "non-finite-file", "overflowing-file"])
    def test_a_refused_setting_or_problem_exits_five(self, tmp_path, capsys, flags, text,
                                                     message):
        path = tmp_path / "p.qcqp"
        if text is not None:
            path.write_text(text)
        assert main(solve_argv(tmp_path, *[str(path) if f == "FILE" else f for f in flags])) == 5
        assert capsys.readouterr() == ("", f"pplad: error: {message.format(path=path)}\n")
        assert list(tmp_path.iterdir()) == ([] if text is None else [path])

    @pytest.mark.parametrize("key, text", [("max_iters", "1.5"), ("step_size", "abc")])
    def test_bad_flag_text_fails_with_the_parse_message(self, tmp_path, capsys, key, text):
        flag, parse = "--" + key.replace("_", "-"), SETTINGS[key][0]
        with pytest.raises(SystemExit) as info:
            main(solve_argv(tmp_path, "--problem", "example1", "--step-size", "0.002",
                            flag, text))
        assert info.value.code == 5
        assert capsys.readouterr().err.endswith(
            f"pplad: error: argument {flag}: invalid {parse.__name__} value: '{text}'\n")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--step-size", "0.002"], "the following arguments are required: --problem"),
        (["--problem", "MISSING"], "the following arguments are required: --step-size"),
        (["--problem", "MISSING", "--step-size", "fast"],
         "argument --step-size: invalid float value: 'fast'"),
        (["--problem", "MISSING", "--step-size", "0.002", "--max-iters", "1e3"],
         "argument --max-iters: invalid int value: '1e3'"),
        (["--problem", "MISSING", "--step-size", "0.002", "--x0", "1,,2"],
         "argument --x0: invalid vector value: '1,,2'"),
        (["--problem", "MISSING", "--step-size", "0.002", "--tol-optimality", "1e-9"],
         "unrecognized arguments: --tol-optimality 1e-9"),
    ], ids=["missing-problem", "missing-step-size", "malformed-number", "malformed-integer",
            "malformed-vector", "unknown-flag"])
    def test_usage_error_exits_five_before_loading(self, tmp_path, capsys, flags, message):
        missing = str(tmp_path / "missing.qcqp")
        with pytest.raises(SystemExit) as info:
            main(solve_argv(tmp_path, *[missing if f == "MISSING" else f for f in flags]))
        assert info.value.code == 5
        usage, error = capsys.readouterr().err.split("pplad: error: ")
        assert usage.startswith("usage: pplad ") and "missing.qcqp" not in usage
        assert error == message + "\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["--x0=1,2", "-h", "--help", "--check-invariant",
                                       "--tol-optimality 1e-9"])
    def test_value_flag_takes_no_flag_as_its_value(self, tmp_path, capsys, monkeypatch,
                                                   value):
        # --trace used to take the next flag as its file name and run without it, and
        # a misspelt flag after it still did (--trace --check-invariant)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["solve", "--problem", "example1", "--step-size", "0.002",
                  "--report", "r.txt", "--trace", *value.split()])
        assert info.value.code == 5
        message = ("argument --trace: expected one argument"
                   if value.split("=")[0] in ("--x0", "-h", "--help")
                   else f"unrecognized arguments: {value}")
        assert capsys.readouterr().err.endswith(f"pplad: error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    def test_help_lists_every_flag_with_its_default(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "1000")  # no line is wrapped
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        defaults = {"alpha": "2000.0", "beta": "0.5", "delta0": "1.0", "decay": "0.999",
                    "tol_opt": "1e-06", "tol_feas": "1e-06", "max_iters": "200000",
                    "trace": "trace.csv", "report": "report.txt"}
        for key, (_, _, help_text) in SETTINGS.items():
            flag = "--" + key.replace("_", "-")
            default = f" (default {defaults[key]})" if key in defaults else ""
            assert f"{flag} {key.upper()} {help_text}{default}" in text
        # no other flag: the removed --stride, --divergence-bound and --config among them
        assert set(re.findall(r"--[a-z0-9-]+", text)) == {
            "--help", *("--" + key.replace("_", "-") for key in SETTINGS)}

    def test_module_entry_point_exits_with_the_process_code(self, tmp_path):
        # python -m pplad is the one module entry; its exit code is the process's
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

        def pplad(*args):
            return subprocess.run([sys.executable, "-m", "pplad", *args], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=60)

        usage = pplad("solve", "--problem", "example1", "--step-size", "fast")
        assert usage.returncode == 5
        assert usage.stderr.startswith("usage: pplad [-h] ")
        assert "argument --step-size: invalid float value: 'fast'" in usage.stderr
        helped = pplad("--help")
        assert helped.returncode == 0
        assert helped.stdout.startswith("usage: pplad [-h] ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["-inf", "0.002"])
    def test_abbreviated_flag_is_unrecognized_and_exits_five(self, tmp_path, capsys, value):
        # argparse's prefix match read --step as --step-size, but only when the
        # value did not start with '-'; a flag must now be spelled in full
        with pytest.raises(SystemExit) as info:
            main(solve_argv(tmp_path, "--problem", "example1", "--step-size", "0.002",
                            "--step", value))
        assert info.value.code == 5
        err = capsys.readouterr().err
        assert f"error: unrecognized arguments: --step {value}" in err
        assert "--step-size" in err.split("error:")[0]  # the usage line lists solve's flags
        assert not (tmp_path / "t.csv").exists()

    def test_unknown_flag_in_place_of_a_required_one_is_named(self, tmp_path, capsys):
        # argparse alone would report the missing --step-size and never name --step
        with pytest.raises(SystemExit) as info:
            main(solve_argv(tmp_path, "--problem", "example1", "--step", "0.002"))
        assert info.value.code == 5
        err = " ".join(capsys.readouterr().err.split())
        assert err.endswith("error: unrecognized arguments: --step 0.002")
        assert "usage: pplad [-h] --problem PROBLEM [--x0 X0] --step-size STEP_SIZE" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("text", ["1,,2", "3,3,", "nan,0", "inf,0"])
    @pytest.mark.parametrize("source", ["flag", "attached"])
    def test_malformed_x0_exit_five_before_loading(self, tmp_path, capsys, text, source):
        x0 = ["--x0", text] if source == "flag" else ["--x0=" + text]
        with pytest.raises(SystemExit) as info:
            main(solve_argv(tmp_path, "--problem", str(tmp_path / "missing.qcqp"),
                            "--step-size", "0.002", *x0))
        assert info.value.code == 5
        err = capsys.readouterr().err
        assert f"argument --x0: invalid vector value: '{text}'" in err
        assert "missing.qcqp" not in err
        assert not (tmp_path / "t.csv").exists()

    def test_stationary_infeasible_start_exit_one(self, tmp_path, capsys):
        # example3 from the origin never moves and c = (-4, 0): not converged
        code = main(solve_argv(tmp_path, "--problem", "example3", "--step-size", "0.004",
                               "--delta0", "0.5", "--x0", "0,0", "--max-iters", "50"))
        assert code == 1
        assert "iteration_limit after 50 iterations" in capsys.readouterr().out
        assert "feasibility = 4.0" in (tmp_path / "r.txt").read_text()
