import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pplad import (PenaltyParams, QcqpSpec, SolverParams, WholeSpace,
                   check_trace as real_check_trace, example1, read_trace_csv)
from pplad.cli import ConfigError, RunConfig, main, parse_config, run
from pplad.problems import (QcqpParseError, example2, example2_spec, load_qcqp,
                            load_qcqp_spec, save_qcqp)

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


def run_config(tmp_path, **settings):
    """A RunConfig from settings given as flags would give them, writing under tmp_path."""
    return parse_config(None, {"trace": str(tmp_path / "t.csv"),
                               "report": str(tmp_path / "r.txt"), **settings})


class TestParseConfig:
    def test_file_with_standard_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a complete run configuration\n"
            "problem = example1\n"
            "x0 = 3,3\n"
            "step_size = 0.002\n"
            "alpha = 2000\n"
            "beta = 0.5\n"
            "delta0 = 1\n"
            "decay = 0.999\n")
        config = parse_config(str(cfg))
        assert config.problem == "example1"
        assert_allclose(config.x0, [3.0, 3.0])
        params = config.params
        assert params.penalty.rho == 2000.0 / 1001.0
        assert params.step_size == 0.002
        assert params.max_iterations == 200000  # default

    def test_missing_step_size_names_the_key(self):
        with pytest.raises(ConfigError, match="step_size"):
            parse_config(None, {"problem": "example1"})

    def test_missing_problem_names_the_key(self):
        with pytest.raises(ConfigError, match="problem"):
            parse_config(None, {"step_size": 0.01})

    def test_unknown_key_reports_name_and_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = example1\nstep_sise = 0.002\n")
        with pytest.raises(ConfigError, match="step_sise") as info:
            parse_config(str(cfg))
        assert info.value.line == 2

    def test_malformed_number_reports_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = example1\nstep_size = fast\n")
        with pytest.raises(ConfigError, match="malformed number") as info:
            parse_config(str(cfg))
        assert info.value.line == 2

    def test_nonpositive_stride_names_the_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = example1\nstep_size = 0.002\nstride = 0\n")
        with pytest.raises(ConfigError, match="stride") as info:
            parse_config(str(cfg))
        assert info.value.key == "stride"
        with pytest.raises(ConfigError, match="stride"):
            parse_config(None, {"problem": "example1", "step_size": 0.002, "stride": -3})

    def test_nan_stride_is_rejected(self):
        params = SolverParams(penalty=PenaltyParams(alpha=2.0, beta=0.5), step_size=0.1)
        with pytest.raises(ConfigError, match="stride") as info:
            RunConfig(problem="example1", params=params, trace_stride=float("nan"))
        assert info.value.key == "stride"

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = example1\nstep_size = 0.002\nalpha = 10\n")
        config = parse_config(str(cfg), {"alpha": 2000.0, "decay": 0.5})
        assert config.params.penalty.alpha == 2000.0
        assert config.params.decay == 0.5

    def test_defaults_match_documented_values(self):
        config = parse_config(None, {"problem": "example1", "step_size": 0.002})
        params = config.params
        assert (params.penalty.alpha, params.penalty.beta, params.decay, params.delta0) == \
            (2000.0, 0.5, 0.999, 1.0)
        assert params.tol_optimality == params.tol_feasibility == 1e-6
        assert params.max_iterations == 200000
        assert params.divergence_bound == 1e8
        assert (config.trace_path, config.report_path) == ("trace.csv", "report.txt")
        assert config.trace_stride == 1
        assert config.check_invariants is False


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

    def test_round_trip_of_builtin_spec(self, tmp_path):
        path = tmp_path / "ex2.qcqp"
        save_qcqp(example2_spec(), str(path))
        loaded = load_qcqp(str(path))
        builtin = example2()
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.uniform(-10.0, 10.0, 3)
            assert abs(loaded.objective(x) - builtin.objective(x)) <= 1e-12
            assert np.max(np.abs(loaded.constraints(x) - builtin.constraints(x))) <= 1e-12
            assert np.max(np.abs(loaded.constraint_jacobian(x)
                                 - builtin.constraint_jacobian(x))) <= 1e-12

    def test_empty_constraint_list_is_valid(self, tmp_path):
        path = tmp_path / "plain.qcqp"
        path.write_text("dim 2 0\nQ\n1 0\n0 1\nq\n0 0\nprojection whole\n")
        p = load_qcqp(str(path))
        assert p.m == 0
        assert p.constraints(np.zeros(2)).shape == (0,)

    def test_ragged_matrix_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.qcqp"
        path.write_text("dim 2 0\nQ\n1 0\n0\nq\n0 0\nprojection whole\n")
        with pytest.raises(QcqpParseError, match="expected 2 numbers") as info:
            load_qcqp(str(path))
        assert info.value.line == 4

    def test_non_numeric_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.qcqp"
        path.write_text("dim 2 0\nQ\n1 zero\n0 1\nq\n0 0\nprojection whole\n")
        with pytest.raises(QcqpParseError, match="non-numeric"):
            load_qcqp(str(path))

    def test_unknown_projection_kind(self, tmp_path):
        path = tmp_path / "bad.qcqp"
        path.write_text("dim 1 0\nQ\n1\nq\n0\nprojection simplex\n")
        with pytest.raises(QcqpParseError, match="simplex"):
            load_qcqp(str(path))

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "bad.qcqp"
        path.write_text("dim 2 1\nQ\n1 0\n0 1\nq\n0 0\nQ1\n1 0\n")
        with pytest.raises(QcqpParseError, match="unexpected end"):
            load_qcqp(str(path))

    def test_dimensions_the_file_cannot_fill(self, tmp_path):
        # refused before any array is allocated for them
        path = tmp_path / "bad.qcqp"
        path.write_text("dim 2 1000000000000\nQ\n1 0\n0 1\nq\n0 0\nprojection whole\n")
        with pytest.raises(QcqpParseError, match="more numbers than the file has") as info:
            load_qcqp(str(path))
        assert info.value.line == 1

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

    def test_box_and_ball_round_trip(self, tmp_path):
        from pplad import Ball, Box, QcqpSpec
        for kind in (Box(lo=[-1.0, 0.0], hi=[1.0, 2.0]),
                     Ball(center=[0.5, -0.5], radius=3.0)):
            spec = QcqpSpec(Q=np.eye(2), q=[1.0, -1.0], Qj=(), qj=(), bj=(),
                            projection=kind)
            path = tmp_path / "k.qcqp"
            save_qcqp(spec, str(path))
            reloaded = load_qcqp_spec(str(path))
            assert type(reloaded.projection) is type(kind)


class TestRun:
    def test_example1_converges_exit_zero(self, tmp_path):
        config = run_config(tmp_path, problem="example1", step_size=0.002,
                            check_invariants=True)
        assert run(config) == 0
        report = (tmp_path / "r.txt").read_text()
        assert "status = converged" in report
        assert "invariant_violations = 0" in report
        x_line = next(l for l in report.splitlines() if l.startswith("x = "))
        x = np.array([float(v) for v in x_line[4:].split(",")])
        assert np.linalg.norm(x - np.array([1.0, 0.0])) <= 1e-3
        assert f"objective = {example1().objective(x)!r}" in report
        assert read_trace_csv(tmp_path / "t.csv")["k"][0] == 0

    def test_iteration_limit_exit_one(self, tmp_path):
        config = run_config(tmp_path, problem="example1", step_size=0.002, max_iters=1)
        assert run(config) == 1

    def test_divergence_exit_two(self, tmp_path):
        # unconstrained concave QCQP: projected gradient descent runs away
        path = tmp_path / "runaway.qcqp"
        path.write_text("dim 1 0\nQ\n-1\nq\n0\nprojection whole\n")
        config = run_config(tmp_path, problem=str(path), step_size=0.5, x0="1",
                            divergence_bound=1e4)
        assert run(config) == 2

    def test_unwritable_trace_path_exit_four(self, tmp_path):
        config = run_config(tmp_path, problem="example1", step_size=0.002, max_iters=5,
                            trace=str(tmp_path / "missing" / "t.csv"))
        assert run(config) == 4

    def test_file_problem_requires_x0(self, tmp_path):
        path = tmp_path / "plain.qcqp"
        path.write_text("dim 1 0\nQ\n1\nq\n0\nprojection whole\n")
        config = run_config(tmp_path, problem=str(path), step_size=0.1)
        with pytest.raises(ConfigError, match="x0"):
            run(config)

    def test_wrong_x0_length_rejected(self, tmp_path):
        config = run_config(tmp_path, problem="example1", step_size=0.002, x0="1,2,3")
        with pytest.raises(ConfigError, match="x0"):
            run(config)

    def test_stride_decimates_csv(self, tmp_path):
        config = run_config(tmp_path, problem="example1", step_size=0.002, max_iters=40,
                            stride=10)
        assert run(config) == 1
        assert read_trace_csv(tmp_path / "t.csv")["k"].tolist() == [0, 10, 20, 30, 40]

    def test_check_invariants_with_stride_checks_every_iteration(self, tmp_path, capsys,
                                                                 monkeypatch):
        import pplad.cli as cli_module
        checked = []

        def check_trace(problem, history, params):
            checked.append(history.ks.tolist())
            return real_check_trace(problem, history, params)

        monkeypatch.setattr(cli_module, "check_trace", check_trace)
        config = run_config(tmp_path, problem="example1", step_size=0.002, max_iters=40,
                            stride=10, check_invariants=True)
        assert run(config) == 1
        assert capsys.readouterr().err == ""
        assert checked == [list(range(41))]
        assert "invariant_violations = 0" in (tmp_path / "r.txt").read_text()
        assert read_trace_csv(tmp_path / "t.csv")["k"].tolist() == [0, 10, 20, 30, 40]

    def test_problem_files_are_read_through_the_module_level_load_qcqp(self, tmp_path,
                                                                       monkeypatch):
        # the benchmark times file loading by replacing this name
        import pplad.cli as cli_module
        seen = []
        monkeypatch.setattr(cli_module, "load_qcqp",
                            lambda path: seen.append(path) or example2())
        config = run_config(tmp_path, problem="model.qcqp", step_size=0.005,
                            x0="4,4,4", max_iters=2)
        assert run(config) == 1
        assert seen == ["model.qcqp"]

    def test_small_decay_emits_warning(self, tmp_path, capsys):
        config = run_config(tmp_path, problem="example1", step_size=0.002, max_iters=2,
                            decay=0.5)
        run(config)
        assert "decay" in capsys.readouterr().err

    def test_violations_on_converged_run_exit_three(self, tmp_path, monkeypatch):
        # a correct run produces no violations, so force one to pin the
        # exit-code mapping
        from pplad import InvariantViolation
        import pplad.cli as cli_module
        fake = InvariantViolation("mu_bound", 3, 2.0, 1.0, 1.0)
        monkeypatch.setattr(cli_module, "check_trace",
                            lambda *args, **kw: [fake])
        config = run_config(tmp_path, problem="example1", step_size=0.002,
                            check_invariants=True)
        assert run(config) == 3
        report = (tmp_path / "r.txt").read_text()
        assert "invariant_violations = 1" in report
        assert "violation.0 = mu_bound" in report


class TestMain:
    def test_end_to_end_with_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "problem = example1\n"
            "step_size = 0.002\n"
            f"trace = {tmp_path / 't.csv'}\n"
            f"report = {tmp_path / 'r.txt'}\n")
        code = main(["solve", "--config", str(cfg), "--check-invariants"])
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_flag_override_of_decay_accepted_with_warning(self, tmp_path, capsys):
        code = main(["solve", "--problem", "example1", "--step-size", "0.002",
                     "--decay", "0.5", "--max-iters", "2",
                     "--trace", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == 1
        assert "decay" in capsys.readouterr().err

    def test_missing_step_size_exit_five(self, tmp_path, capsys):
        code = main(["solve", "--problem", "example1",
                     "--trace", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == 5
        assert "step_size" in capsys.readouterr().err

    def test_bad_setting_fails_before_the_problem_is_loaded(self, tmp_path, capsys):
        code = main(["solve", "--problem", str(tmp_path / "missing.qcqp"),
                     "--step-size", "0",
                     "--trace", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == 5
        err = capsys.readouterr().err
        assert "step_size" in err and "missing.qcqp" not in err

    @pytest.mark.parametrize("key, text", [("stride", "1.5"), ("step_size", "abc")])
    def test_bad_flag_text_fails_as_in_a_config_file(self, tmp_path, capsys, key, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"problem = example1\nstep_size = 0.002\n{key} = {text}\n")
        with pytest.raises(ConfigError) as info:
            parse_config(str(cfg))
        assert str(info.value).endswith(" (line 3)")
        message = str(info.value).removesuffix(" (line 3)")
        code = main(["solve", "--problem", "example1", "--step-size", "0.002",
                     "--" + key.replace("_", "-"), text,
                     "--trace", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == 5
        assert capsys.readouterr().err == f"pplad: error: {message}\n"
        assert not (tmp_path / "t.csv").exists()

    def test_non_finite_problem_file_exit_five(self, tmp_path, capsys):
        path = tmp_path / "nan.qcqp"
        path.write_text(EXAMPLE2_FILE.replace("10 4 1", "10 nan 1"))
        code = main(["solve", "--problem", str(path), "--step-size", "0.005",
                     "--trace", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == 5
        assert capsys.readouterr().err == \
            "pplad: error: QCQP field Q has NaN or infinite entries\n"
        assert not (tmp_path / "t.csv").exists()

    def test_problem_file_that_overflows_when_symmetrized_exit_five(self, tmp_path, capsys):
        path = tmp_path / "huge.qcqp"
        path.write_text(EXAMPLE2_FILE.replace("10 4 1", "10 1e308 1"))
        code = main(["solve", "--problem", str(path), "--step-size", "0.005",
                     "--trace", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == 5
        assert capsys.readouterr().err == \
            "pplad: error: QCQP field Q overflows when symmetrized as (M + M') / 2\n"
        assert not (tmp_path / "t.csv").exists()

    def test_x0_flag_parsed_as_vector(self, tmp_path):
        code = main(["solve", "--problem", "example1", "--step-size", "0.002",
                     "--x0", "2.5,-1.0", "--max-iters", "3",
                     "--trace", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == 1

    @pytest.mark.parametrize("text", ["1,,2", "3,3,", "nan,0", "inf,0"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_malformed_x0_exit_five_before_loading(self, tmp_path, capsys, text, source):
        missing = tmp_path / "missing.qcqp"
        if source == "flag":
            args = ["--problem", str(missing), "--step-size", "0.002", "--x0", text]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"problem = {missing}\nstep_size = 0.002\nx0 = {text}\n")
            args = ["--config", str(cfg)]
        code = main(["solve", *args, "--trace", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == 5
        err = capsys.readouterr().err
        assert "malformed vector for key 'x0'" in err and "missing.qcqp" not in err
        assert not (tmp_path / "t.csv").exists()

    def test_bad_problem_name_exit_five(self, tmp_path, capsys):
        code = main(["solve", "--problem", "nonexistent.qcqp",
                     "--step-size", "0.01",
                     "--trace", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == 5
        assert "problem" in capsys.readouterr().err

    def test_stationary_infeasible_start_exit_one(self, tmp_path, capsys):
        # example3 from the origin never moves and c = (-4, 0): not converged
        code = main(["solve", "--problem", "example3", "--step-size", "0.004",
                     "--delta0", "0.5", "--x0", "0,0", "--max-iters", "50",
                     "--trace", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == 1
        assert "iteration_limit after 50 iterations" in capsys.readouterr().out
        assert "feasibility = 4.0" in (tmp_path / "r.txt").read_text()

    @pytest.mark.parametrize("stride", ["0", "-3"])
    @pytest.mark.parametrize("check", [[], ["--check-invariants"]])
    def test_nonpositive_stride_exit_five_before_solving(self, tmp_path, capsys, stride,
                                                         check):
        code = main(["solve", "--problem", "example1", "--step-size", "0.002",
                     "--stride", stride, *check,
                     "--trace", str(tmp_path / "t.csv"),
                     "--report", str(tmp_path / "r.txt")])
        assert code == 5
        assert "stride" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_nonpositive_stride_in_config_file_exit_five(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = example1\nstep_size = 0.002\nstride = 0\n"
                       f"trace = {tmp_path / 't.csv'}\nreport = {tmp_path / 'r.txt'}\n")
        assert main(["solve", "--config", str(cfg), "--check-invariants"]) == 5
        assert "stride" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()
