"""README's "Library usage" code and its trace replay recipe run as written."""

import re
from pathlib import Path

from pplad.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_usage_code_runs(capsys):
    section = README.read_text().split("\n## Library usage\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:  # one namespace: a later block continues the example
        exec(compile(block, str(README), "exec"), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("SolveStatus.CONVERGED")
    # the stepped run prints every 100th iteration, then breaks out before the run would stop
    progress, last = lines[1:-1], lines[-1]
    assert [line.split(":")[0] for line in progress] == [f"k={k}" for k in
                                                         range(0, 100 * len(progress), 100)]
    stopped, rows = map(int, re.match(r"stopped at k=(\d+) with (\d+) rows, status None$",
                                      last).groups())
    assert rows == stopped + 1
    assert 100 * (len(progress) - 1) <= stopped < namespace["outcome"].iterations


def test_trace_replay_recipe_reproduces_the_report(capsys, tmp_path, monkeypatch):
    # the recipe replays the trace of README's first command to the count in its report
    section = README.read_text().split("\n### Trace CSV\n", 1)[1].split("\n### ", 1)[0]
    recipe = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)[-1]
    monkeypatch.chdir(tmp_path)
    assert main(["solve", "--problem", "example1", "--step-size", "0.002",
                 "--trace", "trace.csv", "--report", "report.txt"]) == 0
    capsys.readouterr()
    namespace = {}
    exec(compile(recipe, str(README), "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["invariant_violations = 0"]
    report = (tmp_path / "report.txt").read_text()
    assert printed[0] in report.splitlines()
    # one history row per iteration, k = 0 .. iterations
    iterations = int(report.split("\niterations = ")[1].split("\n")[0])
    assert len(namespace["history"]) == iterations + 1


def test_report_file_section_lists_the_report_keys_in_order(tmp_path):
    section = README.read_text().split("\n### Report file\n", 1)[1].split("\n### ", 1)[0]
    keys = re.findall(r"^- `([a-z_.]+)`", section, re.MULTILINE)
    runaway = tmp_path / "runaway.qcqp"
    runaway.write_text("dim 1 0\nQ\n-1\nq\n0\nprojection whole\n")
    # a divergence sets a message; example1 at step 0.02 breaks the merit decrease
    runs = {"message": ["--problem", str(runaway), "--step-size", "0.5", "--x0", "1"],
            "violation.i": ["--problem", "example1", "--step-size", "0.02",
                            "--max-iters", "50"]}
    for optional, flags in runs.items():
        report = tmp_path / "r.txt"
        main(["solve", *flags, "--trace", str(tmp_path / "t.csv"), "--report", str(report)])
        written = dict.fromkeys(re.sub(r"^violation\.\d+$", "violation.i", line.split(" = ")[0])
                                for line in report.read_text().splitlines())
        assert list(written) == [key for key in keys
                                 if key not in ("message", "violation.i") or key == optional]
